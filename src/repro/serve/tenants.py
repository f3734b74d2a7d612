"""Per-tenant admission budgets and the fabric-level tenant registry.

The fabric's isolation claim -- one tenant's overload sheds *that
tenant*, not the fleet -- rests on accounting admission per tenant
before any shard queue is consulted:

* :class:`TenantPolicy` bounds a tenant's *in-flight* calls across the
  whole fabric (admitted at the fabric, not yet terminated on the
  simulated clock).  An arrival past the budget is shed at the front
  door with :class:`~repro.serve.errors.TenantOverloaded` -- zero
  accelerator cycles, zero shard-queue occupancy, so a tenant at 10x
  its budget cannot crowd a under-budget tenant out of the shard
  queues (``tests/serve/test_fabric_isolation.py``).
* :class:`TenantAccount` is the live ledger and the front door: the
  budget check (:meth:`TenantAccount.shed`), the in-flight window, a
  count of budget sheds, and a per-tenant
  :class:`~repro.serve.server.ServeStats`, which extends
  the PR 3 accounting invariant tenant by tenant
  (``shed + failed + succeeded + migrated == offered``).  The
  ``migrated`` bucket counts calls that completed OK away from their
  (draining) old-ring home during a reshard
  (:mod:`repro.serve.fabric`); it is disjoint from ``succeeded`` so no
  resharded call is ever double-counted or silently dropped
  (``tests/fleet/test_reshard_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.proto.descriptor import ServiceDescriptor
from repro.serve.errors import TenantOverloaded
from repro.serve.server import CallOutcome, ServeStats


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission budget."""

    #: Calls admitted at the fabric but not yet terminated; arrivals
    #: past this bound are shed for this tenant only.
    max_inflight: int = 64

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")


@dataclass
class TenantAccount:
    """The fabric's live ledger for one tenant."""

    tenant: str
    service: ServiceDescriptor
    policy: TenantPolicy = field(default_factory=TenantPolicy)
    stats: ServeStats = field(default_factory=ServeStats)
    #: Calls shed at this tenant's budget (also counted in
    #: ``stats.shed``, alongside any shard-level sheds).
    sheds: int = 0
    #: Termination cycles of admitted calls; an entry > now means that
    #: call is still in flight at cycle ``now``.
    _completions: list[float] = field(default_factory=list)

    def inflight(self, now: float) -> int:
        self._completions = [c for c in self._completions if c > now]
        return len(self._completions)

    def note_completion(self, completed_at: float) -> None:
        self._completions.append(completed_at)

    def shed(self, method_name: str, at: float,
             epoch: int) -> CallOutcome | None:
        """The front door: the budget check at arrival.  A call past
        the budget is shed for zero cycles -- counted in ``sheds`` and
        the ledger -- and its outcome returned; ``None`` admits it
        without recording occupancy (the shard's serve notes the
        completion once it prices the call)."""
        # Validates the method, also for a call the budget admits.
        full = self.service.full_method_name(method_name)
        if self.inflight(at) < self.policy.max_inflight:
            return None
        outcome = CallOutcome(
            status="shed", arrival=at, completed_at=at,
            error=TenantOverloaded(
                f"tenant {self.tenant!r} at its in-flight budget "
                f"({self.policy.max_inflight})",
                method=full, tenant=self.tenant),
            tenant=self.tenant, ring_epoch=epoch)
        self.sheds += 1
        self.stats.record(outcome)
        return outcome


class TenantRegistry:
    """All tenants known to the fabric, keyed by tenant id."""

    def __init__(self):
        self._accounts: dict[str, TenantAccount] = {}

    def add(self, tenant: str, service: ServiceDescriptor,
            policy: TenantPolicy | None = None) -> TenantAccount:
        if tenant in self._accounts:
            raise ValueError(f"tenant {tenant!r} already registered")
        account = TenantAccount(tenant, service,
                                policy or TenantPolicy())
        self._accounts[tenant] = account
        return account

    def account(self, tenant: str) -> TenantAccount:
        try:
            return self._accounts[tenant]
        except KeyError:
            raise KeyError(f"tenant {tenant!r} is not registered") \
                from None

    def __iter__(self):
        return iter(self._accounts.values())

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._accounts)
