"""The sharded multi-tenant serving fabric, with online resharding.

One :class:`ServingFabric` is the fleet-shaped front end the paper's
Section 3 numbers imply: N independent shards -- each a full
:class:`~repro.serve.server.ResilientServer` with its own admission
queue, circuit breakers, watchdogs, and tile pool -- behind a
deterministic router.  Per call:

1. **Tenant budget** (:mod:`repro.serve.tenants`) -- the tenant's
   fabric-wide in-flight budget is checked first; an over-budget
   arrival is shed with :class:`~repro.serve.errors.TenantOverloaded`
   for zero cycles and zero shard-queue occupancy, so one tenant's
   overload sheds that tenant, not the fleet.
2. **Routing** (:mod:`repro.serve.router`) -- consistent hash of the
   tenant id picks the primary shard; if that shard is unroutable
   (quarantined with no probe-ready breaker) the ranked fallback walks
   the remaining shards by effective health tier first, load second.
3. **Shard serve** -- the shard's own PR 3 machinery (admission,
   deadline gating, breakers, failover, watchdog, fit-gated host
   fallback) runs unchanged, so the per-call latency bound
   ``deadline + watchdog_budget`` survives the extra routing layer
   (``tests/serve/test_fabric_watchdog.py``).

Shard count must never change semantics or cycle charging: a fixed
replay through 1, 2, and 4 shards is bit-identical -- per-message
responses and accelerator cycles -- to a single
:class:`~repro.serve.server.ResilientServer`
(``tests/serve/test_fleet_replay.py``).

**Online resharding** (ISSUE 8) makes the router's property-tested
removal stability a *runtime* property.  Every shard carries a
lifecycle state::

    JOINING --(warmup_cycles)--> ACTIVE --drain()--> DRAINING
                                                        |
                              (window elapsed & pending == 0)
                                                        v
                                                     REMOVED

The :class:`ReshardController` drives the transitions on the simulated
clock, entirely from :meth:`ReshardController.tick` at each arrival:

* **Evict** -- :meth:`ReshardController.drain` swaps the ring via
  :meth:`~repro.serve.router.ConsistentHashRouter.without` (bumping
  :attr:`ServingFabric.ring_epoch`) and arms the shard's drain barrier
  (refuse-new, accept-pending).  In-flight work completes on the
  draining shard; new arrivals whose *old-ring* home was the draining
  shard are served by their new owner and flagged ``migrated``, so the
  per-tenant identity ``shed + failed + succeeded + migrated ==
  offered`` closes with nothing silently dropped.  A shard that stays
  fully quarantined for ``ReshardPolicy.auto_evict_after_cycles`` is
  evicted automatically.
* **Grow** -- :meth:`ReshardController.add_shard` wires every tenant's
  schema and handlers onto a fresh shard, adds it to the ring via
  :meth:`~repro.serve.router.ConsistentHashRouter.with_shard`
  (epoch bump), and admits it as JOINING under a ramped in-flight
  budget: overflow beyond the warm-up budget deflects to the ranked
  fallback, so only remapped tenants' tails move while the joiner
  warms (``tests/fleet/test_reshard_lifecycle.py``).

Every transition is logged as a :class:`ReshardEvent` with its
simulated-clock timestamp, so tests and the bench can assert the
degradation envelope of a resize exactly (docs/SERVING.md, resharding
section).
"""

from __future__ import annotations

import dataclasses
import enum
import weakref
from dataclasses import dataclass, field

from repro.proto.descriptor import ServiceDescriptor
from repro.serve.breaker import BreakerState
from repro.serve.errors import FabricConfigError, TenantOverloaded
from repro.serve.router import (
    ConsistentHashRouter,
    RouterPolicy,
    ShardView,
    ranked_fallbacks,
)
from repro.serve.server import (
    CallOutcome,
    ResilientServer,
    ServePolicy,
    ServeStats,
)
from repro.serve.tenants import TenantPolicy, TenantRegistry


class ShardState(enum.Enum):
    """One shard's lifecycle position (see the module docstring)."""

    JOINING = "joining"
    ACTIVE = "active"
    DRAINING = "draining"
    REMOVED = "removed"


#: States in which a shard owns ring points and may serve new calls.
ROUTABLE_STATES = (ShardState.ACTIVE, ShardState.JOINING)


@dataclass(frozen=True)
class ReshardPolicy:
    """Every knob of the online-resharding controller."""

    #: Minimum cycles a shard spends DRAINING before removal; the
    #: barrier also waits for the shard's pending work to hit zero.
    drain_cycles: float = 50_000.0
    #: Cycles a JOINING shard ramps before it is promoted to ACTIVE.
    warmup_cycles: float = 20_000.0
    #: In-flight calls admitted on the joiner at the moment it joins.
    warmup_initial_inflight: int = 1
    #: In-flight budget the ramp reaches at the end of the warm-up.
    warmup_target_inflight: int = 32
    #: Auto-evict a shard that has been fully quarantined (every tile
    #: breaker OPEN, none probe-ready) this long.  ``None`` disables
    #: auto-eviction (the PR 6-compatible default).
    auto_evict_after_cycles: float | None = None

    def __post_init__(self) -> None:
        if self.drain_cycles < 0:
            raise FabricConfigError("drain_cycles", self.drain_cycles,
                                    "must be >= 0")
        if self.warmup_cycles < 0:
            raise FabricConfigError("warmup_cycles", self.warmup_cycles,
                                    "must be >= 0")
        if self.warmup_initial_inflight < 1:
            raise FabricConfigError("warmup_initial_inflight",
                                    self.warmup_initial_inflight,
                                    "must be >= 1")
        if self.warmup_target_inflight < self.warmup_initial_inflight:
            raise FabricConfigError("warmup_target_inflight",
                                    self.warmup_target_inflight,
                                    "must be >= warmup_initial_inflight")
        if (self.auto_evict_after_cycles is not None
                and self.auto_evict_after_cycles < 0):
            raise FabricConfigError("auto_evict_after_cycles",
                                    self.auto_evict_after_cycles,
                                    "must be >= 0 or None")


@dataclass(frozen=True)
class FabricPolicy:
    """Every knob of the fabric, in one bundle."""

    #: Independent shards; each gets ``serve.tiles`` tiles of its own.
    shards: int = 2
    #: Per-shard serving policy (admission, breakers, watchdog, tiles).
    serve: ServePolicy = field(default_factory=ServePolicy)
    router: RouterPolicy = field(default_factory=RouterPolicy)
    #: Budget applied to tenants registered without an explicit one.
    default_budget: TenantPolicy = field(default_factory=TenantPolicy)
    #: Online-resharding knobs (drain window, warm-up ramp, auto-evict).
    reshard: ReshardPolicy = field(default_factory=ReshardPolicy)
    #: Convenience override for the ring's virtual-node count; ``None``
    #: keeps ``router.vnodes``.  Validated here so a misconfigured
    #: fabric fails at construction with a structured error naming the
    #: knob, not deep inside ring construction.
    vnodes: int | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise FabricConfigError("shards", self.shards,
                                    "need at least one shard")
        if self.vnodes is not None:
            if self.vnodes < 1:
                raise FabricConfigError("vnodes", self.vnodes,
                                        "must be >= 1 (each shard needs "
                                        "at least one ring point)")
            object.__setattr__(
                self, "router",
                dataclasses.replace(self.router, vnodes=self.vnodes))


@dataclass(frozen=True)
class ReshardEvent:
    """One structured lifecycle transition, on the simulated clock."""

    at: float
    #: "drain_start" | "shard_removed" | "shard_joined" |
    #: "warmup_complete" | "auto_evict"
    kind: str
    shard: int | None
    #: Ring epoch *after* the transition (epoch bumps on ring swaps).
    epoch: int
    detail: str = ""


class FabricShard:
    """One shard: index + lifecycle state + its resilient server."""

    def __init__(self, index: int, policy: FabricPolicy):
        self.index = index
        self.state = ShardState.ACTIVE
        self.joined_at = 0.0
        serve = policy.serve
        plan = serve.fault_plan
        if plan is not None and plan.enabled():
            # Decorrelate the shards' fault campaigns exactly like the
            # per-tile derivation inside each server.
            serve = dataclasses.replace(
                serve, fault_plan=plan.derive("fabric.shard", str(index)))
        self.server = ResilientServer(policy=serve)
        #: Termination cycles of calls this shard served; an entry
        #: > now means that call is still in flight here (the JOINING
        #: warm-up budget is enforced against this window).
        self._completions: list[float] = []

    def inflight(self, now: float) -> int:
        self._completions = [c for c in self._completions if c > now]
        return len(self._completions)

    def note_completion(self, completed_at: float) -> None:
        self._completions.append(completed_at)

    def view(self, now: float) -> ShardView:
        tiles = self.server.tiles
        return ShardView(
            index=self.index,
            breaker_states=tuple(t.breaker.state for t in tiles),
            load=self.server.load(now),
            probe_ready=tuple(
                t.breaker.state is BreakerState.OPEN
                and now - t.breaker.opened_at
                >= t.breaker.policy.recovery_cycles
                for t in tiles))


@dataclass
class _DrainState:
    """Book-keeping for one in-progress drain."""

    shard: int
    started: float
    #: Earliest removal cycle (the barrier window floor).
    window_ends: float
    #: The pre-swap ring: calls whose old home was the draining shard
    #: are flagged ``migrated`` while the drain is in progress.
    old_router: ConsistentHashRouter


class ReshardController:
    """Drives the shard lifecycle on the simulated clock.

    Entirely arrival-driven: :meth:`tick` runs at the top of every
    ``fabric.call`` and (a) finalizes drains whose window elapsed and
    whose pending work hit zero, (b) promotes JOINING shards whose
    warm-up elapsed, and (c) auto-evicts persistently quarantined
    shards when the policy arms it.  With the default policy and no
    explicit drain/add, every tick is a no-op, so the PR 6 replay
    bit-identity is untouched.
    """

    def __init__(self, fabric: "ServingFabric"):
        # The fabric owns its controller, so a strong back-reference
        # would be a cycle keeping a dropped fabric's shards (and their
        # devices' simulated DRAM) alive until a garbage collection.
        self._fabric = weakref.ref(fabric)
        self.policy = fabric.policy.reshard
        self._drains: dict[int, _DrainState] = {}
        self._quarantined_since: dict[int, float] = {}

    # -- queries -----------------------------------------------------------------

    @property
    def fabric(self) -> "ServingFabric":
        return self._fabric()

    @property
    def draining_shards(self) -> tuple[int, ...]:
        return tuple(self._drains)

    def old_home(self, tenant: str) -> int | None:
        """The draining shard ``tenant`` is being migrated away from,
        or ``None`` when no in-progress drain owned the tenant."""
        for drain in self._drains.values():
            if drain.old_router.route(tenant) == drain.shard:
                return drain.shard
        return None

    def warm_budget(self, shard: FabricShard, now: float) -> int:
        """The JOINING shard's ramped in-flight admission budget:
        linear from ``warmup_initial_inflight`` to
        ``warmup_target_inflight`` over ``warmup_cycles``."""
        policy = self.policy
        if shard.state is not ShardState.JOINING:
            return policy.warmup_target_inflight
        if policy.warmup_cycles <= 0:
            return policy.warmup_target_inflight
        frac = min(1.0, max(0.0, (now - shard.joined_at)
                            / policy.warmup_cycles))
        span = (policy.warmup_target_inflight
                - policy.warmup_initial_inflight)
        return policy.warmup_initial_inflight + int(frac * span)

    def _routable(self) -> list[FabricShard]:
        return [s for s in self.fabric.shards
                if s.state in ROUTABLE_STATES]

    # -- the clock ---------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance the lifecycle to cycle ``now``; see the class doc."""
        fabric = self.fabric
        for sid, drain in list(self._drains.items()):
            shard = fabric.shards[sid]
            if (now >= drain.window_ends
                    and shard.server.pending(now) == 0):
                shard.state = ShardState.REMOVED
                del self._drains[sid]
                fabric._log(now, "shard_removed", sid,
                            f"drained in {now - drain.started:.0f} cycles")
        for shard in fabric.shards:
            if (shard.state is ShardState.JOINING
                    and now - shard.joined_at >= self.policy.warmup_cycles):
                shard.state = ShardState.ACTIVE
                fabric._log(now, "warmup_complete", shard.index)
        if self.policy.auto_evict_after_cycles is None:
            return
        for shard in fabric.shards:
            if shard.state not in ROUTABLE_STATES:
                self._quarantined_since.pop(shard.index, None)
                continue
            view = shard.view(now)
            if view.effective_tier() < 2:
                self._quarantined_since.pop(shard.index, None)
                continue
            since = self._quarantined_since.setdefault(shard.index, now)
            if (now - since >= self.policy.auto_evict_after_cycles
                    and len(self._routable()) >= 2):
                fabric._log(now, "auto_evict", shard.index,
                            f"quarantined since cycle {since:.0f}")
                self.drain(shard.index, now)

    # -- transitions -------------------------------------------------------------

    def drain(self, shard_id: int, now: float) -> None:
        """Evict one shard: swap the ring (``without``), arm the drain
        barrier, and let pending work complete.  Never drops a call:
        new arrivals route (and are accounted) via the new ring, the
        draining shard finishes what it already admitted."""
        fabric = self.fabric
        try:
            shard = fabric.shards[shard_id]
        except IndexError:
            raise ValueError(f"no shard {shard_id}") from None
        if shard.state not in ROUTABLE_STATES:
            raise ValueError(f"cannot drain shard {shard_id} in state "
                             f"{shard.state.value}")
        if len(self._routable()) < 2:
            raise ValueError("cannot drain the last routable shard")
        old_router = fabric.router
        fabric.router = old_router.without(shard_id)
        fabric.ring_epoch += 1
        shard.state = ShardState.DRAINING
        shard.server.begin_drain(now)
        self._drains[shard_id] = _DrainState(
            shard=shard_id, started=now,
            window_ends=now + self.policy.drain_cycles,
            old_router=old_router)
        self._quarantined_since.pop(shard_id, None)
        fabric._log(now, "drain_start", shard_id,
                    f"pending {shard.server.pending(now)}")

    def add_shard(self, now: float) -> int:
        """Grow the fabric by one JOINING shard under load: wire every
        registered tenant (schema + handlers) onto it, add its ring
        points (``with_shard``), and ramp its admission budget over the
        warm-up window.  Returns the new shard's index."""
        fabric = self.fabric
        index = len(fabric.shards)
        shard = FabricShard(index, fabric.policy)
        shard.joined_at = now
        fabric._wire_shard(shard)
        fabric.shards.append(shard)
        fabric.router = fabric.router.with_shard(index)
        fabric.ring_epoch += 1
        if self.policy.warmup_cycles > 0:
            shard.state = ShardState.JOINING
            fabric._log(now, "shard_joined", index,
                        f"warming for {self.policy.warmup_cycles:.0f} "
                        "cycles")
        else:
            fabric._log(now, "shard_joined", index, "no warm-up")
        return index


class ServingFabric:
    """Consistent-hash-routed, budget-isolated serving over N shards,
    resharded online by :class:`ReshardController`."""

    def __init__(self, policy: FabricPolicy | None = None):
        self.policy = policy or FabricPolicy()
        self.shards = [FabricShard(i, self.policy)
                       for i in range(self.policy.shards)]
        self.router = ConsistentHashRouter(
            [s.index for s in self.shards], self.policy.router)
        self.registry = TenantRegistry()
        #: Bumped on every ring swap (shard join or evict); stamped
        #: onto each outcome as ``ring_epoch``.
        self.ring_epoch = 0
        self.controller = ReshardController(self)
        #: Structured lifecycle transitions, in simulated-clock order.
        self.reshard_events: list[ReshardEvent] = []
        #: Calls the fabric shed at the tenant budget, per tenant (also
        #: folded into each tenant's ServeStats as ``shed``).
        self.tenant_sheds: dict[str, int] = {}
        #: (tenant, primary_shard, fallback_shard) for every re-route.
        self.fallback_routes: list[tuple[str, int, int]] = []
        #: Migrated calls per tenant (drain-window re-homes).
        self.migrations: dict[str, int] = {}
        #: Calls deflected off a JOINING shard that was at its ramped
        #: warm-up budget.
        self.warmup_deflections = 0
        self._handlers: dict[str, dict[str, object]] = {}

    def _log(self, at: float, kind: str, shard: int | None,
             detail: str = "") -> None:
        self.reshard_events.append(ReshardEvent(
            at=at, kind=kind, shard=shard, epoch=self.ring_epoch,
            detail=detail))

    # -- wiring -----------------------------------------------------------------

    def add_tenant(self, tenant: str, service: ServiceDescriptor,
                   budget: TenantPolicy | None = None) -> None:
        """Register one tenant fleet-wide: its schema is pushed to every
        shard (any shard may serve it after a fallback re-route)."""
        self.registry.add(tenant, service,
                          budget or self.policy.default_budget)
        self.tenant_sheds[tenant] = 0
        self._handlers[tenant] = {}
        for shard in self.shards:
            shard.server.attach_tenant(tenant, service)

    def register(self, tenant: str, method_name: str, handler) -> None:
        """Attach one method handler for ``tenant`` on every shard."""
        self.registry.account(tenant)  # validates registration
        self._handlers[tenant][method_name] = handler
        for shard in self.shards:
            shard.server.register(method_name, handler, tenant=tenant)

    def _wire_shard(self, shard: FabricShard) -> None:
        """Replay every tenant registration onto a freshly-joined
        shard, in original registration order (deterministic)."""
        for account in self.registry:
            shard.server.attach_tenant(account.tenant, account.service)
            for method_name, handler in \
                    self._handlers[account.tenant].items():
                shard.server.register(method_name, handler,
                                      tenant=account.tenant)

    def tenant_stats(self, tenant: str) -> ServeStats:
        """The tenant's fabric-level ledger (includes budget sheds,
        which never reach a shard)."""
        return self.registry.account(tenant).stats

    @property
    def stats(self) -> ServeStats:
        """Fleet aggregate, folded from the per-tenant ledgers in
        registration order."""
        return ServeStats.fold(account.stats for account in self.registry)

    @property
    def watchdog_aborts(self) -> int:
        return sum(s.server.watchdog_aborts for s in self.shards)

    @property
    def healths(self) -> list[str]:
        """Per-shard health-state names, in shard order (the report
        shape shared with :class:`~repro.serve.parallel.
        ParallelReplayResult`)."""
        return [s.server.health.state.value for s in self.shards]

    # -- routing ----------------------------------------------------------------

    def route(self, tenant: str) -> int:
        """The tenant's primary shard (pure consistent hash over the
        current ring epoch)."""
        return self.router.route(tenant)

    def routing_table(self) -> dict[str, int]:
        return self.router.table(self.registry.tenants)

    def _fallback_for(self, primary: FabricShard,
                      now: float) -> FabricShard | None:
        """The best non-primary shard, walking the ranked candidates by
        effective health tier: a probe-ready quarantined shard (tier 1)
        is retried instead of giving up, and only when *every*
        candidate is fully quarantined with no probe ready does the
        walk return ``None`` (the double-quarantine fix)."""
        views = [s.view(now) for s in self.shards
                 if s.state in ROUTABLE_STATES
                 and s.index != primary.index]
        for index in ranked_fallbacks(views):
            view = next(v for v in views if v.index == index)
            if view.routable:
                return self.shards[index]
            break  # ranked by tier: the rest are unroutable too
        return None

    def _pick_shard(self, tenant: str, now: float) -> FabricShard:
        primary = self.shards[self.router.route(tenant)]
        # Warm-up admission: a JOINING shard takes at most its ramped
        # in-flight budget; overflow deflects to the ranked fallback so
        # the joiner's ramp bounds its tail without dropping calls.
        if primary.state is ShardState.JOINING:
            budget = self.controller.warm_budget(primary, now)
            if primary.inflight(now) >= budget:
                deflected = self._fallback_for(primary, now)
                if deflected is not None:
                    self.warmup_deflections += 1
                    self.fallback_routes.append(
                        (tenant, primary.index, deflected.index))
                    return deflected
        if primary.view(now).routable:
            return primary
        fallback = self._fallback_for(primary, now)
        if fallback is None:
            # Nowhere healthier to go: let the primary shard's own
            # machinery (host fallback, structured failure) decide.
            return primary
        self.fallback_routes.append(
            (tenant, primary.index, fallback.index))
        return fallback

    # -- the call path ----------------------------------------------------------

    def call(self, tenant: str, method_name: str, request_bytes: bytes,
             at: float = 0.0) -> CallOutcome:
        """Serve one tenant call arriving at cycle ``at``; never raises
        on overload/faults -- every terminal condition is a structured
        :class:`~repro.serve.server.CallOutcome`."""
        self.controller.tick(at)
        account = self.registry.account(tenant)
        full = account.service.full_method_name(method_name)
        if not account.admit(at):
            outcome = CallOutcome(
                status="shed", arrival=at, completed_at=at,
                error=TenantOverloaded(
                    f"tenant {tenant!r} at its in-flight budget "
                    f"({account.policy.max_inflight})",
                    method=full, tenant=tenant),
                tenant=tenant, ring_epoch=self.ring_epoch)
            self.tenant_sheds[tenant] += 1
            account.fold(outcome)
            return outcome
        migrated = self.controller.old_home(tenant) is not None
        shard = self._pick_shard(tenant, at)
        outcome = shard.server.call(method_name, request_bytes, at=at,
                                    tenant=tenant)
        outcome.shard = shard.index
        outcome.tenant = tenant
        outcome.migrated = migrated
        outcome.ring_epoch = self.ring_epoch
        if migrated:
            self.migrations[tenant] = self.migrations.get(tenant, 0) + 1
        shard.note_completion(outcome.completed_at)
        account.note_completion(outcome.completed_at)
        account.fold(outcome)
        return outcome
