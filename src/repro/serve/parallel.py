"""Host-parallel shard execution: ``jobs=N`` over the serving fabric.

The fabric's shards share no state by construction -- each is a full
:class:`~repro.serve.server.ResilientServer` with its own tile pool,
transport instance, and derived fault plan -- and the pure-charging
replay discipline (:data:`~repro.serve.replay.REPLAY_SERVE_POLICY`)
makes every call's cycle bill a pure function of its request bytes.
This module cashes that in: a worker *process* owns one
:class:`~repro.serve.fabric.FabricShard` end to end and replays exactly
the calls the consistent-hash ring routes to it, so a 4-shard replay
runs on 4 cores while charging stays bit-identical to the serial
fabric.

Why bit-identity holds (the determinism argument, asserted by
``tests/fleet/test_parallel_replay.py``):

* **Routing is static.** On a fabric that never reshards, tenant ->
  shard is a pure consistent hash (seeded blake2b ring, independent of
  ``PYTHONHASHSEED`` and process boundaries), so the dispatcher can
  pre-partition the replay without consulting any shard.
* **All mutable per-call state is shard- or tenant-local.** Tile
  ``free_at`` clocks, admission queues, breaker states, and the
  tenant's in-flight window all live with the shard that serves the
  tenant -- and *every* call of a tenant lands on that one shard -- so
  replaying a shard's calls in arrival order reproduces the serial
  fabric's state evolution on that shard exactly.
* **Shard construction is a pure function of the spec.**  A
  :class:`ShardSpec` carries only picklable policy/replay values; the
  worker re-derives the shard's fault plan from
  ``fault_plan.derive("fabric.shard", str(index))`` exactly like
  :class:`~repro.serve.fabric.FabricShard` and re-attaches *all*
  tenants in :func:`~repro.serve.replay.tenant_plan` order, because
  attaching a tenant registers its types with the device ADT table and
  therefore shifts device state that call charging sees.

The one serial behaviour a worker cannot reproduce is **cross-shard
fallback**: when faults quarantine a shard, the serial fabric re-routes
to the healthiest *other* shard, which does not exist inside a
single-shard worker.  The worker instead serves on the owning shard and
counts a ``route_deviation``; bit-identity is guaranteed whenever the
merged deviation count is zero (always, on a fault-free replay).
Resharding (drain/grow) is inherently cross-shard and stays on the
serial path -- :func:`run_parallel_replay` refuses fabrics whose
reshard machinery could fire.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.serve.errors import TenantOverloaded
from repro.serve.fabric import FabricPolicy, FabricShard
from repro.serve.replay import (
    FleetReplaySpec,
    ReplayCall,
    _attach,
    generate_calls,
    tenant_plan,
)
from repro.serve.router import ConsistentHashRouter
from repro.serve.server import CallOutcome, ServeStats
from repro.serve.tenants import TenantPolicy, TenantRegistry


@dataclass(frozen=True)
class ShardSpec:
    """A picklable recipe for rebuilding one shard in a worker process.

    Everything here is values, not live objects: the worker re-runs the
    same constructors the serial fabric would (fault-plan derivation by
    shard index, tenant attachment in plan order, transport built from
    ``policy.serve.transport``), so the rebuilt shard is bit-identical
    to its serial twin.
    """

    index: int
    policy: FabricPolicy
    replay: FleetReplaySpec
    budget: TenantPolicy | None = None


@dataclass
class ShardResult:
    """One worker's complete, picklable account of its shard's replay."""

    index: int
    #: ``(call_index, outcome)`` in arrival order -- merged by index.
    outcomes: list[tuple[int, CallOutcome]]
    #: Per-tenant fabric-level ledgers for tenants this shard owns.
    tenant_stats: dict[str, ServeStats]
    tenant_sheds: dict[str, int]
    watchdog_aborts: int
    health: str
    #: Calls served while the owning shard was unroutable (the serial
    #: fabric would have consulted cross-shard fallback); bit-identity
    #: to serial is guaranteed when this is zero fleet-wide.
    route_deviations: int
    #: CPU seconds this worker spent building + replaying the shard --
    #: the deterministic input to the bench's ideal-speedup figure.
    busy_seconds: float


def build_shard(spec: ShardSpec) -> tuple[FabricShard, TenantRegistry]:
    """Rebuild one shard exactly as the serial fabric constructs it.

    Every tenant is attached (not just this shard's) because
    ``attach_tenant`` registers the tenant's types with the device --
    per-call charging sees that ADT state, so the attachment sequence
    must match the serial fabric's.
    """
    shard = FabricShard(spec.index, spec.policy)
    registry = TenantRegistry()
    budget = spec.budget or spec.policy.default_budget

    def add_tenant(tenant, service):
        registry.add(tenant, service, budget)
        shard.server.attach_tenant(tenant, service)

    _attach(add_tenant,
            lambda t, m, h: shard.server.register(m, h, tenant=t),
            spec.replay)
    return shard, registry


def execute_shard(spec: ShardSpec,
                  calls: list[tuple[int, ReplayCall]]) -> ShardResult:
    """Replay one shard's slice of the call sequence, in arrival order.

    The loop mirrors :meth:`~repro.serve.fabric.ServingFabric.call`'s
    static-fabric path line for line -- front-door tenant budget, shed
    bookkeeping, shard serve, completion notes -- minus the reshard
    tick (a no-op on a static fabric) and cross-shard fallback (counted
    as ``route_deviations`` instead; see the module docstring).
    """
    started = time.process_time()
    shard, registry = build_shard(spec)
    outcomes: list[tuple[int, CallOutcome]] = []
    tenant_sheds: dict[str, int] = {}
    route_deviations = 0
    for call_index, call in calls:
        account = registry.account(call.tenant)
        full = account.service.full_method_name(call.method)
        if not account.admit(call.at):
            outcome = CallOutcome(
                status="shed", arrival=call.at, completed_at=call.at,
                error=TenantOverloaded(
                    f"tenant {call.tenant!r} at its in-flight budget "
                    f"({account.policy.max_inflight})",
                    method=full, tenant=call.tenant),
                tenant=call.tenant, ring_epoch=0)
            tenant_sheds[call.tenant] = \
                tenant_sheds.get(call.tenant, 0) + 1
            account.fold(outcome)
            outcomes.append((call_index, outcome))
            continue
        if not shard.view(call.at).routable:
            route_deviations += 1
        outcome = shard.server.call(call.method, call.request,
                                    at=call.at, tenant=call.tenant)
        outcome.shard = shard.index
        outcome.tenant = call.tenant
        outcome.migrated = False
        outcome.ring_epoch = 0
        shard.note_completion(outcome.completed_at)
        account.note_completion(outcome.completed_at)
        account.fold(outcome)
        outcomes.append((call_index, outcome))
    served = {c.tenant for _, c in calls}
    return ShardResult(
        index=spec.index,
        outcomes=outcomes,
        tenant_stats={a.tenant: a.stats for a in registry
                      if a.tenant in served},
        tenant_sheds=tenant_sheds,
        watchdog_aborts=shard.server.watchdog_aborts,
        health=shard.server.health.state.value,
        route_deviations=route_deviations,
        busy_seconds=time.process_time() - started)


def _worker_entry(payload: tuple) -> ShardResult:
    spec, calls = payload
    return execute_shard(spec, calls)


def warm_fleet_worker() -> None:
    """Extra pool warm-up for fleet workers: pre-parse the replay
    schema templates so a worker's first shard build measures the
    shard, not the parser."""
    from repro.proto import parse_schema
    from repro.serve.replay import FLEET_TEMPLATES
    from repro.serve.workload import SERVING_SCHEMA
    for proto in FLEET_TEMPLATES.values():
        parse_schema(proto)
    parse_schema(SERVING_SCHEMA)


@dataclass
class ParallelReplayResult:
    """The merged fleet view of one host-parallel replay.

    Duck-types the slice of :class:`~repro.serve.fabric.ServingFabric`
    that :func:`~repro.serve.replay.fleet_row` reads (``stats``,
    ``tenant_sheds``, ``fallback_routes``, ``watchdog_aborts``,
    ``healths``), so one report path serves both execution modes.
    """

    #: Merged by call index: identical order to the serial replay.
    outcomes: list[CallOutcome]
    shard_results: list[ShardResult]
    #: Tenant -> owning shard, from the pre-partition ring walk, in
    #: :func:`~repro.serve.replay.tenant_plan` (registration) order.
    routing: dict[str, int]
    jobs: int
    #: Fabric width; shards the ring sent no calls to spawn no worker
    #: (they report a fresh-server "healthy" and zero busy seconds).
    shards: int = 0

    #: Matches ServingFabric's attributes for fleet_row.
    fallback_routes: list = field(default_factory=list)

    @property
    def stats(self) -> ServeStats:
        """Fleet aggregate, folded in tenant-plan order (``routing``'s
        order): the serial registry's registration order, so float sums
        associate exactly like :attr:`ServingFabric.stats`.  A tenant no
        call reached has an all-zero ledger, which the fold may skip."""
        by_tenant: dict[str, ServeStats] = {}
        for result in self.shard_results:
            by_tenant.update(result.tenant_stats)
        return ServeStats.fold(by_tenant[tenant] for tenant in self.routing
                               if tenant in by_tenant)

    @property
    def tenant_sheds(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for result in self.shard_results:
            merged.update(result.tenant_sheds)
        return merged

    @property
    def watchdog_aborts(self) -> int:
        return sum(r.watchdog_aborts for r in self.shard_results)

    def _per_shard(self, name: str, idle) -> list:
        """Each shard's ``name`` result field in shard order; ``idle``
        for a shard the ring sent no calls."""
        by_index = {r.index: r for r in self.shard_results}
        width = max([self.shards, *(i + 1 for i in by_index)])
        return [getattr(by_index[i], name) if i in by_index else idle
                for i in range(width)]

    @property
    def healths(self) -> list[str]:
        return self._per_shard("health", "healthy")

    @property
    def route_deviations(self) -> int:
        return sum(r.route_deviations for r in self.shard_results)

    @property
    def busy_seconds(self) -> list[float]:
        """Per-shard worker CPU seconds, in shard order."""
        return self._per_shard("busy_seconds", 0.0)

    def tenant_stats(self, tenant: str) -> ServeStats:
        for result in self.shard_results:
            if tenant in result.tenant_stats:
                return result.tenant_stats[tenant]
        return ServeStats()


def partition_calls(spec: FleetReplaySpec, policy: FabricPolicy,
                    calls: list[ReplayCall]
                    ) -> tuple[dict[str, int],
                               dict[int, list[tuple[int, ReplayCall]]]]:
    """Pre-route the replay: the same ring the serial fabric builds
    (``ConsistentHashRouter`` over shards 0..N-1) assigns every tenant
    a home shard, and each shard's slice keeps global call indices so
    the merge is a deterministic scatter-gather."""
    router = ConsistentHashRouter(list(range(policy.shards)),
                                  policy.router)
    routing = {tenant: router.route(tenant)
               for tenant, _ in tenant_plan(spec)}
    slices: dict[int, list[tuple[int, ReplayCall]]] = {
        shard: [] for shard in range(policy.shards)}
    for index, call in enumerate(calls):
        slices[routing[call.tenant]].append((index, call))
    return routing, slices


def run_parallel_replay(spec: FleetReplaySpec,
                        policy: FabricPolicy | None = None,
                        jobs: int = 1,
                        budget: TenantPolicy | None = None,
                        pool: ProcessPoolExecutor | None = None,
                        calls: list[ReplayCall] | None = None
                        ) -> ParallelReplayResult:
    """Replay ``spec`` with one worker per shard, ``jobs`` at a time.

    ``jobs=1`` runs the identical shard-partitioned path in-process (no
    pool), so the parallel code itself is exercised -- and comparable
    bit-for-bit against :func:`~repro.serve.replay.
    replay_through_fabric` -- even on one core.  Pass a ``pool`` (from
    :func:`repro.bench.pool.make_pool`) to amortise worker warm-up
    across many replays; it is not shut down here.
    """
    policy = policy or FabricPolicy()
    if policy.reshard.auto_evict_after_cycles is not None:
        raise ValueError(
            "host-parallel replay needs a static fabric: auto-evict "
            "resharding is cross-shard and must run serially")
    if calls is None:
        calls = generate_calls(spec)
    routing, slices = partition_calls(spec, policy, calls)
    tasks = [(ShardSpec(index=shard, policy=policy, replay=spec,
                        budget=budget), shard_calls)
             for shard, shard_calls in slices.items() if shard_calls]
    if jobs <= 1 and pool is None:
        results = [execute_shard(spec_, shard_calls)
                   for spec_, shard_calls in tasks]
    else:
        owned = pool is None
        if owned:
            from repro.bench.pool import make_pool
            pool = make_pool(jobs, warm=warm_fleet_worker)
        try:
            results = list(pool.map(_worker_entry, tasks))
        finally:
            if owned:
                pool.shutdown()
    merged: list[CallOutcome | None] = [None] * len(calls)
    for result in results:
        for call_index, outcome in result.outcomes:
            merged[call_index] = outcome
    if any(o is None for o in merged):
        raise RuntimeError("parallel replay lost calls in the merge")
    return ParallelReplayResult(outcomes=merged, shard_results=results,
                                routing=routing, jobs=max(1, jobs),
                                shards=policy.shards)
