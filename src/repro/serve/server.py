"""The resilient serving layer: deadline-aware RPC over accelerator tiles.

:class:`ResilientServer` serves one :class:`~repro.proto.descriptor.
ServiceDescriptor` over a pool of accelerator tiles, composing the
mechanisms in this package around the PR 1/PR 2 driver:

1. **Admission** -- every arrival passes the bounded
   :class:`~repro.serve.queue.AdmissionQueue`; shed calls return
   :class:`~repro.serve.errors.Overloaded` having consumed *zero*
   accelerator cycles, and admitted calls carry a deadline on the
   simulated cycle clock.
2. **Offload with staged deadline gating** -- a call is request-deser,
   application handler, response-ser; each stage *starts* only while
   ``now < deadline``.  Tiles run ``RecoveryPolicy(max_retries=0,
   cpu_fallback=False)``: any injected fault surfaces here, with the
   burned cycles attached, instead of being silently retried or decoded
   on the host inside the driver.
3. **Circuit breaking** -- each tile's
   :class:`~repro.serve.breaker.CircuitBreaker` counts fault outcomes;
   tripped tiles stop receiving offloads until their half-open probe
   succeeds.  The derived :class:`~repro.serve.breaker.HealthMonitor`
   (HEALTHY/DEGRADED/BYPASSED) is surfaced per call and in reports.
4. **Failover and hedging** -- a faulted attempt fails over to another
   allowed tile while budget remains; optionally a slow primary is raced
   by a hedge attempt on a second tile, with the shared-uncore stretch
   from :meth:`~repro.soc.multitile.MultiTileModel.latency_stretch`
   applied to the concurrent attempts.
5. **Host fallback, budget-gated** -- the BOOM software library serves
   the call only when its *precomputed* cost fits the remaining
   deadline (the simulator can price work before charging it), so the
   fallback can never blow the latency bound.

**The bound** (docs/SERVING.md): with hedging disabled, every admitted
call terminates -- response, structured error, or expiry -- within
``deadline + watchdog_budget`` cycles of arrival.  Every stage starts
only while ``now < deadline``; accelerator stages are hard-capped at
the watchdog budget; ``handler_cycles <= watchdog_budget`` is enforced
at policy construction; the host fallback is fit-gated.  Hence the last
stage to start overshoots the deadline by at most one watchdog budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.accel.driver import ProtoAccelerator
from repro.accel.watchdog import DEFAULT_BUDGET_CYCLES, FsmWatchdog
from repro.faults import FaultPlan, RecoveryPolicy
from repro.proto.descriptor import ServiceDescriptor
from repro.proto.errors import AccelFault, ProtoError
from repro.proto.message import Message
from repro.proto.rpc import RpcError
from repro.serve.breaker import (
    BreakerPolicy,
    CircuitBreaker,
    HealthMonitor,
    HealthState,
)
from repro.serve.errors import DeadlineExceeded, Overloaded, ShardDraining
from repro.serve.hedging import HedgePolicy
from repro.serve.queue import AdmissionPolicy, AdmissionQueue
from repro.soc.config import SoCConfig
from repro.soc.multitile import MultiTileModel


@dataclass(frozen=True)
class ServePolicy:
    """Every knob of the serving layer, in one picklable bundle."""

    #: Accelerator tiles in the pool.
    tiles: int = 2
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    hedge: HedgePolicy = field(default_factory=HedgePolicy)
    #: Per-FSM-operation cycle cap (see repro.accel.watchdog).
    watchdog_budget_cycles: float = DEFAULT_BUDGET_CYCLES
    #: Application handler cost per call, charged between deser and ser.
    handler_cycles: float = 500.0
    #: Fault campaign; each tile runs an independently derived plan.
    fault_plan: FaultPlan | None = None
    #: Accelerator attempts per call (primary + failovers), >= 1.
    max_attempts: int = 2
    #: Allow the budget-gated BOOM software fallback.
    host_fallback: bool = True
    #: Shared-uncore contention model for concurrent hedged attempts.
    contention: MultiTileModel | None = None
    #: Pure cycle charging: wrap every accelerator attempt in a
    #: device-state window (TLB flush + heap rollback; see
    #: ProtoAccelerator.begin_pure_call) so each call's cycles are a
    #: pure function of its request bytes.  This is what lets the
    #: serving fabric promise that shard count and call order never
    #: change charging (tests/serve/test_fleet_replay.py).  Off by
    #: default: the PR 3/4 baselines keep warm-TLB semantics.
    stateless_tiles: bool = False
    #: Accelerator attach point for every tile ("rocc" or "pcie").
    #: Unit cycles are transport-independent; successful stages are
    #: additionally charged the attach-point cost
    #: (``stats.transport_cycles``), which is zero-extra work on the
    #: historical RoCC ledger and real ring/doorbell/DMA/interrupt
    #: mechanics over PCIe (docs/MODEL.md).
    transport: str = "rocc"

    def __post_init__(self) -> None:
        if self.tiles < 1:
            raise ValueError("need at least one tile")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.handler_cycles < 0:
            raise ValueError("handler_cycles must be >= 0")
        if self.watchdog_budget_cycles <= 0:
            raise ValueError("watchdog budget must be positive")
        if self.handler_cycles > self.watchdog_budget_cycles:
            # The deadline+budget bound assumes no stage outlasts one
            # watchdog budget; the handler is the only uncapped stage.
            raise ValueError("handler_cycles must not exceed the "
                             "watchdog budget (latency-bound invariant)")
        if self.transport not in ("rocc", "pcie"):
            raise ValueError(f"unknown transport {self.transport!r}; "
                             "expected 'rocc' or 'pcie'")

    def hedge_stretch(self) -> float:
        """Latency multiplier while two hedged attempts overlap."""
        if self.contention is None:
            return 1.0
        return self.contention.latency_stretch(2)


class Tile:
    """One accelerator device plus its serving-side guards."""

    def __init__(self, index: int, policy: ServePolicy):
        self.index = index
        plan = policy.fault_plan
        if plan is not None and plan.enabled():
            plan = plan.derive("serve.tile", str(index))
        else:
            plan = None
        self.accel = ProtoAccelerator(
            config=SoCConfig(transport=policy.transport),
            faults=plan,
            recovery=RecoveryPolicy(max_retries=0, cpu_fallback=False),
            watchdog=FsmWatchdog(policy.watchdog_budget_cycles))
        self.breaker = CircuitBreaker(policy.breaker)
        #: Cycle at which this tile finishes its current work.
        self.free_at = 0.0


@dataclass
class CallOutcome:
    """Everything the serving layer knows about one finished call."""

    status: str                    # "ok" | "shed" | "expired" | "failed"
    arrival: float
    completed_at: float
    accel_cycles: float = 0.0
    cpu_cycles: float = 0.0
    tile: int | None = None
    attempts: int = 0
    hedged: bool = False
    host_fallback: bool = False
    error: RpcError | None = None
    response: bytes | None = None
    health: HealthState = HealthState.HEALTHY
    #: Filled by the fabric layer: which shard served the call and on
    #: behalf of which tenant (None outside the fabric).
    shard: int | None = None
    tenant: str | None = None
    #: Filled by the fabric layer during a reshard: the call's old-ring
    #: home was a DRAINING shard and the call was served elsewhere.  A
    #: migrated success is accounted under ``ServeStats.migrated``, not
    #: ``succeeded``, so the resharding identity ``shed + failed +
    #: succeeded + migrated == offered`` closes per tenant.
    migrated: bool = False
    #: Ring epoch the fabric routed this call under (None outside the
    #: fabric); bumps on every shard join/evict ring swap.
    ring_epoch: int | None = None

    @property
    def latency_cycles(self) -> float:
        return self.completed_at - self.arrival

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ServeStats:
    """Aggregate serving counters (``shed + failed + succeeded +
    migrated == offered``; ``failed`` folds in deadline expiries, and
    ``migrated`` is only non-zero at the fabric level during a
    reshard -- a single server never migrates)."""

    offered: int = 0
    shed: int = 0
    expired: int = 0
    faulted: int = 0
    succeeded: int = 0
    #: Calls that completed OK on a shard other than their (draining)
    #: old-ring home; disjoint from ``succeeded`` by construction.
    migrated: int = 0
    failovers: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    host_fallbacks: int = 0
    accel_cycles: float = 0.0
    cpu_cycles: float = 0.0
    wasted_hedge_cycles: float = 0.0
    #: Arrival-to-termination latency of every admitted call.
    latencies: list = field(default_factory=list)

    @classmethod
    def fold(cls, ledgers) -> "ServeStats":
        """The fleet aggregate of per-tenant ledgers, summed in the order
        given (every caller passes registration order, so float sums
        associate identically across execution modes).  Covers the
        counters a tenant ledger keeps: the call outcomes, cycles and
        latencies."""
        total = cls()
        for stats in ledgers:
            total.offered += stats.offered
            total.shed += stats.shed
            total.expired += stats.expired
            total.faulted += stats.faulted
            total.succeeded += stats.succeeded
            total.migrated += stats.migrated
            total.accel_cycles += stats.accel_cycles
            total.cpu_cycles += stats.cpu_cycles
            total.latencies.extend(stats.latencies)
        return total

    @property
    def failed(self) -> int:
        return self.expired + self.faulted

    @property
    def delivered(self) -> int:
        """Calls that completed OK, wherever they ran (succeeded on
        their home shard or migrated during a drain)."""
        return self.succeeded + self.migrated

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def latency_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of admitted-call latency, in cycles."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
        return ordered[rank]

    @property
    def p50_cycles(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_cycles(self) -> float:
        return self.latency_percentile(99.0)


@dataclass
class _Attempt:
    """One accelerator attempt's outcome, on one tile."""

    end: float                     # cycle at which the attempt finished
    cycles: float                  # accelerator cycles charged
    ok: bool = False
    expired: bool = False          # a stage gate fired mid-call
    permanent: bool = False        # genuine error; retry cannot help
    data: bytes | None = None
    fault: BaseException | None = None


#: Tenant id used by the single-service constructor/call signatures, so
#: pre-fabric callers never have to name a tenant.
DEFAULT_TENANT = "default"


@dataclass
class _TenantBinding:
    """One tenant's schema registry slice on this server: its service,
    its handlers, and its private accounting."""

    tenant: str
    service: ServiceDescriptor
    handlers: dict = field(default_factory=dict)
    stats: ServeStats = field(default_factory=ServeStats)


class ResilientServer:
    """Deadline-aware, breaker-guarded RPC serving over tiles.

    One server is one *shard* of the fabric (:mod:`repro.serve.fabric`):
    it owns its admission queue, breakers, watchdogs, and tile pool, and
    serves any number of tenants, each with its own attached service
    (per-tenant schema registry) and per-tenant stats.  The single-
    service constructor keeps the pre-fabric API: ``ResilientServer(
    service, policy)`` binds ``service`` under :data:`DEFAULT_TENANT`.
    """

    def __init__(self, service: ServiceDescriptor | None = None,
                 policy: ServePolicy | None = None):
        self.policy = policy or ServePolicy()
        self.queue = AdmissionQueue(self.policy.admission)
        self.tiles = [Tile(i, self.policy)
                      for i in range(self.policy.tiles)]
        self.health = HealthMonitor([t.breaker for t in self.tiles])
        self.stats = ServeStats()
        self._tenants: dict[str, _TenantBinding] = {}
        self._host_cpu = None
        self._draining_since: float | None = None
        if service is not None:
            self.attach_tenant(DEFAULT_TENANT, service)

    # -- wiring -----------------------------------------------------------------

    @property
    def service(self) -> ServiceDescriptor:
        """The default tenant's service (pre-fabric single-service API)."""
        return self._binding(DEFAULT_TENANT).service

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    def _binding(self, tenant: str) -> _TenantBinding:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise RpcError(f"tenant {tenant!r} is not attached",
                           site="serve.tenant") from None

    def attach_tenant(self, tenant: str,
                      service: ServiceDescriptor) -> None:
        """Bind one tenant's service: register its message types on
        every tile and open its private stats ledger."""
        if tenant in self._tenants:
            raise ValueError(f"tenant {tenant!r} already attached")
        self._tenants[tenant] = _TenantBinding(tenant, service)
        descriptors = []
        for method in service.methods:
            for descriptor in (method.input_descriptor,
                               method.output_descriptor):
                if descriptor is not None:
                    descriptors.append(descriptor)
        for tile in self.tiles:
            tile.accel.register_types(descriptors)

    def tenant_stats(self, tenant: str) -> ServeStats:
        return self._binding(tenant).stats

    def register(self, method_name: str, handler,
                 tenant: str = DEFAULT_TENANT) -> None:
        """Attach the application function implementing one method."""
        binding = self._binding(tenant)
        binding.service.method(method_name)  # validates existence
        binding.handlers[method_name] = handler

    def _host(self):
        if self._host_cpu is None:
            from repro.cpu.boom import boom_cpu
            self._host_cpu = boom_cpu()
        return self._host_cpu

    @property
    def watchdog_aborts(self) -> int:
        return sum(t.accel.watchdog.aborts for t in self.tiles)

    def load(self, now: float) -> float:
        """Instantaneous load signal for least-loaded routing: queued
        calls plus the tiles' remaining busy cycles, normalised by the
        watchdog budget so both terms are roughly "calls outstanding"."""
        backlog = sum(max(0.0, t.free_at - now) for t in self.tiles)
        return (self.queue.depth(now)
                + backlog / self.policy.watchdog_budget_cycles)

    # -- drain barrier (refuse-new, accept-pending) ------------------------------

    @property
    def draining(self) -> bool:
        return self._draining_since is not None

    def begin_drain(self, now: float) -> None:
        """Arm the drain barrier: from cycle ``now`` on, new arrivals
        are refused with a zero-cycle :class:`~repro.serve.errors.
        ShardDraining`, while work already admitted (queued calls,
        busy tiles) runs to completion untouched.  The fabric's
        ReshardController swaps the ring *before* arming the barrier,
        so in normal operation no new call ever reaches it -- the
        barrier is the defense-in-depth guarantee that a drained shard
        can never silently absorb (and drop) traffic."""
        if self._draining_since is None:
            self._draining_since = now

    def pending(self, now: float) -> int:
        """Admitted work not yet finished at cycle ``now``: calls still
        waiting in the queue plus tiles still busy.  This is the drain
        barrier's accept-pending set; a drain completes once it hits
        zero (and the drain window has elapsed)."""
        busy = sum(1 for t in self.tiles if t.free_at > now)
        return self.queue.depth(now) + busy

    # -- the call path ----------------------------------------------------------

    def call(self, method_name: str, request_bytes: bytes,
             at: float = 0.0,
             tenant: str = DEFAULT_TENANT) -> CallOutcome:
        """Serve one call arriving at cycle ``at``; never raises -- every
        terminal condition is a structured :class:`CallOutcome`."""
        binding = self._binding(tenant)
        method = binding.service.method(method_name)
        full = binding.service.full_method_name(method_name)
        handler = binding.handlers.get(method_name)
        if handler is None:
            raise RpcError(f"method {method_name!r} is not implemented",
                           method=full, site="rpc.route")

        if self._draining_since is not None:
            return self._finish(CallOutcome(
                status="shed", arrival=at, completed_at=at,
                error=ShardDraining(
                    f"shard draining since cycle "
                    f"{self._draining_since:.0f}: refusing new work "
                    f"(accept-pending only)", method=full),
                health=self.health.state), binding)
        if not self.queue.offer(at):
            return self._finish(CallOutcome(
                status="shed", arrival=at, completed_at=at,
                error=Overloaded(
                    f"admission queue full "
                    f"(depth {self.queue.policy.max_depth})", method=full),
                health=self.health.state), binding)
        deadline = self.queue.deadline(at)
        outcome = self._serve_admitted(method, full, handler,
                                       request_bytes, at, deadline)
        return self._finish(outcome, binding)

    def _finish(self, outcome: CallOutcome,
                binding: _TenantBinding) -> CallOutcome:
        for stats in (self.stats, binding.stats):
            stats.offered += 1
            stats.accel_cycles += outcome.accel_cycles
            stats.cpu_cycles += outcome.cpu_cycles
            if outcome.status == "shed":
                stats.shed += 1
                continue
            stats.latencies.append(outcome.latency_cycles)
            if outcome.status == "ok":
                stats.succeeded += 1
            elif outcome.status == "expired":
                stats.expired += 1
            else:
                stats.faulted += 1
        return outcome

    def _serve_admitted(self, method, full: str, handler,
                        request_bytes: bytes, arrival: float,
                        deadline: float) -> CallOutcome:
        now = arrival
        attempts = 0
        tried: set[int] = set()
        last_fault: BaseException | None = None
        outcome = CallOutcome(status="failed", arrival=arrival,
                              completed_at=arrival)

        while attempts < self.policy.max_attempts and now < deadline:
            tile = self._pick_tile(now, tried)
            if tile is None:
                break
            begin = max(now, tile.free_at)
            if attempts == 0:
                self.queue.note_start(begin)
            if begin >= deadline:
                # The call would still be queued at its deadline: it
                # expires in the queue, zero accelerator cycles spent.
                outcome.completed_at = deadline
                outcome.status = "expired"
                outcome.error = DeadlineExceeded(
                    f"expired after {deadline - arrival:.0f} cycles "
                    f"waiting for a tile", method=full)
                outcome.health = self.health.state
                return outcome
            attempts += 1
            tried.add(tile.index)
            attempt = self._attempt(tile, method, full, handler,
                                    request_bytes, begin, deadline)
            tile.free_at = attempt.end
            outcome.accel_cycles += attempt.cycles
            outcome.attempts = attempts
            now = attempt.end
            self._record(tile, attempt, now)
            if attempt.ok or attempt.expired:
                if attempt.ok and attempts == 1:
                    hedged = self._maybe_hedge(
                        attempt, tile, method, full, handler,
                        request_bytes, begin, deadline, tried, outcome)
                    if hedged is not None:
                        attempt, now = hedged
                outcome.tile = tile.index
                return self._settle(outcome, attempt, full, deadline)
            if attempt.permanent:
                outcome.completed_at = now
                outcome.status = "failed"
                outcome.error = RpcError.wrap(attempt.fault, method=full)
                outcome.health = self.health.state
                return outcome
            last_fault = attempt.fault
            if attempts < self.policy.max_attempts:
                self.stats.failovers += 1

        # Accelerator service is unavailable (faults everywhere, or all
        # breakers open): fall back to the host core iff the precomputed
        # software cost fits the remaining budget.
        return self._host_serve(method, full, handler, request_bytes,
                                arrival, now, deadline, last_fault,
                                outcome)

    def _pick_tile(self, now: float, tried: set[int]):
        allowed = [t for t in self.tiles
                   if t.index not in tried and t.breaker.allow(now)]
        self.health.refresh(now)  # allow() may have opened a probe
        if not allowed:
            return None
        return min(allowed, key=lambda t: t.free_at)

    def _record(self, tile: Tile, attempt: _Attempt, now: float) -> None:
        if attempt.ok or attempt.expired:
            # The tile did its work correctly; a deadline gate firing is
            # the *call's* problem, not the hardware's.
            tile.breaker.record_success(now)
        elif not attempt.permanent:
            tile.breaker.record_failure(now)
        self.health.refresh(now)

    def _settle(self, outcome: CallOutcome, attempt: _Attempt,
                full: str, deadline: float) -> CallOutcome:
        outcome.completed_at = attempt.end
        outcome.health = self.health.state
        if attempt.ok and attempt.end <= deadline:
            outcome.status = "ok"
            outcome.response = attempt.data
        else:
            outcome.status = "expired"
            outcome.error = DeadlineExceeded(
                f"deadline passed at cycle {deadline:.0f}; call "
                f"terminated at {attempt.end:.0f}", method=full)
        return outcome

    # -- one accelerator attempt -----------------------------------------------

    def _attempt(self, tile: Tile, method, full: str, handler,
                 request_bytes: bytes, begin: float, deadline: float,
                 stretch: float = 1.0) -> _Attempt:
        """Run deser -> handler -> ser on one tile, gating each stage
        start on the deadline.  ``stretch`` models shared-uncore
        contention while a hedge race is in flight.

        With ``policy.stateless_tiles`` the attempt runs inside a
        pure-charging device window: whatever the outcome (success,
        fault, expiry), the tile's TLB and heap state at window close
        is exactly what it was at open, so charging cannot depend on
        which tile -- or which shard -- served the previous call."""
        if not self.policy.stateless_tiles:
            return self._run_attempt(tile, method, full, handler,
                                     request_bytes, begin, deadline,
                                     stretch)
        mark = tile.accel.begin_pure_call()
        try:
            return self._run_attempt(tile, method, full, handler,
                                     request_bytes, begin, deadline,
                                     stretch)
        finally:
            tile.accel.end_pure_call(mark)

    def _run_attempt(self, tile: Tile, method, full: str, handler,
                     request_bytes: bytes, begin: float, deadline: float,
                     stretch: float = 1.0) -> _Attempt:
        accel = tile.accel
        now = begin
        charged = 0.0
        try:
            result = accel.deserialize(method.input_descriptor,
                                       request_bytes,
                                       auto_renew_arena=True)
        except AccelFault as fault:
            cost = stretch * getattr(fault, "charged_cycles", fault.cycle)
            return _Attempt(end=now + cost, cycles=cost, fault=fault,
                            permanent=not fault.injected)
        except ProtoError as error:
            return _Attempt(end=now, cycles=0.0, fault=error,
                            permanent=True)
        cost = stretch * (result.stats.cycles
                          + result.stats.transport_cycles)
        now += cost
        charged += cost
        if now >= deadline:
            return _Attempt(end=now, cycles=charged, expired=True)

        request = accel.read_message(method.input_descriptor,
                                     result.dest_addr)
        response = handler(request)
        if (not isinstance(response, Message)
                or response.descriptor is not method.output_descriptor):
            return _Attempt(end=now, cycles=charged, permanent=True,
                            fault=RpcError(
                                f"handler must return {method.output_type}",
                                method=full, site="rpc.handler"))
        now += self.policy.handler_cycles
        charged += self.policy.handler_cycles
        if now >= deadline:
            return _Attempt(end=now, cycles=charged, expired=True)

        try:
            addr = accel.load_object(response)
            ser = accel.serialize(method.output_descriptor, addr)
        except AccelFault as fault:
            cost = stretch * getattr(fault, "charged_cycles", fault.cycle)
            return _Attempt(end=now + cost, cycles=charged + cost,
                            fault=fault, permanent=not fault.injected)
        cost = stretch * (ser.stats.cycles + ser.stats.transport_cycles)
        now += cost
        charged += cost
        accel.reset_arenas()  # request lifetime over; reclaim
        return _Attempt(end=now, cycles=charged, ok=True, data=ser.data)

    # -- hedging ----------------------------------------------------------------

    def _maybe_hedge(self, primary: _Attempt, primary_tile: Tile, method,
                     full: str, handler, request_bytes: bytes,
                     begin: float, deadline: float, tried: set[int],
                     outcome: CallOutcome):
        """Race a second tile against a slow (but successful) primary.

        Returns ``(winning_attempt, now)`` or ``None`` when no hedge
        fired.  Both attempts are charged; the overlap is stretched by
        the shared-uncore contention model."""
        policy = self.policy.hedge
        if not policy.should_hedge(primary.cycles):
            return None
        fire_at = begin + policy.after_cycles
        tile = self._pick_tile(fire_at, tried)
        if tile is None:
            return None
        hedge_begin = max(fire_at, tile.free_at)
        if hedge_begin >= deadline:
            return None
        self.stats.hedges += 1
        outcome.hedged = True
        tried.add(tile.index)
        stretch = self.policy.hedge_stretch()
        hedge = self._attempt(tile, method, full, handler, request_bytes,
                              hedge_begin, deadline, stretch=stretch)
        tile.free_at = hedge.end
        outcome.accel_cycles += hedge.cycles
        outcome.attempts += 1
        self._record(tile, hedge, hedge.end)
        if hedge.ok and hedge.end < primary.end:
            self.stats.hedge_wins += 1
            self.stats.wasted_hedge_cycles += primary.cycles
            outcome.tile = tile.index
            return hedge, hedge.end
        self.stats.wasted_hedge_cycles += hedge.cycles
        return primary, primary.end

    # -- host fallback ----------------------------------------------------------

    def _host_cost(self, method, handler, request_bytes: bytes):
        """Price and produce the software answer without charging yet."""
        message, dop = self._host().deserialize(method.input_descriptor,
                                                bytes(request_bytes))
        response = handler(message)
        if (not isinstance(response, Message)
                or response.descriptor is not method.output_descriptor):
            return None, None
        data, sop = self._host().serialize(response)
        return data, dop.cycles + self.policy.handler_cycles + sop.cycles

    def _host_serve(self, method, full: str, handler,
                    request_bytes: bytes, arrival: float, now: float,
                    deadline: float, last_fault, outcome: CallOutcome
                    ) -> CallOutcome:
        if self.policy.host_fallback and now < deadline:
            try:
                data, cost = self._host_cost(method, handler,
                                             request_bytes)
            except ProtoError as error:
                outcome.completed_at = now
                outcome.status = "failed"
                outcome.error = RpcError.wrap(error, method=full)
                outcome.health = self.health.state
                return outcome
            if data is not None and now + cost <= deadline:
                self.stats.host_fallbacks += 1
                outcome.completed_at = now + cost
                outcome.cpu_cycles += cost
                outcome.status = "ok"
                outcome.response = data
                outcome.host_fallback = True
                outcome.health = self.health.state
                return outcome
        outcome.completed_at = now
        outcome.health = self.health.state
        if now >= deadline:
            outcome.status = "expired"
            outcome.error = DeadlineExceeded(
                f"no recovery path fits the remaining budget "
                f"(deadline at cycle {deadline:.0f})", method=full)
        elif last_fault is not None:
            outcome.status = "failed"
            outcome.error = RpcError.wrap(last_fault, method=full)
        else:
            # Every breaker is open (pool bypassed) and the host path is
            # off or does not fit the budget.
            outcome.status = "failed"
            outcome.error = RpcError(
                "no accelerator tile available (breakers open) and no "
                "host path fits the budget", method=full,
                site="serve.breaker")
        return outcome
