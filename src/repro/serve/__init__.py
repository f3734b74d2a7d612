"""Deadline-aware resilient serving layer over the accelerator.

See docs/SERVING.md.  The layer composes, per call:

* admission control -- a bounded queue with load shedding and per-call
  deadline budgets threaded through the simulated cycle clock
  (:mod:`repro.serve.queue`);
* per-tile circuit breakers and a serving-level health state machine
  (:mod:`repro.serve.breaker`);
* an FSM watchdog bounding worst-case per-operation accelerator cycles
  (:mod:`repro.accel.watchdog`: the budget comparator is a property of
  the device; serving configures it through
  ``ServePolicy.watchdog_budget_cycles``);
* hedged retries across tiles under the shared-uncore contention model
  (:mod:`repro.serve.hedging`);
* the :class:`~repro.serve.server.ResilientServer` tying them together
  over :mod:`repro.proto.rpc` services (:mod:`repro.serve.server`).
"""

from repro.accel.watchdog import FsmWatchdog
from repro.serve.breaker import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    HealthMonitor,
    HealthState,
)
from repro.serve.errors import (
    DeadlineExceeded,
    FabricConfigError,
    Overloaded,
    ShardDraining,
    TenantOverloaded,
)
from repro.serve.fabric import (
    FabricPolicy,
    FabricShard,
    ReshardController,
    ReshardEvent,
    ReshardPolicy,
    ServingFabric,
    ShardState,
)
from repro.serve.hedging import HedgePolicy
from repro.serve.parallel import (
    ParallelReplayResult,
    ShardResult,
    ShardSpec,
    run_parallel_replay,
)
from repro.serve.queue import AdmissionPolicy, AdmissionQueue
from repro.serve.replay import (
    REPLAY_SERVE_POLICY,
    FleetReplaySpec,
    ReplayCall,
    ResizeEvent,
    ResizeReport,
    accounting_identity_ok,
    build_fleet_fabric,
    build_fleet_server,
    generate_calls,
    replay_through_fabric,
    replay_through_server,
    resize_row,
    run_resize_replay,
    sweep_fleet,
    tenant_signature,
)
from repro.serve.router import (
    ConsistentHashRouter,
    RouterPolicy,
    ShardView,
    least_loaded_fallback,
    ranked_fallbacks,
)
from repro.serve.server import (
    DEFAULT_TENANT,
    CallOutcome,
    ResilientServer,
    ServePolicy,
    ServeStats,
)
from repro.serve.tenants import (
    TenantAccount,
    TenantPolicy,
    TenantRegistry,
)
from repro.serve.workload import (
    ServingWorkloadSpec,
    build_echo_server,
    run_serving,
    sweep_offered_load,
)

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "BreakerPolicy",
    "BreakerState",
    "CallOutcome",
    "CircuitBreaker",
    "ConsistentHashRouter",
    "DEFAULT_TENANT",
    "DeadlineExceeded",
    "FabricConfigError",
    "FabricPolicy",
    "FabricShard",
    "FleetReplaySpec",
    "FsmWatchdog",
    "HealthMonitor",
    "HealthState",
    "HedgePolicy",
    "Overloaded",
    "ParallelReplayResult",
    "REPLAY_SERVE_POLICY",
    "ReplayCall",
    "ReshardController",
    "ReshardEvent",
    "ReshardPolicy",
    "ResilientServer",
    "ResizeEvent",
    "ResizeReport",
    "RouterPolicy",
    "ServePolicy",
    "ServeStats",
    "ServingFabric",
    "ServingWorkloadSpec",
    "ShardDraining",
    "ShardResult",
    "ShardSpec",
    "ShardState",
    "ShardView",
    "TenantAccount",
    "TenantOverloaded",
    "TenantPolicy",
    "TenantRegistry",
    "accounting_identity_ok",
    "build_echo_server",
    "build_fleet_fabric",
    "build_fleet_server",
    "generate_calls",
    "least_loaded_fallback",
    "ranked_fallbacks",
    "replay_through_fabric",
    "replay_through_server",
    "resize_row",
    "run_parallel_replay",
    "run_resize_replay",
    "run_serving",
    "sweep_fleet",
    "tenant_signature",
]
