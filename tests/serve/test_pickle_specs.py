"""Pickle-safety audit for host-parallel shard construction (ISSUE 10).

A worker process rebuilds a shard from a :class:`ShardSpec` -- so every
policy bundle the spec carries must survive pickling bit-identically,
derived fault-plan seeds must be stable across the process boundary,
and the structured error types riding on :class:`CallOutcome` must
round-trip with their attributes intact.  The spawn-context test is the
strongest form: a fresh interpreter (no forked state at all) rebuilds a
shard from the pickled spec and must charge every call identically.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro.faults import FaultPlan
from repro.serve import (
    REPLAY_SERVE_POLICY,
    CallOutcome,
    FabricPolicy,
    FleetReplaySpec,
    ReshardPolicy,
    RouterPolicy,
    ServePolicy,
    ShardSpec,
    TenantOverloaded,
    TenantPolicy,
)
from repro.serve.errors import DeadlineExceeded, Overloaded, ShardDraining
from repro.serve.parallel import _worker_entry, execute_shard
from repro.serve.replay import generate_calls
from repro.soc.config import SoCConfig


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("value", [
    ServePolicy(),
    ServePolicy(stateless_tiles=True, transport="pcie",
                fault_plan=FaultPlan(seed=7, rate=0.01)),
    REPLAY_SERVE_POLICY,
    FaultPlan(seed=42, rate=0.25, sites=("deser.hang",)),
    FabricPolicy(shards=4, serve=REPLAY_SERVE_POLICY, vnodes=16),
    RouterPolicy(vnodes=32, seed=9),
    TenantPolicy(max_inflight=3),
    ReshardPolicy(drain_cycles=10.0, auto_evict_after_cycles=5.0),
    FleetReplaySpec(messages=10, tenants=3, workload="echo"),
], ids=lambda v: type(v).__name__)
def test_policy_roundtrip(value):
    assert roundtrip(value) == value


def test_soc_config_roundtrip():
    config = SoCConfig(transport="pcie")
    clone = roundtrip(config)
    assert clone.transport == config.transport
    assert clone.pcie == config.pcie
    assert clone.memory == config.memory


def test_derived_seed_stable_across_pickle():
    plan = FaultPlan(seed=1234, rate=0.5)
    clone = roundtrip(plan)
    for index in range(4):
        want = plan.derive("fabric.shard", str(index))
        got = clone.derive("fabric.shard", str(index))
        assert got == want
        # Two derivation layers, like a shard deriving its tiles.
        assert (got.derive("serve.tile", "1")
                == want.derive("serve.tile", "1"))


def test_getstate_skips_validation_rerun():
    # Frozen policy dataclasses validate in __post_init__; unpickling
    # restores state directly (default __reduce_ex__), so a pickled
    # valid policy must come back equal without re-running validation
    # side effects (FabricPolicy's vnodes override must not re-apply).
    policy = FabricPolicy(shards=2, vnodes=8)
    clone = roundtrip(policy)
    assert clone.router.vnodes == 8
    assert clone == policy


@pytest.mark.parametrize("error", [
    TenantOverloaded("tenant over budget", method="Fleet.Ingest",
                     tenant="tenant-1"),
    Overloaded("queue full at depth 16", method="Echo.Repeat"),
    DeadlineExceeded("deadline passed", method="Echo.Repeat"),
    ShardDraining("shard 2 draining", method="Echo.Repeat"),
], ids=lambda e: type(e).__name__)
def test_rpc_errors_roundtrip(error):
    clone = roundtrip(error)
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    assert clone.__dict__ == error.__dict__


def test_call_outcome_roundtrip():
    outcome = CallOutcome(
        status="shed", arrival=10.0, completed_at=10.0,
        error=TenantOverloaded("over budget", method="Fleet.Ingest",
                               tenant="tenant-0"),
        tenant="tenant-0", ring_epoch=0)
    clone = roundtrip(outcome)
    assert clone.status == outcome.status
    assert clone.tenant == outcome.tenant
    assert isinstance(clone.error, TenantOverloaded)
    assert clone.error.__dict__ == outcome.error.__dict__


def _shard_task(transport: str = "rocc"):
    spec = FleetReplaySpec(messages=40, interarrival_cycles=800.0,
                           tenants=4, workload="fleet")
    serve = ServePolicy(stateless_tiles=True, transport=transport,
                        fault_plan=FaultPlan(seed=99, rate=0.02))
    policy = FabricPolicy(shards=2, serve=serve)
    shard_spec = ShardSpec(index=0, policy=policy, replay=spec)
    calls = list(enumerate(generate_calls(spec)))
    return shard_spec, calls


def _charging(result):
    return [(i, o.status, o.response, o.accel_cycles, o.cpu_cycles)
            for i, o in result.outcomes]


@pytest.mark.parametrize("transport", ["rocc", "pcie"])
def test_spawn_context_rebuild_is_bit_identical(transport):
    # The strongest pickle-safety statement: a *spawned* interpreter
    # (nothing inherited by fork) rebuilds the shard -- transport
    # included -- purely from the pickled spec and charges every call
    # exactly like the in-process build.  Exercises the derived fault
    # plan too (rate > 0), so fault streams are also process-stable.
    shard_spec, calls = _shard_task(transport)
    local = execute_shard(shard_spec, calls)
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=get_context("spawn")) as pool:
        remote = pool.submit(_worker_entry, (shard_spec, calls)).result()
    assert _charging(remote) == _charging(local)
    assert remote.tenant_sheds == local.tenant_sheds
    assert remote.watchdog_aborts == local.watchdog_aborts
    assert remote.health == local.health
