"""Parallel/serial equivalence of host-parallel shard execution.

ISSUE 10 acceptance, verbatim: the 1k-message replay at ``jobs=1,2,4``
yields identical per-call cycles, identical :class:`ReshardEvent` logs
(empty on both sides -- the parallel path refuses reshard-armed
fabrics), and the tenant accounting identity
``shed + failed + succeeded + migrated == offered`` per tenant.

Everything here is exact, not statistical: the replay is seeded, the
ring is hash-stable across processes, and the pure-charging serving
discipline makes each call's bill independent of execution order
across shards.
"""

import pytest

from repro.bench.fleet import charging_digest
from repro.serve import (
    REPLAY_SERVE_POLICY,
    FabricPolicy,
    FleetReplaySpec,
    TenantPolicy,
    build_fleet_fabric,
    generate_calls,
    replay_through_fabric,
    run_parallel_replay,
    sweep_fleet,
    tenant_signature,
)
from repro.serve.replay import fleet_row, tenant_plan

#: The acceptance replay: 1k messages of the Section 3 fleet mix, wide
#: enough (16 tenants) that all 4 shards carry traffic.
_SPEC = FleetReplaySpec(messages=1_000, interarrival_cycles=2_000.0,
                        tenants=16, workload="fleet")
_POLICY = FabricPolicy(shards=4, serve=REPLAY_SERVE_POLICY)


def _signature(outcomes):
    """The full per-call comparand: charging plus placement."""
    return [(o.status, o.response, o.accel_cycles, o.cpu_cycles,
             o.arrival, o.completed_at, o.shard, o.tenant, o.migrated,
             o.ring_epoch)
            for o in outcomes]


@pytest.fixture(scope="module")
def calls():
    return generate_calls(_SPEC)


@pytest.fixture(scope="module")
def serial(calls):
    fabric = build_fleet_fabric(_POLICY, _SPEC)
    outcomes = replay_through_fabric(fabric, calls)
    return fabric, outcomes


@pytest.fixture(scope="module", params=[1, 2, 4])
def parallel(request, calls):
    return run_parallel_replay(_SPEC, _POLICY, jobs=request.param,
                               calls=calls)


def test_per_call_charging_identical(serial, parallel):
    _, serial_outcomes = serial
    assert _signature(parallel.outcomes) == _signature(serial_outcomes)
    assert (charging_digest(parallel.outcomes)
            == charging_digest(serial_outcomes))


def test_no_route_deviations(parallel):
    # Fault-free replay: every call served on its ring home, so the
    # serial fabric never consulted cross-shard fallback either.
    assert parallel.route_deviations == 0
    assert parallel.fallback_routes == []


def test_reshard_event_logs_identical(serial, parallel):
    fabric, _ = serial
    # A static fabric logs no lifecycle transitions; the parallel path
    # has no reshard machinery at all, so both logs are empty.
    assert fabric.reshard_events == []
    assert all(o.ring_epoch == 0 for o in parallel.outcomes)


def test_tenant_accounting_identity(serial, parallel):
    fabric, _ = serial
    for tenant, _ in tenant_plan(_SPEC):
        stats = parallel.tenant_stats(tenant)
        assert (stats.shed + stats.failed + stats.succeeded
                + stats.migrated == stats.offered)
        serial_stats = fabric.tenant_stats(tenant)
        if stats.offered:
            assert (stats.offered, stats.shed, stats.succeeded,
                    stats.failed, stats.migrated) == (
                serial_stats.offered, serial_stats.shed,
                serial_stats.succeeded, serial_stats.failed,
                serial_stats.migrated)


def test_fleet_aggregates_identical(serial, parallel):
    fabric, serial_outcomes = serial
    want = fleet_row(4, _SPEC, fabric, serial_outcomes)
    got = fleet_row(4, _SPEC, parallel, parallel.outcomes)
    assert got == want


def test_sweep_rows_identical_across_jobs():
    spec = FleetReplaySpec(messages=200, tenants=8, workload="echo")
    serial_rows = sweep_fleet((1, 2), (1_500.0,), spec)
    parallel_rows = sweep_fleet((1, 2), (1_500.0,), spec, jobs=2)
    assert parallel_rows == serial_rows


def test_shed_path_identical_under_tight_budget():
    budget = TenantPolicy(max_inflight=2)
    hot = FleetReplaySpec(messages=400, interarrival_cycles=300.0,
                          tenants=8, workload="fleet")
    hot_calls = generate_calls(hot)
    fabric = build_fleet_fabric(_POLICY, hot, budget)
    serial_outcomes = replay_through_fabric(fabric, hot_calls)
    assert fabric.stats.shed > 0  # the budget actually bites
    result = run_parallel_replay(hot, _POLICY, jobs=2, budget=budget,
                                 calls=hot_calls)
    assert _signature(result.outcomes) == _signature(serial_outcomes)
    assert result.tenant_sheds == {
        t: n for t, n in fabric.tenant_sheds.items() if n}


def test_unmoved_tenant_signatures_match(serial, parallel):
    _, serial_outcomes = serial
    for tenant, _ in tenant_plan(_SPEC):
        assert (tenant_signature(parallel.outcomes, tenant)
                == tenant_signature(serial_outcomes, tenant))


def test_healths_cover_all_shards(parallel):
    assert len(parallel.healths) == _POLICY.shards
    assert len(parallel.busy_seconds) == _POLICY.shards
