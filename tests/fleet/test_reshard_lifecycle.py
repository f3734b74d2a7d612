"""Shard lifecycle unit tests: drain barrier, warm-up admission, the
structured event log, auto-evict, and the double-quarantine fallback
regression (ISSUE 8).
"""

import gc
import weakref

import pytest

from repro.proto import parse_schema
from repro.serve import (
    FabricConfigError,
    FabricPolicy,
    ReshardPolicy,
    ServePolicy,
    ServingFabric,
    ShardState,
)
from repro.serve.breaker import BreakerState
from repro.serve.workload import SERVING_SCHEMA

_TENANTS = tuple(f"tenant-{i}" for i in range(8))


def _echo_handler(schema):
    def repeat(request):
        response = schema["EchoResponse"].new_message()
        for _ in range(request["repeats"]):
            response["texts"].append(request["text"])
        response["cookie"] = request["cookie"]
        return response
    return repeat


def _request_bytes(schema, cookie: int = 0) -> bytes:
    request = schema["EchoRequest"].new_message()
    request["text"] = "reshard probe"
    request["repeats"] = 2
    request["cookie"] = cookie
    return request.serialize()


def _build_fabric(shards: int = 2,
                  reshard: ReshardPolicy | None = None,
                  tenants=_TENANTS) -> ServingFabric:
    policy = FabricPolicy(
        shards=shards,
        serve=ServePolicy(tiles=2, stateless_tiles=True),
        reshard=reshard or ReshardPolicy())
    fabric = ServingFabric(policy)
    for tenant in tenants:
        schema = parse_schema(SERVING_SCHEMA)
        fabric.add_tenant(tenant, schema.service("Echo"))
        fabric.register(tenant, "Repeat", _echo_handler(schema))
    return fabric


def _trip_all_tiles(shard, at: float) -> None:
    """Force every tile breaker OPEN as if it tripped at cycle ``at``."""
    for tile in shard.server.tiles:
        tile.breaker.state = BreakerState.OPEN
        tile.breaker.opened_at = at


_SCHEMA = parse_schema(SERVING_SCHEMA)


# -- policy validation -----------------------------------------------------------


def test_reshard_policy_validation():
    with pytest.raises(FabricConfigError) as exc:
        ReshardPolicy(drain_cycles=-1.0)
    assert exc.value.knob == "drain_cycles"
    with pytest.raises(FabricConfigError):
        ReshardPolicy(warmup_initial_inflight=0)
    with pytest.raises(FabricConfigError):
        ReshardPolicy(warmup_target_inflight=1,
                      warmup_initial_inflight=4)
    with pytest.raises(FabricConfigError):
        ReshardPolicy(auto_evict_after_cycles=-5.0)


# -- drain ----------------------------------------------------------------------


def test_drain_swaps_ring_and_walks_the_lifecycle():
    fabric = _build_fabric(shards=2,
                           reshard=ReshardPolicy(drain_cycles=10_000.0))
    victim = fabric.shards[1]
    fabric.controller.drain(1, now=100.0)

    assert victim.state is ShardState.DRAINING
    assert fabric.ring_epoch == 1
    assert fabric.router.shard_ids == (0,)
    assert victim.server.draining

    # New arrivals never land on the draining shard.
    for i, tenant in enumerate(_TENANTS):
        outcome = fabric.call(tenant, "Repeat",
                              _request_bytes(_SCHEMA, i), at=200.0 + i)
        assert outcome.shard == 0
        assert outcome.ring_epoch == 1

    # The drain finalizes once the window elapsed and pending hit zero.
    fabric.controller.tick(now=9_000.0)
    assert victim.state is ShardState.DRAINING
    fabric.controller.tick(now=100.0 + 10_000.0 + 1.0)
    assert victim.state is ShardState.REMOVED

    kinds = [e.kind for e in fabric.reshard_events]
    assert kinds == ["drain_start", "shard_removed"]
    start, removed = fabric.reshard_events
    assert start.shard == removed.shard == 1
    assert start.epoch == removed.epoch == 1
    assert removed.at >= start.at + 10_000.0


def test_drain_barrier_refuses_new_work_with_structured_error():
    fabric = _build_fabric(shards=2)
    fabric.controller.drain(1, now=0.0)
    # Bypassing the router hits the barrier: a zero-cycle structured
    # refusal, never a silent drop.
    outcome = fabric.shards[1].server.call(
        "Repeat", _request_bytes(_SCHEMA), at=50.0, tenant=_TENANTS[0])
    assert outcome.status == "shed"
    assert outcome.error is not None
    assert outcome.error.site == "serve.drain"
    assert outcome.accel_cycles == 0.0


def test_cannot_drain_last_routable_shard():
    fabric = _build_fabric(shards=2)
    fabric.controller.drain(1, now=0.0)
    with pytest.raises(ValueError, match="last routable"):
        fabric.controller.drain(0, now=10.0)
    with pytest.raises(ValueError, match="state"):
        fabric.controller.drain(1, now=10.0)  # already draining
    with pytest.raises(ValueError, match="no shard"):
        fabric.controller.drain(9, now=10.0)


def test_no_call_is_both_migrated_and_charged_to_the_old_shard():
    """The drain-barrier invariant: a migrated call's outcome is never
    charged against the draining shard's ledger."""
    fabric = _build_fabric(
        shards=2, reshard=ReshardPolicy(drain_cycles=500_000.0))
    drained = 1
    victims = [t for t in _TENANTS if fabric.route(t) == drained]
    assert victims, "expected at least one tenant homed on shard 1"
    fabric.controller.drain(drained, now=0.0)

    outcomes = []
    for i in range(64):
        tenant = _TENANTS[i % len(_TENANTS)]
        outcomes.append(fabric.call(tenant, "Repeat",
                                    _request_bytes(_SCHEMA, i),
                                    at=100.0 + 2_000.0 * i))

    migrated = [o for o in outcomes if o.migrated]
    assert migrated, "expected migrated calls during the drain window"
    assert {o.tenant for o in migrated} <= set(victims)
    for outcome in migrated:
        assert outcome.shard != drained
    # The draining shard's own ledger saw none of the fabric's calls.
    assert fabric.shards[drained].server.stats.offered == 0
    # Migrated successes land in the migrated bucket, not succeeded,
    # and the per-tenant identity still closes.
    for tenant in victims:
        stats = fabric.tenant_stats(tenant)
        offered = sum(1 for o in outcomes if o.tenant == tenant)
        assert stats.migrated == sum(
            1 for o in migrated if o.tenant == tenant and o.ok)
        assert (stats.shed + stats.expired + stats.faulted
                + stats.succeeded + stats.migrated == offered)


# -- join / warm-up --------------------------------------------------------------


def test_add_shard_warms_up_then_activates():
    fabric = _build_fabric(
        shards=2, reshard=ReshardPolicy(warmup_cycles=10_000.0,
                                        warmup_initial_inflight=1,
                                        warmup_target_inflight=9))
    index = fabric.controller.add_shard(now=1_000.0)
    joiner = fabric.shards[index]
    assert index == 2
    assert joiner.state is ShardState.JOINING
    assert fabric.ring_epoch == 1
    assert fabric.router.shard_ids == (0, 1, 2)

    # The admission budget ramps linearly over the warm-up window.
    budget = fabric.controller.warm_budget
    assert budget(joiner, 1_000.0) == 1
    assert budget(joiner, 6_000.0) == 5
    assert budget(joiner, 11_000.0) == 9
    assert budget(joiner, 50_000.0) == 9

    fabric.controller.tick(now=11_500.0)
    assert joiner.state is ShardState.ACTIVE
    kinds = [e.kind for e in fabric.reshard_events]
    assert kinds == ["shard_joined", "warmup_complete"]


def test_joiner_serves_remapped_tenants():
    fabric = _build_fabric(shards=2)
    before = fabric.routing_table()
    index = fabric.controller.add_shard(now=0.0)
    after = fabric.routing_table()
    remapped = [t for t in _TENANTS if after[t] != before[t]]
    assert remapped, "expected the new shard to take some tenants"
    assert all(after[t] == index for t in remapped)
    for i, tenant in enumerate(remapped):
        outcome = fabric.call(tenant, "Repeat",
                              _request_bytes(_SCHEMA, i),
                              at=100_000.0 + 5_000.0 * i)
        assert outcome.ok
        assert outcome.shard == index


def test_warmup_overflow_deflects_to_fallback():
    fabric = _build_fabric(
        shards=2, reshard=ReshardPolicy(warmup_cycles=1e9,
                                        warmup_initial_inflight=1,
                                        warmup_target_inflight=1))
    index = fabric.controller.add_shard(now=0.0)
    remapped = [t for t in _TENANTS
                if fabric.route(t) == index]
    assert remapped
    tenant = remapped[0]
    # Burst well past the budget of 1 at a single arrival cycle: the
    # joiner takes one call, the rest deflect to a warm shard.
    outcomes = [fabric.call(tenant, "Repeat", _request_bytes(_SCHEMA, i),
                            at=10.0)
                for i in range(4)]
    assert all(o.ok for o in outcomes)
    shards_used = [o.shard for o in outcomes]
    assert shards_used.count(index) == 1
    assert fabric.warmup_deflections == 3
    assert all(s != index for s in shards_used[1:])


def test_zero_warmup_join_is_immediately_active():
    fabric = _build_fabric(
        shards=2, reshard=ReshardPolicy(warmup_cycles=0.0))
    index = fabric.controller.add_shard(now=5.0)
    assert fabric.shards[index].state is ShardState.ACTIVE
    assert [e.kind for e in fabric.reshard_events] == ["shard_joined"]


# -- double-quarantine fallback regression ---------------------------------------


def test_probe_ready_shard_is_retried_not_failed():
    """Regression for the double-quarantine hole: primary freshly
    quarantined (cool-down not elapsed) AND the fallback statically
    quarantined -- but the fallback's cool-down *has* elapsed, so its
    next offload is a half-open probe.  The old one-shot fallback gave
    up and returned the primary (the call then failed or fell back to
    the host); the ranked walk now routes to the probe-ready shard."""
    fabric = _build_fabric(shards=2)
    now = 200_000.0
    tenant = _TENANTS[0]
    primary = fabric.shards[fabric.route(tenant)]
    other = fabric.shards[1 - primary.index]
    # Primary: tripped 1k cycles ago -- still inside the 50k cool-down.
    _trip_all_tiles(primary, at=now - 1_000.0)
    # Fallback: tripped 100k cycles ago -- probe-ready.
    _trip_all_tiles(other, at=now - 100_000.0)

    assert primary.view(now).effective_tier() == 2
    assert other.view(now).effective_tier() == 1

    outcome = fabric.call(tenant, "Repeat", _request_bytes(_SCHEMA),
                          at=now)
    assert outcome.shard == other.index
    assert outcome.ok
    assert not outcome.host_fallback


def test_fully_quarantined_fleet_still_serves_via_primary():
    """When *no* shard is probe-ready the walk returns the primary and
    its own machinery (host fallback) decides -- no call is dropped."""
    fabric = _build_fabric(shards=2)
    now = 10_000.0
    tenant = _TENANTS[0]
    for shard in fabric.shards:
        _trip_all_tiles(shard, at=now - 1.0)
    outcome = fabric.call(tenant, "Repeat", _request_bytes(_SCHEMA),
                          at=now)
    assert outcome.shard == fabric.route(tenant)
    assert outcome.status in ("ok", "failed")


# -- auto-evict ------------------------------------------------------------------


def test_persistently_quarantined_shard_is_auto_evicted():
    fabric = _build_fabric(
        shards=2,
        reshard=ReshardPolicy(auto_evict_after_cycles=30_000.0,
                              drain_cycles=5_000.0))
    sick = fabric.shards[1]
    _trip_all_tiles(sick, at=0.0)

    # First tick starts the quarantine clock; before the threshold the
    # shard is still in the fleet.
    fabric.controller.tick(now=100.0)
    fabric.controller.tick(now=20_000.0)
    assert sick.state is ShardState.ACTIVE

    # Keep the breakers freshly tripped so no probe window opens while
    # the quarantine clock runs past the threshold.
    _trip_all_tiles(sick, at=25_000.0)
    fabric.controller.tick(now=31_000.0)
    assert sick.state is ShardState.DRAINING
    assert fabric.ring_epoch == 1
    kinds = [e.kind for e in fabric.reshard_events]
    assert kinds == ["auto_evict", "drain_start"]

    fabric.controller.tick(now=80_000.0)
    assert sick.state is ShardState.REMOVED


def test_healthy_fleet_never_auto_evicts():
    fabric = _build_fabric(
        shards=2, reshard=ReshardPolicy(auto_evict_after_cycles=1_000.0))
    for now in (0.0, 5_000.0, 50_000.0, 500_000.0):
        fabric.controller.tick(now)
    assert all(s.state is ShardState.ACTIVE for s in fabric.shards)
    assert fabric.reshard_events == []


def test_dropped_fabric_is_freed_by_reference_counting():
    """The controller does not keep its fabric alive: a dropped fabric,
    with its shards' devices and their simulated DRAM, is freed at once,
    not at the next garbage collection -- also after a reshard."""
    gc.disable()
    try:
        fabric = _build_fabric(shards=2)
        for cookie, tenant in enumerate(_TENANTS):
            fabric.call(tenant, "Repeat", _request_bytes(_SCHEMA, cookie),
                        at=cookie * 1_000.0)
        fabric.controller.add_shard(now=10_000.0)
        memory = weakref.ref(fabric.shards[0].server.tiles[0].accel.memory)
        del fabric
        assert memory() is None
    finally:
        gc.enable()
