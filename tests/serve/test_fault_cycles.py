"""A faulted serving pass leaves no exception <-> traceback <-> frame
cycles.

A fault kept past its ``except`` block (an attempt's fault, the last
fault before a host fallback, the driver's unrecovered fault) holds
its traceback, whose frames reach -- through ``f_back`` -- the frame
that keeps the fault: a cycle holding the whole call stack until a
garbage collection.  With the collector off and every collected object
saved, a faulted fabric pass must leave no frame or traceback behind.
"""

import gc
from collections import Counter
from dataclasses import replace

from repro.faults import FaultPlan
from repro.serve import (
    REPLAY_SERVE_POLICY,
    FabricPolicy,
    FleetReplaySpec,
    build_fleet_fabric,
    generate_calls,
    replay_through_fabric,
)


def test_faulted_fabric_pass_leaves_no_frame_cycles():
    spec = FleetReplaySpec(messages=120, interarrival_cycles=3_000.0,
                           seed=3, tenants=6)
    serve = replace(REPLAY_SERVE_POLICY, transport="pcie",
                    fault_plan=FaultPlan(seed=17, rate=0.05))
    calls = generate_calls(spec)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fabric = build_fleet_fabric(FabricPolicy(shards=2, serve=serve),
                                    spec)
        outcomes = replay_through_fabric(fabric, calls)
        faults = sum(tile.accel.fault_stats.faults_injected
                     for shard in fabric.shards
                     for tile in shard.server.tiles)
        assert faults > 0
        assert any(not o.ok or o.host_fallback for o in outcomes)
        del fabric, outcomes
        gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert kinds["frame"] == 0, kinds
    assert kinds["traceback"] == 0, kinds
