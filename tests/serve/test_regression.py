"""PR 2 compatibility: the serving layer adds zero cycles when off.

With fault rate 0, breakers disabled, and no deadlines, the accelerator
cycle counts must be bit-identical to driving the PR 2 device directly
(the watchdog is a pure comparator on the fault-free path, and the
serving layer charges only what the driver reports).  The seed-era
golden numbers in tests/integration/test_cycle_regression.py pin the
absolute values; this file pins the *relative* identities.
"""

from repro.accel.driver import ProtoAccelerator
from repro.accel.watchdog import FsmWatchdog
from repro.serve import (
    AdmissionPolicy,
    BreakerPolicy,
    ServePolicy,
    ServingWorkloadSpec,
)
from repro.serve.workload import (
    build_echo_server,
    echo_schema,
    make_request_bytes,
)
import random


def _requests(count=12, seed=21):
    schema = echo_schema()
    rng = random.Random(seed)
    spec = ServingWorkloadSpec()
    return schema, [make_request_bytes(schema, rng, spec)
                    for _ in range(count)]


def test_watchdog_is_a_pure_comparator_when_not_tripped():
    """Identical cycle counts under wildly different (ample) budgets."""
    schema, payloads = _requests()
    totals = []
    for budget in (50_000.0, 10_000_000.0):
        accel = ProtoAccelerator(watchdog=FsmWatchdog(budget))
        accel.register_schema(schema)
        cycles = []
        for wire in payloads:
            result = accel.deserialize(schema["EchoRequest"], wire)
            message = accel.read_message(schema["EchoRequest"],
                                         result.dest_addr)
            addr = accel.load_object(message)
            ser = accel.serialize(schema["EchoRequest"], addr)
            cycles.append((result.stats.cycles, ser.stats.cycles))
        totals.append(cycles)
        assert accel.watchdog.aborts == 0
    assert totals[0] == totals[1]


def test_serving_layer_charges_exactly_the_driver_cycles():
    """One tile, breaker off, no deadline, no faults: per-call accel
    cycles equal a bare PR 2-style driver performing the same
    deser/ser sequence, call by call."""
    policy = ServePolicy(
        tiles=1,
        breaker=BreakerPolicy(enabled=False),
        admission=AdmissionPolicy(deadline_cycles=None),
        handler_cycles=0.0)
    schema, payloads = _requests()
    server = build_echo_server(policy, schema)

    bare = ProtoAccelerator(
        watchdog=FsmWatchdog(policy.watchdog_budget_cycles))
    bare.register_schema(schema)

    def bare_call(wire):
        result = bare.deserialize(schema["EchoRequest"], wire,
                                  auto_renew_arena=True)
        request = bare.read_message(schema["EchoRequest"],
                                    result.dest_addr)
        response = schema["EchoResponse"].new_message()
        for _ in range(request["repeats"]):
            response["texts"].append(request["text"])
        response["cookie"] = request["cookie"]
        addr = bare.load_object(response)
        ser = bare.serialize(schema["EchoResponse"], addr)
        bare.reset_arenas()
        # The serving layer charges unit cycles plus the attach-point
        # cost of each successful stage (RoCC dispatch here).
        return (result.stats.cycles + result.stats.transport_cycles
                + ser.stats.cycles + ser.stats.transport_cycles,
                ser.data)

    now = 0.0
    for wire in payloads:
        now += 10_000.0
        outcome = server.call("Repeat", wire, at=now)
        expected_cycles, expected_data = bare_call(wire)
        assert outcome.ok
        assert outcome.accel_cycles == expected_cycles
        assert outcome.cpu_cycles == 0.0
        assert outcome.response == expected_data
    stats = server.stats
    assert stats.succeeded == len(payloads)
    assert stats.shed == stats.failed == 0
    assert stats.host_fallbacks == stats.failovers == 0
    assert server.watchdog_aborts == 0
