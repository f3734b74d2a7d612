"""End-to-end serving under fault load: accounting closes, nothing hangs.

The acceptance run: 1,000 calls at a 1% fault rate through a two-tile
server with breakers, deadlines, and the watchdog armed.  Every offered
call must reach a terminal state (``shed + failed + succeeded ==
offered``), every admitted call must respect the latency bound, and the
responses that do come back must be correct.
"""

import random

from repro.faults import FaultPlan
from repro.proto.decoder import parse_message
from repro.serve import (
    AdmissionPolicy,
    ServePolicy,
    ServingWorkloadSpec,
)
from repro.serve.errors import DeadlineExceeded, Overloaded
from repro.serve.workload import (
    build_echo_server,
    echo_schema,
    make_request_bytes,
)

_DEADLINE = 50_000.0
_BUDGET = 10_000.0


def test_thousand_calls_at_one_percent_faults():
    policy = ServePolicy(
        tiles=2,
        fault_plan=FaultPlan(seed=97, rate=0.01),
        watchdog_budget_cycles=_BUDGET,
        admission=AdmissionPolicy(max_depth=16,
                                  deadline_cycles=_DEADLINE))
    schema = echo_schema()
    server = build_echo_server(policy, schema)
    rng = random.Random(2024)
    spec = ServingWorkloadSpec(text_bytes=48, repeats=3)
    response_descriptor = schema["EchoResponse"]

    now = 0.0
    terminal = 0
    for _ in range(1000):
        now += rng.expovariate(1.0 / 2_000.0)
        payload = make_request_bytes(schema, rng, spec)
        request = parse_message(schema["EchoRequest"], payload)
        outcome = server.call("Repeat", payload, at=now)
        terminal += 1
        # Zero hung calls: every outcome is terminal and bounded.
        assert outcome.status in ("ok", "shed", "expired", "failed")
        assert outcome.latency_cycles <= _DEADLINE + _BUDGET + 1e-9
        if outcome.ok:
            response = parse_message(response_descriptor,
                                     outcome.response)
            assert list(response["texts"]) == \
                [request["text"]] * request["repeats"]
            assert response["cookie"] == request["cookie"]
        else:
            assert outcome.error is not None
            assert outcome.error.method == "/Echo/Repeat"

    stats = server.stats
    assert terminal == stats.offered == 1000
    # The books close exactly.
    assert stats.shed + stats.failed + stats.succeeded == stats.offered
    assert stats.expired + stats.faulted == stats.failed
    assert len(stats.latencies) == stats.offered - stats.shed
    # 1% faults must not sink the service.
    assert stats.succeeded >= 950
    # ... but the campaign must have actually fired somewhere.
    assert sum(t.accel.faults.injected for t in server.tiles
               if t.accel.faults is not None) > 0


def test_overload_sheds_instead_of_queueing_unboundedly():
    """Arrivals far beyond capacity: shed rate climbs, yet admitted-call
    p99 stays bounded by the deadline budget (graceful degradation)."""
    policy = ServePolicy(
        tiles=1,
        admission=AdmissionPolicy(max_depth=4,
                                  deadline_cycles=_DEADLINE))
    schema = echo_schema()
    server = build_echo_server(policy, schema)
    rng = random.Random(7)
    spec = ServingWorkloadSpec()
    now = 0.0
    for _ in range(300):
        now += 50.0  # far hotter than one tile can serve
        outcome = server.call(
            "Repeat", make_request_bytes(schema, rng, spec), at=now)
        if outcome.status == "shed":
            assert isinstance(outcome.error, Overloaded)
            assert outcome.error.site == "serve.queue"
            assert outcome.accel_cycles == 0.0
    stats = server.stats
    assert stats.shed > 0
    assert stats.p99_cycles <= _DEADLINE + _BUDGET
    assert stats.shed + stats.failed + stats.succeeded == stats.offered


def test_expired_calls_consume_no_accelerator_cycles_in_queue():
    """A call whose wait alone exceeds the deadline expires with zero
    accelerator cycles charged."""
    policy = ServePolicy(
        tiles=1,
        admission=AdmissionPolicy(max_depth=64,
                                  deadline_cycles=2_000.0))
    schema = echo_schema()
    server = build_echo_server(policy, schema)
    rng = random.Random(9)
    spec = ServingWorkloadSpec()
    expired = [
        outcome
        for _ in range(40)
        if (outcome := server.call(
            "Repeat", make_request_bytes(schema, rng, spec),
            at=0.0)).status == "expired"
    ]
    assert expired, "back-to-back arrivals must blow a 2k-cycle deadline"
    queue_expired = [o for o in expired if o.attempts == 0]
    assert queue_expired, "deep queue waits must expire before service"
    for outcome in queue_expired:
        # Expired while still queued: zero accelerator cycles spent.
        assert isinstance(outcome.error, DeadlineExceeded)
        assert outcome.accel_cycles == 0.0
        assert outcome.latency_cycles <= 2_000.0 + 1e-9
