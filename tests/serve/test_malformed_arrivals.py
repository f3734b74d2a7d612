"""Malformed arrivals at the serving layer: every mutated request ends
in a structured :class:`~repro.serve.server.CallOutcome`, never an
exception.

Seeded fleet calls are truncated, byte-flipped, replaced with random
bytes and emptied, then offered to a 2-shard fleet fabric.  An empty
request is valid wire (every field absent), so it is served; the other
mutations either stay valid wire or fail with an ``RpcError``.
"""

import random

import pytest

from repro.proto.rpc import RpcError
from repro.serve import (
    REPLAY_SERVE_POLICY,
    CallOutcome,
    FabricPolicy,
    FleetReplaySpec,
    accounting_identity_ok,
    build_fleet_fabric,
    generate_calls,
)

_SPEC = FleetReplaySpec(messages=50, interarrival_cycles=2_500.0,
                        seed=424242, workload="fleet")


def _truncated(data: bytes, rng: random.Random) -> bytes:
    return data[:rng.randrange(len(data))] if data else data


def _flipped(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return data
    at = rng.randrange(len(data))
    return (data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))])
            + data[at + 1:])


def _random(data: bytes, rng: random.Random) -> bytes:
    return rng.randbytes(max(1, len(data)))


def _empty(data: bytes, rng: random.Random) -> bytes:
    return b""


MUTATIONS = {"truncated": _truncated, "flipped": _flipped,
             "random": _random, "empty": _empty}


@pytest.fixture(scope="module")
def served():
    """(fabric, {mutation: [outcome per seeded call]}), the mutated
    calls offered one interarrival apart."""
    rng = random.Random(31)
    fabric = build_fleet_fabric(
        FabricPolicy(shards=2, serve=REPLAY_SERVE_POLICY), _SPEC)
    outcomes = {name: [] for name in MUTATIONS}
    at = 0.0
    for call in generate_calls(_SPEC):
        for name, mutate in MUTATIONS.items():
            at += _SPEC.interarrival_cycles
            outcomes[name].append(fabric.call(
                call.tenant, call.method, mutate(call.request, rng),
                at=at))
    return fabric, outcomes


def test_every_malformed_arrival_ends_in_an_outcome(served):
    fabric, outcomes = served
    every = [o for runs in outcomes.values() for o in runs]
    assert len(every) == len(MUTATIONS) * _SPEC.messages
    for outcome in every:
        assert isinstance(outcome, CallOutcome)
        if outcome.ok:
            assert outcome.response is not None
        else:
            assert isinstance(outcome.error, RpcError)
    assert fabric.stats.offered == len(every)
    assert accounting_identity_ok(fabric)


def test_empty_requests_are_served(served):
    _, outcomes = served
    assert all(o.ok for o in outcomes["empty"])


def test_garbage_fails_without_raising(served):
    _, outcomes = served
    failed = [o for o in outcomes["random"] if o.status == "failed"]
    assert failed
    for outcome in failed:
        assert outcome.completed_at >= outcome.arrival
        assert not outcome.host_fallback
