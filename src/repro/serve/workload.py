"""Open-loop serving workloads and the offered-load sweep.

The serving benchmark drives a :class:`~repro.serve.server.
ResilientServer` with a seeded open-loop arrival process (exponential
interarrivals on the simulated cycle clock) against an Echo-style
service, and sweeps the offered load to show graceful degradation: as
load climbs past tile capacity the shed rate rises while the p99
latency of *admitted* calls stays bounded by the deadline
(docs/SERVING.md; the serving section of ``scripts/bench_speed.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.proto import parse_schema
from repro.serve.server import ResilientServer, ServePolicy, ServeStats

#: The serving benchmark's service: a small request fanned out into a
#: repeated-string response -- both directions exercise varints, length
#: delimiting, and UTF-8 validation on the accelerator.
SERVING_SCHEMA = """
    syntax = "proto2";

    message EchoRequest {
      optional string text = 1;
      optional int32 repeats = 2;
      optional uint64 cookie = 3;
    }

    message EchoResponse {
      repeated string texts = 1;
      optional uint64 cookie = 2;
    }

    service Echo {
      rpc Repeat (EchoRequest) returns (EchoResponse);
    }
"""


@dataclass(frozen=True)
class ServingWorkloadSpec:
    """One seeded open-loop serving run."""

    calls: int = 200
    #: Mean cycles between arrivals (exponential); lower = hotter.
    interarrival_cycles: float = 5_000.0
    seed: int = 1234
    text_bytes: int = 64
    repeats: int = 4

    def __post_init__(self) -> None:
        if self.calls < 1:
            raise ValueError("calls must be >= 1")
        if self.interarrival_cycles <= 0:
            raise ValueError("interarrival_cycles must be positive")


def echo_schema():
    return parse_schema(SERVING_SCHEMA)


def make_echo_handler(schema):
    """The Echo service's ``Repeat`` handler, building ``schema``'s
    ``EchoResponse``."""
    def repeat(request):
        response = schema["EchoResponse"].new_message()
        for _ in range(request["repeats"]):
            response["texts"].append(request["text"])
        response["cookie"] = request["cookie"]
        return response
    return repeat


def build_echo_server(policy: ServePolicy | None = None,
                      schema=None) -> ResilientServer:
    """A ready-to-serve Echo server over ``policy``'s tile pool."""
    schema = schema or echo_schema()
    server = ResilientServer(schema.service("Echo"), policy)
    server.register("Repeat", make_echo_handler(schema))
    return server


def make_request_bytes(schema, rng: random.Random,
                       spec: ServingWorkloadSpec) -> bytes:
    request = schema["EchoRequest"].new_message()
    request["text"] = "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz ")
        for _ in range(spec.text_bytes))
    request["repeats"] = spec.repeats
    request["cookie"] = rng.getrandbits(32)
    return request.serialize()


def run_serving(spec: ServingWorkloadSpec,
                policy: ServePolicy | None = None,
                server: ResilientServer | None = None) -> ServeStats:
    """Drive one open-loop run; returns the server's aggregate stats."""
    schema = echo_schema()
    if server is None:
        server = build_echo_server(policy, schema)
    rng = random.Random(spec.seed)
    now = 0.0
    for _ in range(spec.calls):
        now += rng.expovariate(1.0 / spec.interarrival_cycles)
        payload = make_request_bytes(schema, rng, spec)
        server.call("Repeat", payload, at=now)
    return server.stats


def sweep_offered_load(interarrivals, spec: ServingWorkloadSpec,
                       policy: ServePolicy | None = None) -> list[dict]:
    """One fresh server per offered-load point; returns report rows."""
    rows = []
    for interarrival in interarrivals:
        point = replace(spec, interarrival_cycles=float(interarrival))
        server = build_echo_server(policy)
        stats = run_serving(point, server=server)
        rows.append({
            "interarrival_cycles": float(interarrival),
            "offered": stats.offered,
            "succeeded": stats.succeeded,
            "shed": stats.shed,
            "failed": stats.failed,
            "shed_rate": stats.shed_rate,
            "p50_cycles": stats.p50_cycles,
            "p99_cycles": stats.p99_cycles,
            "host_fallbacks": stats.host_fallbacks,
            "watchdog_aborts": server.watchdog_aborts,
            "health": server.health.state.value,
        })
    return rows
