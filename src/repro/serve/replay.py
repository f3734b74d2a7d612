"""Fleet-replay traffic generation and the offered-load fleet sweep.

The paper's efficiency claim is fleet-shaped: protoacc's cycle wins
matter because they multiply across the Section 3 distributions.  This
module replays those distributions through the serving fabric as an
open-loop arrival process with deterministic seeds:

* **Message sizes** are drawn from the digitized Figure 3 buckets
  (:data:`repro.fleet.distributions.MESSAGE_SIZE_BUCKETS`), log-uniform
  within a bucket exactly like :class:`repro.fleet.sampler.
  FleetSampler`, capped at ``max_payload_bytes`` to keep replay
  runtimes sane (the cap is recorded in the bench payload).
* **Schema mix** follows the Figure 4 field statistics: tenants are
  assigned one of three schema templates -- varint-dominated (>56% of
  fleet fields are varint-like), bytes-dominated (bytes/string carry
  >92% of message bytes), and mixed -- with weights reflecting that
  split.  Varint value *sizes* follow
  :data:`~repro.fleet.distributions.VARINT_SIZE_SHARES`.
* **Arrivals** are exponential interarrivals on the simulated cycle
  clock at a configurable offered load; the same seed always yields the
  identical call sequence (tenant, bytes, arrival cycle), which is what
  makes the shard-count bit-identity test possible
  (``tests/serve/test_fleet_replay.py``).

``workload="echo"`` swaps the fleet templates for per-tenant copies of
the serving benchmark's Echo schema -- the acceptance workload for the
1 -> 4 shard p99/throughput curves in ``BENCH_exact.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.fleet.distributions import (
    MESSAGE_SIZE_BUCKETS,
    VARINT_SIZE_SHARES,
)
from repro.fleet.sampler import _pick_bucket, _size_within
from repro.proto import parse_schema
from repro.serve.fabric import FabricPolicy, ServingFabric
from repro.serve.router import _hash64
from repro.serve.server import ResilientServer, ServePolicy
from repro.serve.tenants import TenantPolicy
from repro.serve.workload import SERVING_SCHEMA, make_echo_handler

#: Schema templates for the fleet mix.  Every template exposes the same
#: service shape (``Fleet.Ingest``) so the replay driver is uniform;
#: the *request* layouts differ per the Figure 4 field statistics.
VARINT_SCHEMA = """
    syntax = "proto2";

    message FleetRequest {
      optional uint64 cookie = 1;
      repeated uint64 ticks = 2;
      repeated uint32 ids = 3;
      optional bool flag = 4;
    }

    message FleetResponse {
      optional uint64 cookie = 1;
      optional uint32 count = 2;
    }

    service Fleet {
      rpc Ingest (FleetRequest) returns (FleetResponse);
    }
"""

BYTES_SCHEMA = """
    syntax = "proto2";

    message FleetRequest {
      optional uint64 cookie = 1;
      optional bytes payload = 2;
      optional string tag = 3;
    }

    message FleetResponse {
      optional uint64 cookie = 1;
      optional uint32 count = 2;
    }

    service Fleet {
      rpc Ingest (FleetRequest) returns (FleetResponse);
    }
"""

MIXED_SCHEMA = """
    syntax = "proto2";

    message FleetRequest {
      optional uint64 cookie = 1;
      optional string tag = 2;
      repeated int32 counts = 3;
      optional fixed64 stamp = 4;
      optional bytes blob = 5;
    }

    message FleetResponse {
      optional uint64 cookie = 1;
      optional uint32 count = 2;
    }

    service Fleet {
      rpc Ingest (FleetRequest) returns (FleetResponse);
    }
"""

FLEET_TEMPLATES: dict[str, str] = {
    "varint": VARINT_SCHEMA,
    "bytes": BYTES_SCHEMA,
    "mixed": MIXED_SCHEMA,
}

#: Tenant-count mix over the templates.  Figure 4a: varint-like fields
#: dominate field *counts*; Figure 4b: bytes-like fields dominate byte
#: *volume* -- so varint tenants are the most numerous while bytes
#: tenants move the most bytes per message.
FLEET_TEMPLATE_WEIGHTS: dict[str, float] = {
    "varint": 0.5,
    "bytes": 0.3,
    "mixed": 0.2,
}


#: The replay serving discipline: pure per-call charging
#: (``stateless_tiles`` -- TLB flush + heap rollback around every
#: attempt) so neither shard placement nor call order can change a
#: call's cycle bill.  Both the fabric and the single-node reference
#: run under it, which is what makes them bit-comparable.
REPLAY_SERVE_POLICY = ServePolicy(stateless_tiles=True)


@dataclass(frozen=True)
class FleetReplaySpec:
    """One seeded open-loop fleet replay."""

    messages: int = 1_000
    #: Mean cycles between arrivals (exponential); lower = hotter.
    interarrival_cycles: float = 2_000.0
    seed: int = 424242
    tenants: int = 4
    #: "fleet" (Section 3 schema/size mix) or "echo" (PR 3 acceptance
    #: workload, one Echo schema copy per tenant).
    workload: str = "fleet"
    #: Cap on drawn payload sizes (the Figure 3 top bucket reaches tens
    #: of KiB; replay runtime scales with it).
    max_payload_bytes: int = 2_048
    #: Echo-workload request shape.
    text_bytes: int = 64
    repeats: int = 4

    def __post_init__(self) -> None:
        if self.messages < 1:
            raise ValueError("messages must be >= 1")
        if self.interarrival_cycles <= 0:
            raise ValueError("interarrival_cycles must be positive")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.workload not in ("fleet", "echo"):
            raise ValueError(f"unknown workload {self.workload!r}")


@dataclass(frozen=True)
class ReplayCall:
    """One generated arrival, fully determined by the spec's seed."""

    at: float
    tenant: str
    method: str
    request: bytes


def tenant_plan(spec: FleetReplaySpec) -> tuple[tuple[str, str], ...]:
    """Deterministic (tenant_id, template) assignment for the spec."""
    if spec.workload == "echo":
        return tuple((f"tenant-{i}", "echo") for i in range(spec.tenants))
    rng = random.Random(_hash64(f"{spec.seed}:tenant-plan"))
    names = list(FLEET_TEMPLATE_WEIGHTS)
    weights = list(FLEET_TEMPLATE_WEIGHTS.values())
    return tuple((f"tenant-{i}", rng.choices(names, weights)[0])
                 for i in range(spec.tenants))


def _draw_size(rng: random.Random, cap: int) -> int:
    """One Figure 3 message-size draw, capped for replay runtime."""
    size = _size_within(rng, _pick_bucket(rng, MESSAGE_SIZE_BUCKETS))
    return max(1, min(size, cap))


_VARINT_SIZES = list(VARINT_SIZE_SHARES)
_VARINT_WEIGHTS = list(VARINT_SIZE_SHARES.values())


def _draw_varint(rng: random.Random, max_bytes: int = 9) -> int:
    """A value whose varint encoding is ``s`` bytes, with ``s`` drawn
    from the fleet's encoded-size histogram."""
    s = min(rng.choices(_VARINT_SIZES, _VARINT_WEIGHTS)[0], max_bytes)
    if s == 1:
        return rng.randrange(0, 1 << 7)
    return rng.randrange(1 << (7 * (s - 1)), 1 << (7 * s))


_TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "


def _fleet_request(template: str, schema, rng: random.Random,
                   size: int):
    """Fill one request message to roughly ``size`` encoded bytes,
    with the template's field mix."""
    request = schema["FleetRequest"].new_message()
    request["cookie"] = rng.getrandbits(32)
    budget = size
    if template == "varint":
        while budget > 0:
            value = _draw_varint(rng)
            field = "ticks" if rng.random() < 0.7 else "ids"
            if field == "ids":
                value &= 0xFFFFFFFF
            request[field].append(value)
            budget -= 1 + max(1, (value.bit_length() + 6) // 7)
        request["flag"] = bool(rng.getrandbits(1))
    elif template == "bytes":
        tag_bytes = min(12, budget)
        request["tag"] = "".join(rng.choice(_TEXT_ALPHABET)
                                 for _ in range(tag_bytes))
        payload = max(0, budget - tag_bytes)
        request["payload"] = rng.randbytes(payload)
    else:  # mixed
        tag_bytes = min(max(1, budget // 4), 64)
        request["tag"] = "".join(rng.choice(_TEXT_ALPHABET)
                                 for _ in range(tag_bytes))
        request["stamp"] = rng.getrandbits(64)
        budget -= tag_bytes + 9
        for _ in range(max(1, min(budget // 4, 32))):
            request["counts"].append(rng.randrange(0, 1 << 20))
            budget -= 4
        request["blob"] = rng.randbytes(max(0, budget))
    return request


def _echo_request(schema, rng: random.Random, spec: FleetReplaySpec):
    request = schema["EchoRequest"].new_message()
    request["text"] = "".join(rng.choice(_TEXT_ALPHABET)
                              for _ in range(spec.text_bytes))
    request["repeats"] = spec.repeats
    request["cookie"] = rng.getrandbits(32)
    return request


def generate_calls(spec: FleetReplaySpec) -> list[ReplayCall]:
    """The full deterministic call sequence for one replay: same seed
    => identical tenants, bytes, and arrival cycles, independent of how
    many shards will serve them."""
    plan = tenant_plan(spec)
    schemas = {template: parse_schema(proto)
               for template, proto in FLEET_TEMPLATES.items()}
    echo_schema = (parse_schema(SERVING_SCHEMA)
                   if spec.workload == "echo" else None)
    rng = random.Random(spec.seed)
    calls: list[ReplayCall] = []
    now = 0.0
    for _ in range(spec.messages):
        now += rng.expovariate(1.0 / spec.interarrival_cycles)
        tenant, template = plan[rng.randrange(len(plan))]
        if template == "echo":
            request = _echo_request(echo_schema, rng, spec)
            method = "Repeat"
        else:
            size = _draw_size(rng, spec.max_payload_bytes)
            request = _fleet_request(template, schemas[template], rng,
                                     size)
            method = "Ingest"
        calls.append(ReplayCall(at=now, tenant=tenant, method=method,
                                request=request.serialize()))
    return calls


# -- attaching tenants to a fabric or a single server ---------------------------


def _make_fleet_handler(schema, template: str):
    def ingest(request):
        response = schema["FleetResponse"].new_message()
        response["cookie"] = request["cookie"]
        if template == "varint":
            count = len(request["ticks"]) + len(request["ids"])
        elif template == "bytes":
            count = len(request["payload"] or b"")
        else:
            count = len(request["blob"] or b"")
        response["count"] = count & 0xFFFFFFFF
        return response
    return ingest


def _attach(add_tenant, register, spec: FleetReplaySpec) -> None:
    """Attach every tenant (fresh schema parse per tenant -- that *is*
    the per-tenant schema registry) and register its handler."""
    for tenant, template in tenant_plan(spec):
        if template == "echo":
            schema = parse_schema(SERVING_SCHEMA)
            add_tenant(tenant, schema.service("Echo"))
            register(tenant, "Repeat", make_echo_handler(schema))
        else:
            schema = parse_schema(FLEET_TEMPLATES[template])
            add_tenant(tenant, schema.service("Fleet"))
            register(tenant, "Ingest",
                     _make_fleet_handler(schema, template))


def build_fleet_fabric(policy: FabricPolicy, spec: FleetReplaySpec,
                       budget: TenantPolicy | None = None
                       ) -> ServingFabric:
    """A fabric with the spec's tenants attached and handlers wired."""
    fabric = ServingFabric(policy)
    _attach(lambda t, s: fabric.add_tenant(t, s, budget),
            fabric.register, spec)
    return fabric


def build_fleet_server(policy: ServePolicy | None,
                       spec: FleetReplaySpec) -> ResilientServer:
    """The single-node twin: one multi-tenant ResilientServer with the
    identical tenant set (the bit-identity reference path)."""
    server = ResilientServer(policy=policy)
    _attach(server.attach_tenant,
            lambda t, m, h: server.register(m, h, tenant=t), spec)
    return server


def replay_through_fabric(fabric: ServingFabric, calls) -> list:
    return [fabric.call(c.tenant, c.method, c.request, at=c.at)
            for c in calls]


def replay_through_server(server: ResilientServer, calls) -> list:
    return [server.call(c.method, c.request, at=c.at, tenant=c.tenant)
            for c in calls]


# -- resize replays (ISSUE 8) ---------------------------------------------------


@dataclass(frozen=True)
class ResizeEvent:
    """One scheduled resize during a replay, keyed by call index (the
    event fires on the simulated clock at that call's arrival cycle, so
    the schedule is as deterministic as the call sequence itself)."""

    #: Fire just before the call with this index is offered.
    at_call: int
    #: "add" grows the fleet by one JOINING shard; "drain" evicts.
    action: str
    #: The shard to drain (ignored for "add").
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.at_call < 0:
            raise ValueError("at_call must be >= 0")
        if self.action not in ("add", "drain"):
            raise ValueError(f"unknown resize action {self.action!r}")
        if self.action == "drain" and self.shard is None:
            raise ValueError("drain events need a shard")


@dataclass
class ResizeReport:
    """Everything a test or the bench needs about one resize replay."""

    base_shards: int
    events: tuple[ResizeEvent, ...]
    outcomes: list
    fabric: ServingFabric
    #: Tenants whose ring home differs between the pre-resize and final
    #: routing tables (the only tenants whose tails may move).
    moved_tenants: tuple[str, ...]
    unmoved_tenants: tuple[str, ...]


def accounting_identity_ok(fabric: ServingFabric) -> bool:
    """The resharding zero-drop invariant, checked per tenant:
    ``shed + expired + faulted + succeeded + migrated == offered``."""
    for account in fabric.registry:
        s = account.stats
        if (s.shed + s.expired + s.faulted + s.succeeded + s.migrated
                != s.offered):
            return False
    return True


def tenant_signature(outcomes, tenant: str) -> list[tuple]:
    """One tenant's per-call charging signature, in offered order --
    the bit-identity comparand for unmoved tenants across a resize
    (status, response bytes, accelerator cycles, CPU cycles)."""
    return [(o.status, o.response, o.accel_cycles, o.cpu_cycles)
            for o in outcomes if o.tenant == tenant]


def run_resize_replay(spec: FleetReplaySpec, base_shards: int,
                      events, serve: ServePolicy | None = None,
                      budget: TenantPolicy | None = None
                      ) -> ResizeReport:
    """Replay the spec's seeded call sequence through a fabric while a
    resize schedule fires mid-stream.  The call sequence is *identical*
    to the no-resize replay of the same spec -- only the fabric's shape
    changes -- so unmoved tenants' per-call charging can be compared
    bit-for-bit against ``replay_through_fabric`` on a static fabric
    (``tests/fleet/test_reshard_replay.py``)."""
    serve = serve or REPLAY_SERVE_POLICY
    calls = generate_calls(spec)
    fabric = build_fleet_fabric(
        FabricPolicy(shards=base_shards, serve=serve), spec, budget)
    base_table = fabric.routing_table()
    pending = sorted(events, key=lambda e: e.at_call)
    outcomes = []
    for i, call in enumerate(calls):
        while pending and pending[0].at_call <= i:
            event = pending.pop(0)
            if event.action == "add":
                fabric.add_shard(call.at)
            else:
                fabric.drain(event.shard, call.at)
        outcomes.append(fabric.call(call.tenant, call.method,
                                    call.request, at=call.at))
    final_table = fabric.routing_table()
    moved = tuple(sorted(t for t in base_table
                         if final_table[t] != base_table[t]))
    unmoved = tuple(sorted(t for t in base_table
                           if final_table[t] == base_table[t]))
    return ResizeReport(base_shards=base_shards,
                        events=tuple(sorted(events,
                                            key=lambda e: e.at_call)),
                        outcomes=outcomes, fabric=fabric,
                        moved_tenants=moved, unmoved_tenants=unmoved)


def resize_row(spec: FleetReplaySpec, report: ResizeReport,
               baseline_outcomes) -> dict:
    """One bench row comparing a resized replay against the no-resize
    replay of the identical call sequence."""
    stats = report.fabric.stats
    unmoved_identical = all(
        tenant_signature(report.outcomes, t)
        == tenant_signature(baseline_outcomes, t)
        for t in report.unmoved_tenants)
    return {
        "workload": spec.workload,
        "interarrival_cycles": spec.interarrival_cycles,
        "base_shards": report.base_shards,
        "final_shards": len([s for s in report.fabric.shards
                             if s.state.value != "removed"]),
        "events": [{"at_call": e.at_call, "action": e.action,
                    "shard": e.shard} for e in report.events],
        "ring_epoch": report.fabric.ring_epoch,
        "offered": stats.offered,
        "succeeded": stats.succeeded,
        "migrated": stats.migrated,
        "shed": stats.shed,
        "failed": stats.failed,
        "p99_cycles": stats.p99_cycles,
        "moved_tenants": list(report.moved_tenants),
        "unmoved_tenants": list(report.unmoved_tenants),
        "unmoved_bit_identical": unmoved_identical,
        "accounting_identity_ok": accounting_identity_ok(report.fabric),
        "warmup_deflections": report.fabric.warmup_deflections,
        "reshard_events": [
            {"at": e.at, "kind": e.kind, "shard": e.shard,
             "epoch": e.epoch, "detail": e.detail}
            for e in report.fabric.reshard_events],
    }


# -- the offered-load fleet sweep ----------------------------------------------


def fleet_row(shards: int, spec: FleetReplaySpec, fabric,
              outcomes) -> dict:
    """One report row: fleet aggregates for one (shards, load) run.

    ``fabric`` is a :class:`ServingFabric` or anything sharing its
    report surface (``stats``/``tenant_sheds``/``fallback_routes``/
    ``watchdog_aborts``/``healths``), notably :class:`repro.serve.
    parallel.ParallelReplayResult` -- one report path for both
    execution modes."""
    stats = fabric.stats
    makespan = max((o.completed_at for o in outcomes), default=0.0)
    delivered = stats.succeeded + stats.migrated
    throughput = (delivered / makespan * 1e6) if makespan else 0.0
    return {
        "shards": shards,
        "workload": spec.workload,
        "interarrival_cycles": spec.interarrival_cycles,
        "offered": stats.offered,
        "succeeded": stats.succeeded,
        "migrated": stats.migrated,
        "shed": stats.shed,
        "failed": stats.failed,
        "shed_rate": stats.shed_rate,
        "p50_cycles": stats.p50_cycles,
        "p99_cycles": stats.p99_cycles,
        "throughput_per_mcycle": throughput,
        "tenant_sheds": sum(fabric.tenant_sheds.values()),
        "fallback_routes": len(fabric.fallback_routes),
        "watchdog_aborts": fabric.watchdog_aborts,
        "healths": fabric.healths,
    }


def sweep_fleet(shard_counts, interarrivals, spec: FleetReplaySpec,
                serve: ServePolicy | None = None,
                budget: TenantPolicy | None = None,
                jobs: int = 1, pool=None) -> list[dict]:
    """The fleet sweep: a fresh fabric per (shard count, offered load)
    point, the *same* seeded call sequence per load point across shard
    counts (so curves are directly comparable), hottest load last.

    ``jobs > 1`` (or an explicit ``pool``) switches each point to
    host-parallel shard execution (:mod:`repro.serve.parallel`) -- one
    worker process per shard -- which charges bit-identically to the
    serial fabric, so the rows are byte-identical either way
    (``tests/fleet/test_parallel_replay.py``)."""
    serve = serve or REPLAY_SERVE_POLICY
    parallel = jobs > 1 or pool is not None
    rows = []
    for interarrival in interarrivals:
        point = replace(spec, interarrival_cycles=float(interarrival))
        calls = generate_calls(point)
        for shards in shard_counts:
            policy = FabricPolicy(shards=shards, serve=serve)
            if parallel:
                from repro.serve.parallel import run_parallel_replay
                result = run_parallel_replay(point, policy, jobs=jobs,
                                             budget=budget, pool=pool,
                                             calls=calls)
                rows.append(fleet_row(shards, point, result,
                                      result.outcomes))
            else:
                fabric = build_fleet_fabric(policy, point, budget)
                outcomes = replay_through_fabric(fabric, calls)
                rows.append(fleet_row(shards, point, fabric, outcomes))
    return rows
