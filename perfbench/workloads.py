"""The four perfbench workloads.

Every workload has three steps:

* ``prepare(seed, smoke)`` turns the seed into the inputs, once per
  benchmark run, in the parent process.  The program receives only these
  inputs.
* ``setup(inputs)`` builds the state a user builds before working.  It
  runs in every pass, and its time is the benchmark's set-up time.
* ``run(state, tracer)`` does the workload's fixed work once (one pass)
  and checks every output.  It returns the pass's host timings, its
  modeled results (``model``: deterministic for a given seed, so every
  pass of a run must report the same dict, traced or not) and, when
  traced, the per-layer counters only the workload can read.

Host time is measured around each *operation*: one fabric call, one
bench spec, or one figure.  ``pass_s`` is a workload's nominal pass
length, child start-up included, measured on a 2-vCPU Xeon VM; it sets
how many passes a run of a given length makes.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace

clock = time.perf_counter


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def _speedup(result) -> float:
    return result.speedup("riscv-boom-accel")


def _results_digest(results) -> str:
    """sha256 over every system's modeled cycles and bytes."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(f"{result.workload}\0{result.operation}\0".encode())
        for system in sorted(result.results):
            r = result.results[system]
            digest.update(f"{system}\0{r.cycles!r}\0{r.wire_bytes}\0"
                          f"{r.transport_cycles!r}\1".encode())
    return digest.hexdigest()


# -- paper-figures ----------------------------------------------------------

#: The cheap figures the smoke size runs.
SMOKE_FIGURES = ("fig2", "fig5", "fig11b", "sec5.3")


class PaperFigures:
    """Every figure generator, serially, disk cache off, memo caches on:
    the reproduction run ``python -m repro.bench all --no-cache``."""

    name = "paper-figures"
    op_kind = "figure"
    pass_s = 9.5

    def prepare(self, seed: int, smoke: bool) -> dict:
        from repro.bench.figures import ALL_FIGURES
        names = [n for n in ALL_FIGURES if not smoke or n in SMOKE_FIGURES]
        return {"figures": names}

    def setup(self, inputs: dict):
        """Keep every result the Figure 11-13 generators summarise: they
        pass their rows to ``speedup_summary``, once per figure (Section
        5.1.3 passes the Figure 11 rows again)."""
        from repro.bench import figures, harness

        harness.set_options(jobs=1, disk_cache=False)
        rows = {}
        summarize = figures.speedup_summary

        def kept_speedup_summary(results):
            rows.update(((r.workload, r.operation), r) for r in results)
            return summarize(results)

        figures.speedup_summary = kept_speedup_summary
        return inputs["figures"], rows

    def run(self, state, tracer) -> dict:
        from repro.bench.figures import ALL_FIGURES
        from repro.bench.report import geomean

        names, rows = state
        texts, times, failures = [], [], []
        start = clock()
        for index, name in enumerate(names):
            if tracer is not None:
                tracer.call = index
            began = clock()
            try:
                text = ALL_FIGURES[name]()
            except Exception as error:  # reported as a failed operation
                text = ""
                failures.append(f"{name}: {error!r}")
            else:
                if not text:
                    failures.append(f"{name}: empty figure")
            times.append(clock() - began)
            texts.append(text)
        wall = clock() - start
        if tracer is not None:
            tracer.stop()  # the checks below run untraced
        return {
            "wall_s": wall,
            "op_times": times,
            "op_names": names,
            "attempted": len(names),
            "failures": failures,
            "model": {
                "figures_sha256": hashlib.sha256(
                    "\0".join(texts).encode()).hexdigest(),
                # The Figure 11-13 rows this pass printed.
                "sim_speedup_vs_boom": geomean(map(_speedup, rows.values())),
            },
        }


# -- fleet replays ----------------------------------------------------------

#: The smoke size's share of a fleet workload's work budget.
SMOKE_SHARE = 0.05
#: Each schema template's share of a fleet pass's BOOM work: its Figure 4
#: weight (the share of tenants drawing it) times its mean BOOM cost per
#: call (3,680, 1,370 and 2,030 cycles), normalised.  Measured over the
#: first 3,000 calls of seeds 1-10.
TEMPLATE_WORK_SHARES = {"varint": 0.69, "bytes": 0.155, "mixed": 0.155}
#: Calls generated per cycle of budget, first try: ``budget / 1,800``
#: calls reached every template's share for seeds 0-29 (at most 8,515
#: calls were needed of the 8,888 generated for a 16 M budget).
TYPICAL_BOOM_CYCLES_PER_CALL = 1_800
#: Less than half the mean BOOM cost of a fleet call (about 2,660
#: cycles), so a sequence of ``budget / MIN_BOOM_CYCLES_PER_CALL`` calls
#: reaches every template's share unless that template's share of the
#: tenants is under half its weight.  The second and last try.
MIN_BOOM_CYCLES_PER_CALL = 1_200


def _ingest_reference(schema, template: str, request):
    """What ``Fleet.Ingest`` answers: the request's cookie plus a count
    (repeated elements for the varint template, payload bytes for the
    bytes template, blob bytes for the mixed one)."""
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


class FleetReplay:
    """The Section 3 fleet mix (Figure 3 sizes, Figure 4 schema
    templates) replayed open-loop on the simulated clock through a
    sharded fabric, with one closed-loop caller on the host clock.

    A pass replays a fixed amount of work from the seeded call
    sequence: ``work_cycles`` of modeled BOOM software cost, split among
    the schema templates by ``TEMPLATE_WORK_SHARES``.  Each template's
    calls are taken in sequence order until its share is reached; its
    later calls are left out.  A fixed call count, or one budget for all
    calls, would not do: a seed's tenant template mix and size draws
    move the work in a pass, its host time and its modeled speed-up by
    5-10% from seed to seed."""

    op_kind = "call"

    def __init__(self, name: str, work_cycles: float, pass_s: float,
                 shards: int, interarrival_cycles: float, transport: str,
                 fault_rate: float, tenants: int = 240):
        self.name = name
        self.work_cycles = work_cycles
        self.pass_s = pass_s
        self.shards = shards
        self.interarrival_cycles = interarrival_cycles
        self.transport = transport
        self.fault_rate = fault_rate
        self.tenants = tenants

    def _spec(self, seed: int, messages: int):
        from repro.serve.replay import FleetReplaySpec
        return FleetReplaySpec(messages=messages,
                               interarrival_cycles=self.interarrival_cycles,
                               seed=seed, tenants=self.tenants,
                               workload="fleet")

    def prepare(self, seed: int, smoke: bool) -> dict:
        """The pass's calls, and for every call the software reference
        response and its modeled BOOM cost (deserialize, handler,
        serialize)."""
        from repro.cpu.boom import boom_cpu
        from repro.proto import parse_schema
        from repro.serve.replay import (
            FLEET_TEMPLATES,
            REPLAY_SERVE_POLICY,
            generate_calls,
            tenant_plan,
        )

        budget = self.work_cycles * (SMOKE_SHARE if smoke else 1.0)
        templates = dict(tenant_plan(self._spec(seed, 1)))
        schemas = {t: parse_schema(p) for t, p in FLEET_TEMPLATES.items()}
        cpu = boom_cpu()
        handler_cycles = REPLAY_SERVE_POLICY.handler_cycles
        share = {t: budget * s for t, s in TEMPLATE_WORK_SHARES.items()}
        # A longer sequence starts with the calls of a shorter one, so
        # the second try takes the same calls as the first, and more.
        for cycles_per_call in (TYPICAL_BOOM_CYCLES_PER_CALL,
                                MIN_BOOM_CYCLES_PER_CALL):
            generated = generate_calls(
                self._spec(seed, int(budget / cycles_per_call)))
            work = dict.fromkeys(share, 0.0)
            calls, reference, boom_cycles = [], [], []
            for call in generated:
                template = templates[call.tenant]
                if work[template] >= share[template]:
                    continue
                schema = schemas[template]
                request, deser = cpu.deserialize(schema["FleetRequest"],
                                                 call.request)
                data, ser = cpu.serialize(
                    _ingest_reference(schema, template, request))
                calls.append(call)
                reference.append(data)
                boom_cycles.append(deser.cycles + handler_cycles
                                   + ser.cycles)
                work[template] += boom_cycles[-1]
            short = [t for t in share if work[t] < share[t]]
            if not short:
                break
        else:
            raise ValueError(f"seed {seed}: {len(generated)} calls do not "
                             f"reach the work share of template {short}")
        return {
            "seed": seed,
            "calls": [(c.at, c.tenant, c.method, c.request) for c in calls],
            "warm": self._warm_calls(calls, templates),
            "reference": reference,
            "boom_cycles": boom_cycles,
        }

    @staticmethod
    def _warm_calls(calls, templates) -> list[int]:
        """Index of the first call of each schema template."""
        first = {}
        for index, call in enumerate(calls):
            first.setdefault(templates[call.tenant], index)
        return sorted(first.values())

    def _policy(self, seed: int):
        from repro.faults import FaultPlan
        from repro.serve.fabric import FabricPolicy
        from repro.serve.replay import REPLAY_SERVE_POLICY

        plan = (FaultPlan(seed=seed, rate=self.fault_rate)
                if self.fault_rate else None)
        serve = replace(REPLAY_SERVE_POLICY, transport=self.transport,
                        fault_plan=plan)
        return FabricPolicy(shards=self.shards, serve=serve)

    def setup(self, inputs: dict):
        """Warm the kernels on a throwaway fabric, then build the fabric
        the pass measures."""
        from repro.serve.replay import build_fleet_fabric

        policy = self._policy(inputs["seed"])
        spec = self._spec(inputs["seed"], len(inputs["calls"]))
        warm = build_fleet_fabric(policy, spec)
        calls = inputs["calls"]
        for index in inputs["warm"]:
            at, tenant, method, request = calls[index]
            warm.call(tenant, method, request, at=at)
        return build_fleet_fabric(policy, spec), inputs

    def run(self, state, tracer) -> dict:
        from repro.bench.fleet import charging_digest

        fabric, inputs = state
        calls = inputs["calls"]
        outcomes, times = [], []
        start = clock()
        for index, (at, tenant, method, request) in enumerate(calls):
            if tracer is not None:
                tracer.call = index
            began = clock()
            outcomes.append(fabric.call(tenant, method, request, at=at))
            times.append(clock() - began)
        wall = clock() - start
        if tracer is not None:
            tracer.stop()  # the checks below run untraced

        failures = []
        for index, (outcome, expected) in enumerate(
                zip(outcomes, inputs["reference"])):
            if not outcome.ok:
                failures.append(f"call {index}: {outcome.status} "
                                f"({outcome.error})")
            elif outcome.response != expected:
                failures.append(f"call {index}: response differs from the "
                                "software reference")
        stats = fabric.stats
        makespan = max(o.completed_at for o in outcomes)
        charged = sum(o.accel_cycles + o.cpu_cycles for o in outcomes)
        boom = sum(cycles for cycles, o in zip(inputs["boom_cycles"],
                                               outcomes) if o.ok)
        return {
            "wall_s": wall,
            "op_times": times,
            "attempted": len(calls),
            "messages": len(calls),
            "failures": failures,
            "model": {
                "charging_digest": charging_digest(outcomes),
                "sim_latency_p50_cycles": stats.p50_cycles,
                "sim_latency_p99_cycles": stats.p99_cycles,
                "sim_calls_per_mcycle": stats.delivered / makespan * 1e6,
                "sim_shed_rate": stats.shed_rate,
                "sim_speedup_vs_boom": boom / charged,
            },
            "layer": (self._layer(fabric, outcomes)
                      if tracer is not None else {}),
        }

    @staticmethod
    def _layer(fabric, outcomes) -> dict:
        """Serve, fault and PCIe counters of the pass's fabric."""
        servers = [shard.server for shard in fabric.shards]
        accels = [tile.accel for server in servers for tile in server.tiles]
        admitted = [o for o in outcomes if o.status != "shed"]
        ok = sum(1 for o in outcomes if o.ok)
        attempts = sum(o.attempts for o in outcomes)
        layer = {
            "serve.useful_attempt_ratio": ok / attempts if attempts else 0.0,
            "serve.queue_wait_cycles_p99": percentile(
                [max(0.0, o.latency_cycles - o.accel_cycles - o.cpu_cycles)
                 for o in admitted], 99.0) if admitted else 0.0,
            "serve.failovers": sum(s.stats.failovers for s in servers),
            "serve.hedges": sum(s.stats.hedges for s in servers),
            "serve.host_fallbacks": sum(s.stats.host_fallbacks
                                        for s in servers),
            "serve.fallback_routes": len(fabric.fallback_routes),
            "serve.watchdog_aborts": fabric.watchdog_aborts,
            "faults.injected": sum(a.fault_stats.faults_injected
                                   for a in accels),
            "faults.transient_retries": sum(a.fault_stats.transient_retries
                                            for a in accels),
            "faults.cpu_fallbacks": sum(a.fault_stats.cpu_fallbacks
                                        for a in accels),
            "faults.wasted_accel_cycles": sum(
                a.fault_stats.wasted_accel_cycles for a in accels),
        }
        pcie = [a.transport.counters() for a in accels
                if a.transport.name == "pcie"]
        for metric, counter in (("doorbells", "doorbells_rung"),
                                ("interrupts", "interrupts_raised"),
                                ("dma_bytes", "dma_payload_bytes"),
                                ("windows", "windows_opened")):
            layer[f"soc.pcie.{metric}"] = sum(c[counter] for c in pcie)
        return layer


# -- schema-churn -----------------------------------------------------------

#: HyperProtoBench generator seeds of the churn pass.  Fixed rather than
#: drawn from ``--seed``: one seed's six schemas cost from 2 s to 11 s of
#: host time, so seed-drawn passes would measure the draw, and some
#: seeds (18, for one) build a bench5 message whose deserialization
#: trips the FSM watchdog's default budget.  None is 0, the published
#: Figure 12/13 inputs.  Two seeds keep a pass short enough for four
#: passes a run.
CHURN_GEN_SEEDS = (3, 8)
CHURN_BATCH = 10


class SchemaChurn:
    """HyperProtoBench bench0-5, both operations: every batch brings a
    new schema and new bytes, so memo caches and kernel code caches
    miss.  The inputs do not depend on ``--seed``."""

    name = "schema-churn"
    op_kind = "spec"
    pass_s = 4.4

    def prepare(self, seed: int, smoke: bool) -> dict:
        from repro.hyperprotobench import bench_names

        gen_seeds = CHURN_GEN_SEEDS[:1] if smoke else CHURN_GEN_SEEDS
        benches = bench_names()[:2] if smoke else bench_names()
        return {"specs": [(bench, operation, gen_seed)
                          for gen_seed in gen_seeds for bench in benches
                          for operation in ("deserialize", "serialize")]}

    def setup(self, inputs: dict):
        from repro.bench.harness import WorkloadSpec
        return [WorkloadSpec("hyper", bench, operation, CHURN_BATCH,
                             seed=gen_seed)
                for bench, operation, gen_seed in inputs["specs"]]

    def run(self, specs, tracer) -> dict:
        from repro.bench.harness import run_many
        from repro.bench.report import geomean

        results, times, failures = [], [], []
        start = clock()
        for index, spec in enumerate(specs):
            if tracer is not None:
                tracer.call = index
            began = clock()
            try:
                # verify=True checks every decoded message and every
                # serialized buffer against the software library.
                results.extend(run_many([spec], jobs=1, disk_cache=False,
                                        verify=True))
            except Exception as error:  # reported as a failed operation
                failures.append(f"{spec}: {error!r}")
            times.append(clock() - began)
        wall = clock() - start
        if tracer is not None:
            tracer.stop()  # the checks below run untraced
        return {
            "wall_s": wall,
            "op_times": times,
            "attempted": len(specs),
            "messages": len(specs) * CHURN_BATCH,
            "failures": failures,
            "model": {
                "results_sha256": _results_digest(results),
                "sim_accel_gbps_geomean": geomean(
                    r.gbps("riscv-boom-accel") for r in results),
                "sim_speedup_vs_boom": geomean(map(_speedup, results)),
            },
        }


WORKLOADS = {w.name: w for w in (
    PaperFigures(),
    FleetReplay("fleet-steady", work_cycles=16e6, pass_s=3.0,
                shards=4, interarrival_cycles=1_000.0, transport="rocc",
                fault_rate=0.0),
    FleetReplay("fleet-faults-pcie", work_cycles=8e6, pass_s=3.0,
                shards=2, interarrival_cycles=4_000.0, transport="pcie",
                fault_rate=0.01),
    SchemaChurn(),
)}
