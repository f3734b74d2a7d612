#!/usr/bin/env python
"""Exact-gate runner: every deterministic benchmark verdict in one pass.

Runs four sections, checks each one's invariants (see the ``*_section``
docstrings), then requires the regenerated record of modeled values to
equal the committed ``BENCH_exact.json``, printing the first differing
key paths otherwise.  Wall-clock speed is gated statistically by
``perfbench/run.py``.  Usage::

    python scripts/bench_speed.py            # check; writes nothing
    python scripts/bench_speed.py --record   # rewrite, once invariants hold
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import reprlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import memo, serve                               # noqa: E402
from repro.bench import report                              # noqa: E402
from repro.bench.harness import WorkloadSpec, run_many      # noqa: E402
from repro.faults import FaultPlan                          # noqa: E402

RECORD = REPO / "BENCH_exact.json"
#: The harness and serving sections run fault-free and at 1% faults.
FAULT_PLANS = {0.0: None, 0.01: FaultPlan(seed=0, rate=0.01)}
HARNESS_MICRO_BATCH, HARNESS_HYPER_BATCH = 32, 10
#: At least 1,000 calls per point, so p99 is not one of the top samples.
SERVE_CALLS = 1_000
SERVE_INTERARRIVALS = (4_000.0, 2_000.0, 1_000.0, 500.0, 250.0)
SERVE_DEADLINE, SERVE_BUDGET = 50_000.0, 10_000.0
FLEET_MESSAGES = 1_000
FLEET_SHARD_COUNTS = (1, 2, 4)
FLEET_INTERARRIVALS = (2_000.0, 1_000.0, 500.0, 300.0)
#: The sweep runs host-parallel at ``FLEET_JOBS``; the scaling replay
#: checks every level in ``SCALING_JOBS`` against the serial fabric.
FLEET_JOBS, SCALING_JOBS = 2, (2, 4)
#: Tenants in the resize replay: wide enough that a 2 -> 3 resize
#: splits the fleet into non-empty moved AND unmoved sets.
RESIZE_TENANTS = 8
#: Scaling-row fields measured on the host clock: printed, not recorded.
HOST_FIELDS = ("cores", "wall_seconds", "speedup", "busy_seconds",
               "ideal_speedup")


def results_sha256(results) -> str:
    """sha256 over every system's cycles and wire bytes, run by run."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(f"{result.workload}\0{result.operation}\0".encode())
        for system, r in sorted(result.results.items()):
            digest.update(f"{system}\0{r.cycles!r}\0{r.wire_bytes}\0"
                          f"{r.transport_cycles!r}\1".encode())
    return digest.hexdigest()


def harness_section(errors: list[str]) -> list[dict]:
    """The Figure 11 classes twice (Section 5.1.3 reruns them, as the
    figure pipeline does) plus bench0: with every memo on, the results
    must equal a memo-free run's exactly, at each fault rate."""
    from repro.bench.figures import _FIG11, _fig11_specs
    specs = [spec for which in _FIG11
             for spec in _fig11_specs(which, HARNESS_MICRO_BATCH)] * 2
    specs += [WorkloadSpec("hyper", "bench0", op, HARNESS_HYPER_BATCH)
              for op in ("deserialize", "serialize")]
    runs = []
    for rate, plan in FAULT_PLANS.items():
        memo.clear_all()
        with memo.disabled():
            serial = run_many(specs, jobs=1, faults=plan)
        memo.clear_all()
        memoised = run_many(specs, jobs=1, faults=plan)
        for want, got in zip(serial, memoised):
            if want != got:
                errors.append(f"harness: {want.workload} {want.operation} "
                              f"diverged with memos on at fault rate {rate}")
        injected = sum(r.results["riscv-boom-accel"].faults_injected
                       for r in serial)
        print(f"{len(specs)} runs at fault rate {rate}: {injected} faults "
              "injected, memoised vs memo-free compared")
        runs.append({"fault_rate": rate, "runs": len(specs),
                     "faults_injected": injected,
                     "results_sha256": results_sha256(serial)})
    return runs


def serving_section(errors: list[str]) -> list[dict]:
    """The 2-tile offered-load sweep: at every load point and fault rate
    the p99 of admitted calls stays within deadline + watchdog budget."""
    sweeps = []
    bound = SERVE_DEADLINE + SERVE_BUDGET
    for rate, plan in FAULT_PLANS.items():
        policy = serve.ServePolicy(
            tiles=2, fault_plan=plan, watchdog_budget_cycles=SERVE_BUDGET,
            admission=serve.AdmissionPolicy(max_depth=16,
                                            deadline_cycles=SERVE_DEADLINE))
        rows = serve.sweep_offered_load(
            SERVE_INTERARRIVALS, serve.ServingWorkloadSpec(calls=SERVE_CALLS),
            policy)
        print(f"fault rate {rate}:\n{report.serving_table(rows)}")
        worst = max(row["p99_cycles"] for row in rows)
        if worst > bound:
            errors.append(f"serving: p99 {worst:.0f} exceeds the deadline "
                          f"+ watchdog bound {bound:.0f} at fault rate "
                          f"{rate}")
        sweeps.append({"fault_rate": rate, "rows": rows})
    return sweeps


def check_echo_monotone(echo_rows: list[dict], errors: list[str]) -> None:
    """At every load point, adding shards must never raise echo p99 nor
    lower its delivered throughput.  The sweep lists each load point's
    rows together, in ascending shard count."""
    for thin, wide in zip(echo_rows, echo_rows[1:]):
        load = thin["interarrival_cycles"]
        if wide["interarrival_cycles"] != load:
            continue
        for key, worse in (("p99_cycles", operator.gt),
                           ("throughput_per_mcycle", operator.lt)):
            if worse(wide[key], thin[key]):
                errors.append(f"fleet: echo {key} {thin[key]:.1f} -> "
                              f"{wide[key]:.1f} going {thin['shards']} -> "
                              f"{wide['shards']} shards at interarrival "
                              f"{load:.0f}")


def check_scaling(scaling_rows: list[dict], errors: list[str]) -> None:
    """Exact: every parallel row charges byte-identically to serial with no
    route deviations.  Host clock: the LPT model of the shard balance, and
    the measured wall speedup when cores >= jobs, must reach the floor."""
    from repro.bench.fleet import SCALING_FLOOR
    parallel = [row for row in scaling_rows if row["mode"] == "parallel"]
    for row in parallel:
        if not row["cycles_identical"]:
            errors.append(f"fleet: parallel charging diverged from serial "
                          f"at jobs={row['jobs']}")
        if row["route_deviations"]:
            errors.append(f"fleet: {row['route_deviations']} route "
                          f"deviation(s) at jobs={row['jobs']}")
    top = max(parallel, key=lambda r: r["jobs"])
    ideal, measured = top["ideal_speedup"], top["speedup"]
    if ideal < SCALING_FLOOR:
        errors.append(f"fleet: LPT-model speedup {ideal:.2f}x below the "
                      f"{SCALING_FLOOR}x floor (shard partition too skewed)")
    if top["cores"] >= top["jobs"] and measured < SCALING_FLOOR:
        errors.append(f"fleet: measured wall speedup {measured:.2f}x below "
                      f"the {SCALING_FLOOR}x floor on {top['cores']} cores")


def resize_rows(errors: list[str]) -> list[dict]:
    """Each load point replayed across a 2 -> 3 shard grow fired one third
    of the way in, against the no-resize replay of the same calls: no call
    dropped, a non-degenerate split, unmoved tenants bit-identical."""
    rows = []
    events = [serve.ResizeEvent(at_call=FLEET_MESSAGES // 3, action="add")]
    for workload in ("echo", "fleet"):
        for interarrival in FLEET_INTERARRIVALS:
            spec = serve.FleetReplaySpec(
                messages=FLEET_MESSAGES, workload=workload,
                tenants=RESIZE_TENANTS, interarrival_cycles=interarrival)
            static = serve.build_fleet_fabric(serve.FabricPolicy(
                shards=2, serve=serve.REPLAY_SERVE_POLICY), spec)
            baseline = serve.replay_through_fabric(
                static, serve.generate_calls(spec))
            replay = serve.run_resize_replay(spec, base_shards=2,
                                             events=events)
            rows.append(serve.resize_row(spec, replay, baseline))
    for row in rows:
        accounted = (row["shed"] + row["failed"] + row["succeeded"]
                     + row["migrated"])
        checks = (
            (accounted == row["offered"], f"dropped calls ({accounted} "
             f"accounted != {row['offered']} offered)"),
            (row["accounting_identity_ok"],
             "per-tenant accounting identity broken"),
            (row["moved_tenants"] and row["unmoved_tenants"],
             f"degenerate tenant split (moved={row['moved_tenants']} "
             f"unmoved={row['unmoved_tenants']})"),
            (row["unmoved_bit_identical"], "unmoved tenants' charging "
             "diverged from the no-resize replay"))
        errors.extend(f"fleet: resized {row['workload']} at interarrival "
                      f"{row['interarrival_cycles']:.0f}: {message}"
                      for ok, message in checks if not ok)
    return rows


def fleet_section(errors: list[str]) -> dict:
    """Echo and fleet sweeps over 1/2/4 shards, the host-parallel scaling
    replay and the online-resize replays (checks in the helpers above)."""
    from repro.bench.fleet import measure_scaling, scaling_spec
    from repro.bench.pool import make_pool
    from repro.serve.parallel import warm_fleet_worker
    sweeps = {}
    with make_pool(FLEET_JOBS, warm=warm_fleet_worker) as pool:
        for workload in ("echo", "fleet"):
            spec = serve.FleetReplaySpec(messages=FLEET_MESSAGES,
                                         workload=workload)
            sweeps[workload] = serve.sweep_fleet(
                FLEET_SHARD_COUNTS, FLEET_INTERARRIVALS, spec,
                jobs=FLEET_JOBS, pool=pool)
            print(report.fleet_table(sweeps[workload]))
    check_echo_monotone(sweeps["echo"], errors)
    scaling, charging = measure_scaling(
        scaling_spec(messages=FLEET_MESSAGES), jobs_list=SCALING_JOBS)
    print(report.scaling_table(scaling))
    check_scaling(scaling, errors)
    resized = resize_rows(errors)
    print(report.resize_table(resized))
    return {"charging_digest": charging,
            "echo_rows": sweeps["echo"], "fleet_rows": sweeps["fleet"],
            "resize_rows": resized,
            "scaling_rows": [{k: v for k, v in row.items()
                              if k not in HOST_FIELDS} for row in scaling]}


def transport_section(errors: list[str]) -> dict:
    """The RoCC-vs-PCIe size x batch grid: unit cycles identical across
    transports in every cell (the sweep raises otherwise) and PCIe
    per-op transport cost non-increasing in batch size."""
    from repro.bench import transport
    rows, crossovers = {}, {}
    for operation in ("deserialize", "serialize"):
        rows[operation] = transport.sweep_transports(operation=operation)
        crossovers[operation] = transport.crossover_batches(rows[operation])
        print(report.transport_table(rows[operation]))
        print(report.transport_crossover_table(crossovers[operation]))
        for v in transport.amortization_violations(rows[operation]):
            errors.append(f"transport: PCIe per-op cost rose going batch "
                          f"{v['batch_before']} -> {v['batch_after']} at size "
                          f"{v['size']} ({operation}): {v}")
    return {"rows": rows, "crossovers": crossovers}


SECTIONS = {"harness": harness_section, "serving": serving_section,
            "fleet": fleet_section, "transport": transport_section}


def record_diff(want, got, path: str = "") -> list[str]:
    """Every key path where ``got`` differs from ``want``, with both
    values; equal records give an empty list."""
    if type(want) is type(got) is dict:
        keys = list(want) + [key for key in got if key not in want]
        pairs = [(f"{path}.{key}" if path else key, want.get(key, "(absent)"),
                  got.get(key, "(absent)")) for key in keys]
    elif type(want) is type(got) is list and len(want) == len(got):
        pairs = [(f"{path}[{i}]", w, g)
                 for i, (w, g) in enumerate(zip(want, got))]
    elif type(want) is type(got) and want == got:
        return []
    else:
        return [f"{path}: {reprlib.repr(want)} -> {reprlib.repr(got)}"]
    return [diff for where, w, g in pairs for diff in record_diff(w, g, where)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the record once every invariant holds")
    args = parser.parse_args(argv)

    errors: list[str] = []
    record = {}
    for name, section in SECTIONS.items():
        print(f"=== {name} ===")
        failed = len(errors)
        record[name] = section(errors)
        for error in errors[failed:]:
            print(f"ERROR: {error}")
        print(f"{name}: {'FAILED' if len(errors) > failed else 'ok'}\n")
    if errors:
        print(f"{len(errors)} invariant(s) broken; record not compared "
              "or written")
        return 1

    text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    if args.record:
        RECORD.write_text(text, encoding="utf-8")
        print(f"every invariant holds -> {RECORD.name} written")
        return 0
    committed = RECORD.read_text(encoding="utf-8") if RECORD.exists() else "{}"
    diffs = record_diff(json.loads(committed), json.loads(text))
    if not diffs:
        print(f"every invariant holds; {RECORD.name} reproduced exactly")
        return 0
    print(f"ERROR: {RECORD.name} differs from the regenerated record in "
          f"{len(diffs)} key path(s) (committed -> regenerated):")
    print("\n".join(f"  {diff}" for diff in diffs[:20]))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
