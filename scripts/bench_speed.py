#!/usr/bin/env python
"""Measure the benchmark harness's own speed and record it.

Runs a fixed subset of the evaluation -- the four Figure 11 classes,
the Section 5.1.3 sweep, and HyperProtoBench's bench0 (both operations)
-- twice: once serial with every cache disabled (the pre-optimisation
baseline), once with the memoisation caches and requested job count
(the shipped path).  Writes wall-clock seconds, the speedup,
cache hit rates, and the job count to ``BENCH_harness.json``.

``--serve`` switches to the resilient-serving benchmark instead: an
offered-load sweep through the 2-tile deadline-gated server
(docs/SERVING.md), writing shed rate and p50/p99 latency per load point
to ``BENCH_serving.json``.

``--codegen`` switches to the codegen-tier benchmark: accelerator-only
wall-clock of the schema-specialized kernels vs the interpretive FSM on
the Figure 11 + bench0 workloads plus the per-field-type microbench,
writing the speedups to ``BENCH_codegen.json`` and failing if the
deserialization speedup drops below 2x (the shipped-default tier must
stay decisively faster).

``--fleet`` switches to the sharded-fabric fleet sweep: the seeded
fleet replay (Section 3 message-size and schema-mix distributions, plus
the echo acceptance workload) through 1, 2, and 4 fabric shards at each
offered-load point, writing shed/p99/throughput curves per shard count
to ``BENCH_fleet.json`` and failing if the echo curves are not monotone
in shard count.  ``--jobs N`` runs each sweep point host-parallel (one
worker process per shard, ``repro.serve.parallel``); the sweep also
records ``scaling_rows`` -- the 1k-message scaling replay run serially
and at jobs 2/4 -- failing unless every parallel run charges
byte-identically to serial and the LPT ideal speedup at the top jobs
level reaches 1.6x (the measured wall-clock speedup is held to the
same floor whenever the runner has at least that many usable cores).
Adding ``--resize`` also replays each load point
across an online 2 -> 3 shard resize and fails unless zero calls are
dropped (per-tenant accounting identity) and unmoved tenants' per-call
charging is bit-identical to the no-resize replay (docs/SERVING.md,
resharding section).

``--transport`` switches to the attach-point benchmark: the RoCC-vs-
PCIe sweep over message size x batch size (docs/MODEL.md, "Attach
points"), writing per-cell cycle totals and the per-size crossover
table to ``BENCH_transport.json``.  Two gates always run: protocol
cycles must be bit-identical across transports in every cell, and the
PCIe per-op transport cost must fall monotonically with batch size.

``--check-regression`` compares the optimised run's wall-clock against
the committed baseline (``BENCH_harness.json`` by default) and fails on
a >15% regression, provided the baseline was recorded with the same
smoke/jobs settings (otherwise the check is skipped with a warning).
Combined with ``--fleet`` it gates the echo p99/throughput curves against the
committed ``BENCH_fleet.json`` and requires the scaling replay's
charging digest to be byte-identical to the committed serial baseline
(whatever ``--jobs`` either run used); combined with ``--transport`` it
requires this run's RoCC cycle totals to be *bit-identical* to the
committed ``BENCH_transport.json`` on every shared cell (the cycle
model is deterministic, so the gate is exact) and fails on a >15%
wall-clock regression.

Usage::

    python scripts/bench_speed.py             # full subset
    python scripts/bench_speed.py --smoke     # small batches, CI-sized
    python scripts/bench_speed.py --jobs 4
    python scripts/bench_speed.py --serve --fault-rate 0.01
    python scripts/bench_speed.py --codegen
    python scripts/bench_speed.py --fleet
    python scripts/bench_speed.py --transport
    python scripts/bench_speed.py --check-regression
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.accel import adt, driver                         # noqa: E402
from repro.accel.perf import render_memoization_line        # noqa: E402
from repro.bench import harness                             # noqa: E402
from repro.bench.harness import WorkloadSpec, run_many      # noqa: E402
from repro.cpu import model                                 # noqa: E402
from repro.faults import FaultPlan                          # noqa: E402


def subset_specs(micro_batch: int, hyper_batch: int) -> list[WorkloadSpec]:
    """The fixed Fig-11 + bench0 measurement subset (ISSUE acceptance)."""
    from repro.bench.figures import _FIG11, _fig11_specs
    specs: list[WorkloadSpec] = []
    for which in _FIG11:
        specs.extend(_fig11_specs(which, micro_batch))
    # Section 5.1.3 re-runs the same four classes; include the repeat
    # explicitly, as the figure pipeline does.
    for which in _FIG11:
        specs.extend(_fig11_specs(which, micro_batch))
    specs.append(WorkloadSpec("hyper", "bench0", "deserialize", hyper_batch))
    specs.append(WorkloadSpec("hyper", "bench0", "serialize", hyper_batch))
    return specs


def clear_memo_caches() -> None:
    for cache in (model.DESER_CYCLE_CACHE, model.SER_CYCLE_CACHE,
                  driver.DESER_BATCH_CACHE, driver.SER_BATCH_CACHE):
        cache.clear()


def set_caches(enabled: bool) -> None:
    model.set_cycle_cache_enabled(enabled)
    driver.set_batch_cache_enabled(enabled)
    harness.set_workload_cache_enabled(enabled)
    adt.set_adt_caches_enabled(enabled)


def timed_run(specs, jobs: int, caches: bool,
              faults: FaultPlan | None = None) -> tuple[float, list]:
    clear_memo_caches()
    set_caches(caches)
    # One entry point shared with ``python -m repro.bench``: install
    # the harness options (the same ones the shared pool initializer
    # pushes into each worker) and let run_many inherit them, instead
    # of threading a parallel set of keyword arguments.
    previous = harness.get_options()
    harness.set_options(jobs=jobs, fault_plan=faults)
    try:
        start = time.perf_counter()
        results = run_many(specs)
        return time.perf_counter() - start, results
    finally:
        harness._OPTIONS = previous
        set_caches(True)


def hit_rates() -> dict[str, float]:
    return {
        "cpu_deser": model.DESER_CYCLE_CACHE.hit_rate,
        "cpu_ser": model.SER_CYCLE_CACHE.hit_rate,
        "accel_deser": driver.DESER_BATCH_CACHE.hit_rate,
        "accel_ser": driver.SER_BATCH_CACHE.hit_rate,
    }


def run_serving_bench(args: argparse.Namespace) -> int:
    """The --serve mode: offered-load sweep -> BENCH_serving.json."""
    from repro.bench.report import serving_table
    from repro.serve import (
        AdmissionPolicy,
        ServePolicy,
        ServingWorkloadSpec,
        sweep_offered_load,
    )

    deadline, budget = 50_000.0, 10_000.0
    interarrivals = ((2_000.0, 500.0) if args.smoke
                     else (4_000.0, 2_000.0, 1_000.0, 500.0, 250.0))
    calls = 100 if args.smoke else 400
    plan = (FaultPlan(seed=args.fault_seed, rate=args.fault_rate)
            if args.fault_rate > 0 else None)
    policy = ServePolicy(
        tiles=2, fault_plan=plan, watchdog_budget_cycles=budget,
        admission=AdmissionPolicy(max_depth=16, deadline_cycles=deadline))
    print(f"serving sweep: {len(interarrivals)} load points x {calls} "
          f"calls, fault rate {args.fault_rate}")
    start = time.perf_counter()
    rows = sweep_offered_load(interarrivals, ServingWorkloadSpec(calls=calls),
                              policy)
    elapsed = time.perf_counter() - start
    print(serving_table(rows))
    bound = deadline + budget
    worst_p99 = max(row["p99_cycles"] for row in rows)
    if worst_p99 > bound:
        print(f"ERROR: p99 {worst_p99:.0f} exceeds the "
              f"deadline+watchdog bound {bound:.0f}")
        return 1
    print(f"latency bound holds: worst p99 {worst_p99:.0f} <= "
          f"deadline {deadline:.0f} + watchdog budget {budget:.0f}")
    output = args.output
    if output == REPO / "BENCH_harness.json":
        output = REPO / "BENCH_serving.json"
    payload = {
        "smoke": args.smoke,
        "calls_per_point": calls,
        "fault_rate": args.fault_rate,
        "deadline_cycles": deadline,
        "watchdog_budget_cycles": budget,
        "tiles": policy.tiles,
        "wall_seconds": elapsed,
        "rows": rows,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    print(f"{elapsed:.2f} s -> {output}")
    return 0


#: Shard counts swept at every offered-load point of the --fleet mode.
FLEET_SHARD_COUNTS = (1, 2, 4)


def run_fleet_bench(args: argparse.Namespace) -> int:
    """The --fleet mode: sharded-fabric fleet sweep -> BENCH_fleet.json.

    Replays the seeded fleet distributions (message sizes, schema mix)
    and the echo acceptance workload through 1, 2, and 4 fabric shards
    at each offered-load point.  Fails if the echo scaling curves are
    not monotone (p99 falling, throughput non-decreasing as shards are
    added); with --check-regression additionally gates the echo curves
    against the committed baseline.
    """
    from repro.bench.fleet import measure_scaling, scaling_spec
    from repro.bench.pool import effective_cores, make_pool
    from repro.bench.report import fleet_table, scaling_table
    from repro.serve import FleetReplaySpec, sweep_fleet
    from repro.serve.parallel import warm_fleet_worker

    if args.smoke:
        interarrivals, messages = (1_000.0, 400.0), 150
    else:
        interarrivals, messages = (2_000.0, 1_000.0, 500.0, 300.0), 1_000
    print(f"fleet sweep: {len(interarrivals)} load points x "
          f"{len(FLEET_SHARD_COUNTS)} shard counts x {messages} messages, "
          f"workloads echo + fleet, jobs {args.jobs}")
    start = time.perf_counter()
    rows_by_workload = {}
    pool = (make_pool(args.jobs, warm=warm_fleet_worker)
            if args.jobs > 1 else None)
    try:
        for workload in ("echo", "fleet"):
            spec = FleetReplaySpec(messages=messages, workload=workload)
            rows = sweep_fleet(FLEET_SHARD_COUNTS, interarrivals, spec,
                               jobs=args.jobs, pool=pool)
            rows_by_workload[workload] = rows
            print(fleet_table(rows))
            print()
    finally:
        if pool is not None:
            pool.shutdown()
    elapsed = time.perf_counter() - start

    status = _check_fleet_scaling(rows_by_workload["echo"])

    # Host-parallel scaling rows: the same seeded replay serially and
    # with one worker process per shard, plus the serial charging
    # digest every later run is gated against byte-for-byte.
    jobs_ladder = tuple(sorted({2, 4} | ({args.jobs} if args.jobs > 1
                                         else set())))
    scaling_rows, charging = measure_scaling(
        scaling_spec(messages=messages), jobs_list=jobs_ladder)
    print(scaling_table(scaling_rows))
    print()
    status = max(status, _check_scaling_rows(args, scaling_rows))

    resize_rows = []
    if args.resize:
        resize_rows = _run_resize_replays(messages, interarrivals)
        status = max(status, _check_resize_invariants(resize_rows))
    output = args.output
    if output == REPO / "BENCH_harness.json":
        output = REPO / "BENCH_fleet.json"
    payload = {
        "smoke": args.smoke,
        "jobs": args.jobs,
        "cores": effective_cores(),
        "messages_per_point": messages,
        "shard_counts": list(FLEET_SHARD_COUNTS),
        "interarrival_cycles": list(interarrivals),
        "wall_seconds": elapsed,
        "charging_digest": charging,
        "echo_rows": rows_by_workload["echo"],
        "fleet_rows": rows_by_workload["fleet"],
        "scaling_rows": scaling_rows,
        "resize_rows": resize_rows,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    print(f"{elapsed:.2f} s -> {output}")
    if args.check_regression:
        baseline_path = args.baseline
        if baseline_path == REPO / "BENCH_harness.json":
            baseline_path = REPO / "BENCH_fleet.json"
        status = max(status, _check_fleet_regression(
            args, baseline_path, rows_by_workload["echo"],
            resize_rows, charging))
    return status


def _check_scaling_rows(args: argparse.Namespace,
                        scaling_rows: list[dict]) -> int:
    """The host-parallel acceptance gate.

    Exact parts (always enforced): every parallel row's charging digest
    equals the serial one, and no worker served a call the serial
    fabric would have re-routed cross-shard (``route_deviations`` == 0
    on a fault-free replay).  Speed parts: the LPT ideal speedup at the
    top jobs level must reach the 1.6x floor (this gates the shard
    partition and is machine-independent); the *measured* wall-clock
    speedup is held to the same floor only when the runner actually has
    that many usable cores -- on fewer cores it is physically
    unreachable and is reported, not gated.  Both speed floors demote
    to warnings on --smoke (150-message replays are dominated by
    process start-up).
    """
    from repro.bench.fleet import SCALING_FLOOR

    status = 0
    parallel = [row for row in scaling_rows if row["mode"] == "parallel"]
    for row in parallel:
        if not row["cycles_identical"]:
            print(f"ERROR: parallel charging diverged from serial at "
                  f"jobs={row['jobs']} (digest "
                  f"{row['charging_digest'][:12]}… != serial)")
            status = 1
        if row["route_deviations"]:
            print(f"ERROR: {row['route_deviations']} route deviation(s) "
                  f"at jobs={row['jobs']} -- workers served calls the "
                  "serial fabric would have re-routed")
            status = 1
    if status == 0 and parallel:
        print(f"parallel gate: {len(parallel)} jobs levels charge "
              "byte-identically to the serial replay")
    top = max(parallel, key=lambda r: r["jobs"], default=None)
    if top is None:
        return status
    ideal = top["ideal_speedup"] or 0.0
    if ideal < SCALING_FLOOR:
        message = (f"ideal speedup {ideal:.2f}x at jobs={top['jobs']} "
                   f"below the {SCALING_FLOOR}x floor (shard partition "
                   "too skewed)")
        if args.smoke:
            print(f"WARNING: {message} (smoke run, not failing)")
        else:
            print(f"ERROR: {message}")
            status = 1
    if top["cores"] >= top["jobs"]:
        if top["speedup"] < SCALING_FLOOR:
            message = (f"measured wall speedup {top['speedup']:.2f}x at "
                       f"jobs={top['jobs']} below the {SCALING_FLOOR}x "
                       f"floor on {top['cores']} cores")
            if args.smoke:
                print(f"WARNING: {message} (smoke run, not failing)")
            else:
                print(f"ERROR: {message}")
                status = 1
        else:
            print(f"scaling gate: measured {top['speedup']:.2f}x, ideal "
                  f"{ideal:.2f}x at jobs={top['jobs']} "
                  f"(floor {SCALING_FLOOR}x)")
    else:
        print(f"scaling note: {top['cores']} usable core(s) < "
              f"jobs={top['jobs']}; measured wall speedup "
              f"{top['speedup']:.2f}x not gated on this machine "
              f"(ideal {ideal:.2f}x gates the shard partition)")
    return status


#: Tenants in the --resize replay: wide enough that a 2 -> 3 resize
#: splits the fleet into non-empty moved AND unmoved sets.
RESIZE_TENANTS = 8


def _run_resize_replays(messages: int, interarrivals) -> list[dict]:
    """The --resize figure: the seeded replay across a 2 -> 3 shard
    grow event fired one third of the way in, compared per tenant
    against the no-resize replay of the identical call sequence."""
    from repro.bench.report import resize_table
    from repro.serve import (
        REPLAY_SERVE_POLICY,
        FabricPolicy,
        FleetReplaySpec,
        ResizeEvent,
        build_fleet_fabric,
        generate_calls,
        replay_through_fabric,
        resize_row,
        run_resize_replay,
    )

    rows = []
    events = [ResizeEvent(at_call=max(1, messages // 3), action="add")]
    for workload in ("echo", "fleet"):
        for interarrival in interarrivals:
            spec = FleetReplaySpec(
                messages=messages, workload=workload,
                tenants=RESIZE_TENANTS,
                interarrival_cycles=float(interarrival))
            static = build_fleet_fabric(
                FabricPolicy(shards=2, serve=REPLAY_SERVE_POLICY), spec)
            baseline = replay_through_fabric(static,
                                             generate_calls(spec))
            report = run_resize_replay(spec, base_shards=2,
                                       events=events)
            rows.append(resize_row(spec, report, baseline))
    print(resize_table(rows))
    print()
    return rows


def _check_resize_invariants(resize_rows: list[dict]) -> int:
    """The resize acceptance gate, exact by construction: zero dropped
    calls (the per-tenant identity closes), non-trivial tenant split,
    and unmoved tenants bit-identical to the no-resize replay."""
    status = 0
    for row in resize_rows:
        point = (f"{row['workload']} @ interarrival "
                 f"{row['interarrival_cycles']:.0f}")
        accounted = (row["shed"] + row["failed"] + row["succeeded"]
                     + row["migrated"])
        if accounted != row["offered"]:
            print(f"ERROR: resize dropped calls at {point}: "
                  f"{accounted} accounted != {row['offered']} offered")
            status = 1
        if not row["accounting_identity_ok"]:
            print(f"ERROR: per-tenant accounting identity broken at "
                  f"{point}")
            status = 1
        if not row["moved_tenants"] or not row["unmoved_tenants"]:
            print(f"ERROR: resize split degenerate at {point}: "
                  f"moved={row['moved_tenants']} "
                  f"unmoved={row['unmoved_tenants']}")
            status = 1
        if not row["unmoved_bit_identical"]:
            print(f"ERROR: unmoved tenants' charging diverged from the "
                  f"no-resize replay at {point}")
            status = 1
    if status == 0:
        print(f"resize gate: {len(resize_rows)} resized replays -- "
              "zero drops, unmoved tenants bit-identical")
    return status


def _check_fleet_scaling(echo_rows: list[dict]) -> int:
    """The acceptance gate: on the echo workload, every offered-load
    point must scale monotonically with shard count -- p99 of admitted
    calls non-increasing, delivered throughput non-decreasing.  The
    sweep is fully deterministic (seeded arrivals on the simulated
    cycle clock), so the gate is exact, not statistical.
    """
    status = 0
    by_load: dict[float, list[dict]] = {}
    for row in echo_rows:
        by_load.setdefault(row["interarrival_cycles"], []).append(row)
    for load, rows in by_load.items():
        rows = sorted(rows, key=lambda r: r["shards"])
        for thin, wide in zip(rows, rows[1:]):
            if wide["p99_cycles"] > thin["p99_cycles"]:
                print(f"ERROR: echo p99 rose {thin['p99_cycles']:.0f} -> "
                      f"{wide['p99_cycles']:.0f} going "
                      f"{thin['shards']} -> {wide['shards']} shards at "
                      f"interarrival {load:.0f}")
                status = 1
            if (wide["throughput_per_mcycle"]
                    < thin["throughput_per_mcycle"]):
                print(f"ERROR: echo throughput fell "
                      f"{thin['throughput_per_mcycle']:.1f} -> "
                      f"{wide['throughput_per_mcycle']:.1f} going "
                      f"{thin['shards']} -> {wide['shards']} shards at "
                      f"interarrival {load:.0f}")
                status = 1
    if status == 0:
        print("scaling gate: echo p99 and throughput monotone in shard "
              "count at every load point")
    return status


def _check_fleet_regression(args: argparse.Namespace, baseline_path: Path,
                            echo_rows: list[dict],
                            resize_rows: list[dict] | None = None,
                            charging_digest: str | None = None) -> int:
    """Gate the echo curves against the committed BENCH_fleet.json:
    fail when p99 worsens or throughput drops more than the threshold
    at any (load, shards) point the baseline also measured.  When both
    this run and the baseline carry resized replays, the resized p99 is
    gated the same way per (workload, load) point.  The scaling
    replay's charging digest is gated *exactly*: cycle charging must be
    byte-identical to the committed serial baseline, whatever ``jobs``
    either run used (results must never depend on parallelism)."""
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        print(f"WARNING: fleet baseline {baseline_path} missing or "
              "unreadable; skipping regression check")
        return 0
    if baseline.get("smoke") != args.smoke:
        print(f"WARNING: baseline recorded with smoke="
              f"{baseline.get('smoke')} but this run used "
              f"smoke={args.smoke}; skipping regression check")
        return 0
    status = 0
    base_digest = baseline.get("charging_digest")
    if charging_digest and base_digest:
        if charging_digest != base_digest:
            print("ERROR: scaling-replay charging digest "
                  f"{charging_digest[:12]}… differs from the committed "
                  f"baseline {base_digest[:12]}… (per-call cycle "
                  "charging must be byte-identical)")
            status = 1
        else:
            print("regression check: charging digest byte-identical to "
                  "the committed baseline")
    elif charging_digest:
        print("WARNING: baseline has no charging_digest; cycle "
              "byte-identity not gated against it")
    base_rows = {(row["interarrival_cycles"], row["shards"]): row
                 for row in baseline.get("echo_rows", [])}
    checked = 0
    for row in echo_rows:
        base = base_rows.get((row["interarrival_cycles"], row["shards"]))
        if base is None:
            continue
        checked += 1
        point = (f"interarrival {row['interarrival_cycles']:.0f}, "
                 f"{row['shards']} shard(s)")
        if row["p99_cycles"] > base["p99_cycles"] * (
                1.0 + args.regression_threshold):
            print(f"ERROR: echo p99 {row['p99_cycles']:.0f} regressed "
                  f"more than {args.regression_threshold:.0%} over "
                  f"baseline {base['p99_cycles']:.0f} at {point}")
            status = 1
        if row["throughput_per_mcycle"] < base["throughput_per_mcycle"] * (
                1.0 - args.regression_threshold):
            print(f"ERROR: echo throughput "
                  f"{row['throughput_per_mcycle']:.1f} regressed more "
                  f"than {args.regression_threshold:.0%} below baseline "
                  f"{base['throughput_per_mcycle']:.1f} at {point}")
            status = 1
    if not checked:
        print("WARNING: baseline shares no (load, shards) points with "
              "this run; nothing gated")
    elif status == 0:
        print(f"regression check: {checked} echo points within "
              f"{args.regression_threshold:.0%} of baseline")
    base_resize = {(row["workload"], row["interarrival_cycles"]): row
                   for row in baseline.get("resize_rows", [])}
    resized_checked = 0
    for row in resize_rows or []:
        base = base_resize.get((row["workload"],
                                row["interarrival_cycles"]))
        if base is None:
            continue
        resized_checked += 1
        point = (f"resized {row['workload']} at interarrival "
                 f"{row['interarrival_cycles']:.0f}")
        if row["p99_cycles"] > base["p99_cycles"] * (
                1.0 + args.regression_threshold):
            print(f"ERROR: p99 {row['p99_cycles']:.0f} regressed more "
                  f"than {args.regression_threshold:.0%} over baseline "
                  f"{base['p99_cycles']:.0f} at {point}")
            status = 1
    if resized_checked and status == 0:
        print(f"regression check: {resized_checked} resized points "
              f"within {args.regression_threshold:.0%} of baseline")
    return status


def run_transport_bench(args: argparse.Namespace) -> int:
    """The --transport mode: RoCC-vs-PCIe attach-point sweep ->
    BENCH_transport.json.

    Sweeps message size x batch size on both transports, prints the
    per-size crossover table, and enforces two exact gates: protocol
    cycles bit-identical across transports in every cell (asserted by
    the sweep itself), and PCIe per-op transport cost monotonically
    non-increasing in batch size.  With --check-regression the RoCC
    cycle totals must additionally be bit-identical to the committed
    baseline on every shared cell, and wall-clock must stay within the
    threshold.
    """
    from repro.bench import transport as transport_bench
    from repro.bench.report import transport_crossover_table, transport_table

    if args.smoke:
        sizes = transport_bench.SMOKE_SIZES
        batches = transport_bench.SMOKE_BATCHES
        operations = ("deserialize",)
    else:
        sizes = transport_bench.SWEEP_SIZES
        batches = transport_bench.SWEEP_BATCHES
        operations = ("deserialize", "serialize")
    print(f"transport sweep: {len(sizes)} sizes x {len(batches)} batches "
          f"x 2 transports, operations {', '.join(operations)}")
    start = time.perf_counter()
    rows_by_op, crossovers_by_op = {}, {}
    status = 0
    for operation in operations:
        rows = transport_bench.sweep_transports(sizes, batches, operation)
        rows_by_op[operation] = rows
        crossovers_by_op[operation] = transport_bench.crossover_batches(rows)
        print(transport_table(rows))
        print()
        print(transport_crossover_table(crossovers_by_op[operation]))
        print()
        violations = transport_bench.amortization_violations(rows)
        for v in violations:
            print(f"ERROR: PCIe per-op transport cost rose "
                  f"{v['per_op_before']:.3f} -> {v['per_op_after']:.3f} "
                  f"going batch {v['batch_before']} -> {v['batch_after']} "
                  f"at size {v['size']} ({operation})")
            status = 1
    elapsed = time.perf_counter() - start
    if status == 0:
        print("transport gates: protocol cycles identical across "
              "transports; PCIe amortisation monotone in batch size")

    output = args.output
    if output == REPO / "BENCH_harness.json":
        output = REPO / "BENCH_transport.json"
    payload = {
        "smoke": args.smoke,
        "sizes": list(sizes),
        "batches": list(batches),
        "operations": list(operations),
        "wall_seconds": elapsed,
        "rows": rows_by_op,
        "crossovers": crossovers_by_op,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    print(f"{elapsed:.2f} s -> {output}")
    if args.check_regression:
        baseline_path = args.baseline
        if baseline_path == REPO / "BENCH_harness.json":
            baseline_path = REPO / "BENCH_transport.json"
        status = max(status, _check_transport_regression(
            args, baseline_path, rows_by_op, elapsed))
    return status


def _check_transport_regression(args: argparse.Namespace,
                                baseline_path: Path,
                                rows_by_op: dict, elapsed: float) -> int:
    """Gate against the committed BENCH_transport.json.

    RoCC cycle totals are a deterministic function of the workload and
    the cycle model, so the gate is *exact*: any shared (operation,
    size, batch) cell whose RoCC ``cycles`` or total differs from the
    baseline at all is a failure (this is the "transport=rocc stays
    bit-identical" acceptance criterion, continuously enforced).
    Wall-clock gets the usual fractional threshold.
    """
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        print(f"WARNING: transport baseline {baseline_path} missing or "
              "unreadable; skipping regression check")
        return 0
    status, checked = 0, 0
    for operation, rows in rows_by_op.items():
        base_rows = {(r["size"], r["batch"]): r
                     for r in baseline.get("rows", {}).get(operation, [])}
        for row in rows:
            base = base_rows.get((row["size"], row["batch"]))
            if base is None:
                continue
            checked += 1
            point = (f"{operation} size={row['size']} "
                     f"batch={row['batch']}")
            for field in ("cycles", "rocc_total_cycles"):
                if row[field] != base[field]:
                    print(f"ERROR: RoCC {field} changed "
                          f"{base[field]!r} -> {row[field]!r} at {point} "
                          "(must be bit-identical to the committed "
                          "baseline)")
                    status = 1
    if not checked:
        print("WARNING: baseline shares no cells with this run; "
              "nothing gated")
    elif status == 0:
        print(f"regression check: {checked} RoCC cells bit-identical "
              "to baseline")
    base_wall = baseline.get("wall_seconds")
    if (baseline.get("smoke") == args.smoke
            and isinstance(base_wall, (int, float)) and base_wall > 0):
        bound = base_wall * (1.0 + args.regression_threshold)
        if elapsed > bound:
            print(f"ERROR: transport sweep took {elapsed:.2f} s, more "
                  f"than {args.regression_threshold:.0%} over the "
                  f"baseline {base_wall:.2f} s")
            status = 1
        else:
            print(f"regression check: {elapsed:.2f} s within "
                  f"{args.regression_threshold:.0%} of baseline "
                  f"{base_wall:.2f} s")
    return status


def _codegen_workloads(micro_batch: int, hyper_batch: int) -> list:
    from repro.bench.microbench import (
        alloc_bench_names,
        build_microbench,
        nonalloc_bench_names,
    )
    from repro.hyperprotobench import build_hyperprotobench
    workloads = [build_microbench(name, batch=micro_batch)
                 for name in nonalloc_bench_names() + alloc_bench_names()]
    workloads.append(build_hyperprotobench("bench0", seed=0,
                                           batch=hyper_batch))
    return workloads


def _time_tier(workloads, operation: str, fast_path: str,
               repeat: int) -> float:
    """Accelerator-only host seconds for one tier over all workloads.

    Times per-message driver calls (no batch-cycle cache on this path)
    so the figure isolates the execution tier, not the software CPU
    models or memo caches.  Best-of-``repeat`` after a warm-up pass per
    workload; kernel compilation lands in the warm-up.
    """
    total = 0.0
    for workload in workloads:
        accel = driver.ProtoAccelerator(fast_path=fast_path)
        accel.register_types([workload.descriptor])
        buffers = workload.wire_buffers()
        if operation == "deserialize":
            def body():
                for buffer in buffers:
                    accel.deserialize(workload.descriptor, buffer,
                                      auto_renew_arena=True)
        else:
            addresses = [accel.load_object(m) for m in workload.messages]

            def body():
                for addr in addresses:
                    accel.serialize(workload.descriptor, addr)
        body()
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            body()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def run_codegen_bench(args: argparse.Namespace) -> int:
    """The --codegen mode: tier-vs-tier wall-clock -> BENCH_codegen.json."""
    from repro.accel.perf import render_codegen_line
    from repro.bench.microbench import time_codegen_microbench
    from repro.bench.report import codegen_speedup_table

    micro_batch, hyper_batch = (8, 2) if args.smoke else (32, 10)
    repeat = 2 if args.smoke else 3
    workloads = _codegen_workloads(micro_batch, hyper_batch)
    print(f"codegen bench: {len(workloads)} workloads "
          f"(micro batch {micro_batch}, hyper batch {hyper_batch}, "
          f"best of {repeat})")

    sections = {}
    for operation in ("deserialize", "serialize"):
        interp_s = _time_tier(workloads, operation, "interp", repeat)
        codegen_s = _time_tier(workloads, operation, "codegen", repeat)
        speedup = interp_s / codegen_s if codegen_s else float("inf")
        sections[operation] = {
            "interp_seconds": interp_s,
            "codegen_seconds": codegen_s,
            "speedup": speedup,
        }
        print(f"{operation}: interp {interp_s:.3f} s, "
              f"codegen {codegen_s:.3f} s -> {speedup:.2f}x")

    micro_rows = time_codegen_microbench(
        batch=micro_batch, repeat=repeat)
    print(codegen_speedup_table(micro_rows))
    print(render_codegen_line())

    output = args.output
    if output == REPO / "BENCH_harness.json":
        output = REPO / "BENCH_codegen.json"
    payload = {
        "smoke": args.smoke,
        "micro_batch": micro_batch,
        "hyper_batch": hyper_batch,
        "repeat": repeat,
        "workloads": [w.name for w in workloads],
        "deserialize": sections["deserialize"],
        "serialize": sections["serialize"],
        "microbench": micro_rows,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    print(f"-> {output}")

    deser_speedup = sections["deserialize"]["speedup"]
    if deser_speedup < 2.0:
        message = (f"codegen deserialize speedup {deser_speedup:.2f}x "
                   "below the 2x acceptance floor")
        if args.smoke:
            # Smoke batches are noise-dominated on busy CI runners; the
            # committed full-size BENCH_codegen.json enforces the floor.
            print(f"WARNING: {message} (smoke run, not failing)")
        else:
            print(f"ERROR: {message}")
            return 1
    return 0


def check_regression(args: argparse.Namespace, cached_seconds: float,
                     baseline: dict | None) -> int:
    """Fail on a >threshold wall-clock regression vs the committed run."""
    if baseline is None:
        print(f"WARNING: regression baseline {args.baseline} missing or "
              "unreadable; skipping check")
        return 0
    if (baseline.get("smoke") != args.smoke
            or baseline.get("jobs") != args.jobs):
        print("WARNING: baseline recorded with smoke="
              f"{baseline.get('smoke')}, jobs={baseline.get('jobs')} but "
              f"this run used smoke={args.smoke}, jobs={args.jobs}; "
              "skipping regression check")
        return 0
    base = baseline.get("cached_seconds")
    if not isinstance(base, (int, float)) or base <= 0:
        print("WARNING: baseline has no usable cached_seconds; skipping")
        return 0
    bound = base * (1.0 + args.regression_threshold)
    if cached_seconds > bound:
        print(f"ERROR: cached run took {cached_seconds:.2f} s, more than "
              f"{args.regression_threshold:.0%} over the baseline "
              f"{base:.2f} s")
        return 1
    print(f"regression check: {cached_seconds:.2f} s within "
          f"{args.regression_threshold:.0%} of baseline {base:.2f} s")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the optimised run; "
                             "with --fleet, runs each sweep point "
                             "host-parallel (one worker per shard)")
    parser.add_argument("--smoke", action="store_true",
                        help="small batches (CI smoke test)")
    parser.add_argument("--output", type=Path,
                        default=REPO / "BENCH_harness.json")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="per-message fault-injection probability for "
                             "the accelerated runs (default 0)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-injection RNG seed")
    parser.add_argument("--serve", action="store_true",
                        help="run the resilient-serving offered-load sweep "
                             "instead (writes BENCH_serving.json)")
    parser.add_argument("--codegen", action="store_true",
                        help="run the codegen-vs-interpreter tier benchmark "
                             "instead (writes BENCH_codegen.json)")
    parser.add_argument("--fleet", action="store_true",
                        help="run the sharded-fabric fleet sweep instead "
                             "(writes BENCH_fleet.json)")
    parser.add_argument("--transport", action="store_true",
                        help="run the RoCC-vs-PCIe attach-point sweep "
                             "instead (writes BENCH_transport.json)")
    parser.add_argument("--resize", action="store_true",
                        help="with --fleet: also replay each load point "
                             "across an online 2 -> 3 shard resize and "
                             "gate the zero-drop / bit-identity "
                             "invariants")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail if the cached run regresses more than "
                             "the threshold vs the committed baseline")
    parser.add_argument("--baseline", type=Path,
                        default=REPO / "BENCH_harness.json",
                        help="baseline JSON for --check-regression")
    parser.add_argument("--regression-threshold", type=float, default=0.15,
                        help="allowed fractional wall-clock regression "
                             "(default 0.15)")
    args = parser.parse_args(argv)

    if args.serve:
        return run_serving_bench(args)
    if args.fleet:
        return run_fleet_bench(args)
    if args.transport:
        return run_transport_bench(args)
    if args.codegen:
        return run_codegen_bench(args)

    baseline = None
    if args.check_regression:
        # Read before the run: --output may overwrite the baseline file.
        try:
            baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            baseline = None

    plan = (FaultPlan(seed=args.fault_seed, rate=args.fault_rate)
            if args.fault_rate > 0 else None)
    micro_batch, hyper_batch = (8, 2) if args.smoke else (32, 10)
    specs = subset_specs(micro_batch, hyper_batch)
    print(f"subset: {len(specs)} benchmark runs "
          f"(micro batch {micro_batch}, hyper batch {hyper_batch}"
          + (f", fault rate {args.fault_rate}" if plan else "") + ")")

    serial_s, serial_results = timed_run(specs, jobs=1, caches=False,
                                         faults=plan)
    print(f"serial uncached: {serial_s:.2f} s")
    fast_s, fast_results = timed_run(specs, jobs=args.jobs, caches=True,
                                     faults=plan)
    print(f"cached (jobs={args.jobs}): {fast_s:.2f} s")
    if args.jobs > 1:
        # Memo-cache counters live in the worker processes; the
        # parent's are empty and would misreport as 0%.
        rates = None
        print("memo caches: per-worker (hit rates not aggregated "
              "across processes)")
    else:
        rates = hit_rates()
        print(render_memoization_line())

    for want, got in zip(serial_results, fast_results):
        if want != got:
            print(f"ERROR: cached run diverged on {want.workload} "
                  f"{want.operation}")
            return 1
    print("differential check: fast paths match serial-uncached exactly")

    faults_injected = sum(
        r.results["riscv-boom-accel"].faults_injected
        for r in serial_results)
    if plan is not None:
        print(f"faults injected across subset: {faults_injected} "
              "(all recovered; differential check passed)")

    speedup = serial_s / fast_s if fast_s else float("inf")
    payload = {
        "subset": [spec.__dict__ for spec in specs],
        "jobs": args.jobs,
        "smoke": args.smoke,
        "fault_rate": args.fault_rate,
        "faults_injected": faults_injected,
        "serial_uncached_seconds": serial_s,
        "cached_seconds": fast_s,
        "speedup": speedup,
        "cache_hit_rates": rates,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"speedup: {speedup:.2f}x -> {args.output}")
    if args.check_regression:
        return check_regression(args, fast_s, baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
