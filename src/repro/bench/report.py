"""Result formatting: the tables and geomean summaries the paper reports."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.bench.runner import BenchmarkResult, SYSTEMS


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic for Figures 11-13)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_results_table(results: Sequence[BenchmarkResult],
                         title: str = "") -> str:
    """Render one figure's series as the rows the paper plots.

    Columns are the three systems in plot order, plus a final geomean row.
    """
    lines = []
    if title:
        lines.append(title)
    header = f"{'benchmark':<18}" + "".join(f"{s:>18}" for s in SYSTEMS)
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        row = f"{result.workload:<18}"
        for system in SYSTEMS:
            row += f"{result.gbps(system):>18.2f}"
        lines.append(row)
    lines.append("-" * len(header))
    row = f"{'geomean':<18}"
    for system in SYSTEMS:
        row += f"{geomean(r.gbps(system) for r in results):>18.2f}"
    lines.append(row)
    return "\n".join(lines)


def ascii_bar_chart(results: Sequence[BenchmarkResult],
                    width: int = 44) -> str:
    """Render a figure's series as grouped horizontal bars.

    One group per benchmark, one bar per system, matching the paper's
    grouped-bar figures; bar lengths are linear in Gbit/s, normalised to
    the largest value in the figure.
    """
    peak = max(result.gbps(system)
               for result in results for system in SYSTEMS)
    if peak <= 0:
        raise ValueError("nothing to plot")
    glyphs = {"riscv-boom": "#", "Xeon": "=", "riscv-boom-accel": "*"}
    lines = ["legend: " + "  ".join(f"{glyph} {system}"
                                    for system, glyph in glyphs.items())]
    for result in results:
        lines.append(f"{result.workload}")
        for system in SYSTEMS:
            value = result.gbps(system)
            bar = glyphs[system] * max(1, round(value / peak * width))
            lines.append(f"  {bar} {value:.2f}")
    return "\n".join(lines)


def fault_degradation_table(
        curve: Sequence[tuple[float, Sequence[BenchmarkResult]]],
        width: int = 40) -> str:
    """Render a fault-rate sweep as a degradation curve.

    ``curve`` pairs each per-message fault rate with the results of the
    same spec list run at that rate; the table reports the accelerator's
    geomean throughput, its fraction of the fault-free figure, and the
    recovery-path counters accumulated across the whole spec list.
    """
    if not curve:
        raise ValueError("no fault-rate points to plot")
    accel = "riscv-boom-accel"
    points = []
    for rate, results in curve:
        gbps = geomean(r.gbps(accel) for r in results)
        srs = [r.results[accel] for r in results]
        points.append({
            "rate": rate,
            "gbps": gbps,
            "faults": sum(sr.faults_injected for sr in srs),
            "retries": sum(sr.transient_retries for sr in srs),
            "fallbacks": sum(sr.cpu_fallbacks for sr in srs),
        })
    baseline = next((p["gbps"] for p in points if p["rate"] == 0),
                    points[0]["gbps"])
    header = (f"{'fault rate':>10} {'accel Gbit/s':>13} {'of clean':>9} "
              f"{'faults':>8} {'retries':>8} {'fallbacks':>10}")
    lines = ["fault-injection degradation curve (accelerator geomean)",
             header, "-" * len(header)]
    for p in points:
        rel = p["gbps"] / baseline if baseline else 0.0
        lines.append(f"{p['rate'] * 100:>9.2f}% {p['gbps']:>13.2f} "
                     f"{rel * 100:>8.1f}% {p['faults']:>8,} "
                     f"{p['retries']:>8,} {p['fallbacks']:>10,}")
    lines.append("")
    for p in points:
        rel = p["gbps"] / baseline if baseline else 0.0
        bar = "*" * max(1, round(rel * width))
        lines.append(f"{p['rate'] * 100:>6.2f}% {bar} {rel * 100:.1f}%")
    return "\n".join(lines)


def serving_table(rows: Sequence[dict], width: int = 40) -> str:
    """Render an offered-load serving sweep as a degradation table.

    ``rows`` come from :func:`repro.serve.workload.sweep_offered_load`:
    one dict per offered-load point, hottest last.  The table shows the
    graceful-degradation story: as interarrival shrinks the shed rate
    climbs while the p99 latency of *admitted* calls stays bounded by
    the deadline budget.
    """
    if not rows:
        raise ValueError("no offered-load points to plot")
    header = (f"{'interarrival':>12} {'offered':>8} {'ok':>6} "
              f"{'shed %':>7} {'p50 cyc':>10} {'p99 cyc':>10} "
              f"{'host':>5} {'wdog':>5} {'health':>9}")
    lines = ["serving offered-load sweep (2-tile pool, deadline-gated)",
             header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['interarrival_cycles']:>12.0f} {row['offered']:>8,} "
            f"{row['succeeded']:>6,} {row['shed_rate'] * 100:>6.1f}% "
            f"{row['p50_cycles']:>10.0f} {row['p99_cycles']:>10.0f} "
            f"{row['host_fallbacks']:>5,} {row['watchdog_aborts']:>5,} "
            f"{row['health']:>9}")
    lines.append("")
    peak = max(row["shed_rate"] for row in rows)
    for row in rows:
        share = row["shed_rate"] / peak if peak else 0.0
        bar = "*" * max(0, round(share * width)) or "."
        lines.append(f"{row['interarrival_cycles']:>8.0f} {bar} "
                     f"{row['shed_rate'] * 100:.1f}% shed")
    return "\n".join(lines)


def fleet_table(rows: Sequence[dict], width: int = 40) -> str:
    """Render the sharded-fabric fleet-replay sweep.

    ``rows`` come from :func:`repro.serve.replay.sweep_fleet`: one dict
    per (offered load, shard count) point, grouped by load with shard
    counts ascending.  The scaling story: at a fixed offered load,
    adding shards drains queueing -- p99 falls and the shed rate
    collapses -- while per-call cycle charging stays bit-identical
    under the pure-charging serving discipline
    (``tests/serve/test_fleet_replay.py``).
    """
    if not rows:
        raise ValueError("no fleet sweep rows to render")
    header = (f"{'interarrival':>12} {'shards':>6} {'offered':>8} "
              f"{'ok':>6} {'shed %':>7} {'p50 cyc':>9} {'p99 cyc':>9} "
              f"{'thr/Mcyc':>9} {'rerouted':>8} {'wdog':>5}")
    lines = [f"fleet replay sweep ({rows[0]['workload']} workload, "
             "open-loop arrivals, hottest load last)",
             header, "-" * len(header)]
    previous_load = None
    for row in rows:
        if (previous_load is not None
                and row["interarrival_cycles"] != previous_load):
            lines.append("")
        previous_load = row["interarrival_cycles"]
        lines.append(
            f"{row['interarrival_cycles']:>12.0f} {row['shards']:>6} "
            f"{row['offered']:>8,} {row['succeeded']:>6,} "
            f"{row['shed_rate'] * 100:>6.1f}% "
            f"{row['p50_cycles']:>9.0f} {row['p99_cycles']:>9.0f} "
            f"{row['throughput_per_mcycle']:>9.1f} "
            f"{row['fallback_routes']:>8,} {row['watchdog_aborts']:>5,}")
    hottest = min(row["interarrival_cycles"] for row in rows)
    hot = [row for row in rows if row["interarrival_cycles"] == hottest]
    peak = max(row["p99_cycles"] for row in hot)
    lines.append("")
    lines.append(f"p99 at the hottest load (interarrival {hottest:.0f}):")
    for row in hot:
        share = row["p99_cycles"] / peak if peak else 0.0
        bar = "*" * max(1, round(share * width))
        lines.append(f"{row['shards']:>4} shard(s) {bar} "
                     f"{row['p99_cycles']:,.0f} cyc")
    return "\n".join(lines)


def resize_table(rows: Sequence[dict]) -> str:
    """Render the resized fleet replays (ISSUE 8 acceptance figure).

    ``rows`` come from :func:`repro.serve.replay.resize_row`: one dict
    per (workload, offered load) replay across an online ring resize.
    The two boolean columns *are* the acceptance criteria -- ``drops``
    must read 0 (per-tenant accounting identity) and ``bit-id`` must
    read yes (unmoved tenants charged identically to the no-resize
    replay).
    """
    if not rows:
        raise ValueError("no resize rows to render")
    header = (f"{'workload':<9} {'interarrival':>12} {'offered':>8} "
              f"{'ok':>6} {'migr':>5} {'drops':>5} {'p99 cyc':>9} "
              f"{'moved':>5} {'defl':>5} {'bit-id':>6}")
    lines = ["resized fleet replay (online 2 -> 3 shard grow, "
             "mid-stream)", header, "-" * len(header)]
    for row in rows:
        drops = row["offered"] - (row["shed"] + row["failed"]
                                  + row["succeeded"] + row["migrated"])
        lines.append(
            f"{row['workload']:<9} {row['interarrival_cycles']:>12.0f} "
            f"{row['offered']:>8,} {row['succeeded']:>6,} "
            f"{row['migrated']:>5,} {drops:>5,} "
            f"{row['p99_cycles']:>9.0f} "
            f"{len(row['moved_tenants']):>5} "
            f"{row['warmup_deflections']:>5,} "
            f"{'yes' if row['unmoved_bit_identical'] else 'NO':>6}")
    return "\n".join(lines)


def scaling_table(rows: Sequence[dict], width: int = 30) -> str:
    """Render the host-parallel scaling rows.

    ``rows`` come from :func:`repro.bench.fleet.measure_scaling`: one
    row per jobs level over the same seeded replay.  ``bit-id`` is the
    acceptance column -- every parallel row's charging digest must
    equal the serial one.  ``LPT model`` is a model, not a measurement:
    the speedup an LPT schedule of the per-shard busy times supports.
    ``meas`` is measured, and approaches the model only when the
    machine has at least ``jobs`` usable cores (the ``cores`` column
    says what this run could use).
    """
    if not rows:
        raise ValueError("no scaling rows to render")
    header = (f"{'jobs':>4} {'mode':<9} {'shards':>6} {'wall s':>8} "
              f"{'meas x':>7} {'LPT model x':>11} {'cores':>5} "
              f"{'deviations':>10} {'bit-id':>6}")
    first = rows[0]
    lines = [f"host-parallel scaling ({first['messages']:,} messages, "
             f"{first['tenants']} tenants, one worker per shard)",
             header, "-" * len(header)]
    for row in rows:
        ideal = row.get("ideal_speedup")
        ideal_text = "--".rjust(11) if ideal is None else f"{ideal:>10.2f}x"
        lines.append(
            f"{row['jobs']:>4} {row['mode']:<9} {row['shards']:>6} "
            f"{row['wall_seconds']:>8.2f} {row['speedup']:>6.2f}x "
            f"{ideal_text} {row['cores']:>5} "
            f"{row['route_deviations']:>10,} "
            f"{'yes' if row['cycles_identical'] else 'NO':>6}")
    peak = max((row.get("ideal_speedup") or 1.0) for row in rows)
    lines.append("")
    lines.append("LPT-model speedup by jobs (a model of the shard balance, "
                 "not a measurement):")
    for row in rows:
        value = row.get("ideal_speedup") or 1.0
        share = value / peak if peak else 0.0
        bar = "*" * max(1, round(share * width))
        lines.append(f"{row['jobs']:>4} job(s) {bar} {value:.2f}x")
    return "\n".join(lines)


def speedup_summary(results: Sequence[BenchmarkResult]) -> dict[str, float]:
    """Geomean accelerator speedups vs each baseline (the paper's
    headline "NxM" numbers)."""
    return {
        "vs riscv-boom": geomean(
            r.gbps("riscv-boom-accel") / r.gbps("riscv-boom")
            for r in results),
        "vs Xeon": geomean(
            r.gbps("riscv-boom-accel") / r.gbps("Xeon") for r in results),
    }


def transport_table(rows: Sequence[dict]) -> str:
    """Render the RoCC-vs-PCIe attach-point sweep.

    ``rows`` come from :func:`repro.bench.transport.sweep_transports`:
    one dict per (message size, batch size) cell.  Protocol-work cycles
    are identical across transports by construction (the sweep asserts
    it), so the table shows only the attach-point costs: amortised
    transport cycles per operation on each transport, and which one
    wins on total cycles.
    """
    if not rows:
        raise ValueError("no transport sweep rows to render")
    header = (f"{'size B':>7} {'batch':>6} {'unit cyc':>10} "
              f"{'rocc/op':>9} {'pcie/op':>9} {'winner':>7}")
    lines = [f"transport sweep ({rows[0]['operation']}, attach-point "
             "cycles per op; unit cycles identical across transports)",
             header, "-" * len(header)]
    previous_size = None
    for row in rows:
        if previous_size is not None and row["size"] != previous_size:
            lines.append("")
        previous_size = row["size"]
        winner = "pcie" if row["pcie_wins"] else "rocc"
        lines.append(
            f"{row['size']:>7} {row['batch']:>6} {row['cycles']:>10.1f} "
            f"{row['rocc_transport_per_op']:>9.2f} "
            f"{row['pcie_transport_per_op']:>9.2f} {winner:>7}")
    return "\n".join(lines)


def transport_crossover_table(crossovers: Sequence[dict]) -> str:
    """Render the per-size PCIe crossover batch (the headline table).

    ``crossovers`` come from :func:`repro.bench.transport.
    crossover_batches`: per message size, the smallest swept batch where
    PCIe's total cycles match or beat RoCC's, or ``never`` when the
    per-byte link charge exceeds the RoCC dispatch cost at any batch.
    """
    if not crossovers:
        raise ValueError("no crossover rows to render")
    header = (f"{'size B':>7} {'crossover batch':>16} "
              f"{'rocc/op @max':>13} {'pcie/op @max':>13}")
    lines = [f"PCIe crossover vs message size "
             f"({crossovers[0]['operation']}, max batch "
             f"{crossovers[0]['max_batch']})",
             header, "-" * len(header)]
    for row in crossovers:
        crossover = (str(row["crossover_batch"])
                     if row["crossover_batch"] is not None else "never")
        lines.append(
            f"{row['size']:>7} {crossover:>16} "
            f"{row['rocc_per_op_at_max_batch']:>13.2f} "
            f"{row['pcie_per_op_at_max_batch']:>13.2f}")
    return "\n".join(lines)
