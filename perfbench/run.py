"""perfbench: the simulator's host time and modeled cycles, end to end.

    python3 perfbench/run.py [--workload W ...] [--seed S] [--seconds N]
                             [--trace [0|1]] [--json PATH] [--smoke]

For each workload (all four by default, one after another), the seed is
turned into inputs once, then the workload runs as a series of
*passes*, about ``--seconds`` of them in all: each pass is a fresh child
process (``child.py``) that sets up, does the workload's fixed work
once, single-threaded, and checks every output.  ``wall_s`` sums each
operation's fastest time across the passes, ``setup_s`` is the median
of ``MIN_SETUPS`` set-ups, and modeled metrics must be identical in
every pass.  ``--seconds`` defaults to ``run_seconds`` in
BENCHMARK.json; ``--smoke`` shrinks the inputs and makes
``MIN_PASSES`` passes whatever ``--seconds`` says.

Every metric is printed as ``workload metric value unit``; lines that
start with ``#`` carry information that is not a metric.  The last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics).  With ``--trace 1`` the passes
alternate between untraced and traced; per-layer metrics come from the
traced passes, except host timings of whole operations, which come from
the untraced ones.  The exit status is 1 when any output is wrong or a
layer's entry point is missing, and 2 when the program to measure is
missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Inputs handed to the passes, and the spans of the last traced pass.
WORK_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
#: No single workload may keep the benchmark busy longer than this; a
#: pass that would start later fails the run.
RUN_LIMIT_S = 165.0
#: Calibration timings further apart than this mark the host as drifting.
DRIFT_LIMIT = 0.10

#: Pinned to one thread: numerical libraries would otherwise start a
#: thread pool per core.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i % 7
        best = min(best, time.perf_counter() - start)
    return best


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from repro.bench.pool import effective_cores
        cores = effective_cores()
    except ImportError:
        cores = len(os.sched_getaffinity(0))
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "effective_cores": cores,
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy}


#: Untraced passes a run makes at least, so every operation's time is
#: the faster of two or more samples.
MIN_PASSES = 2
#: Set-ups an untraced run times.  Where there are fewer passes,
#: set-up-only children spread between them make up the rest, so that a
#: burst of load on the host cannot hit most of the samples.
MIN_SETUPS = 11


def plan(count: int, trace: bool, setups: int) -> list[str]:
    """The modes of a run's children, in order: ``count`` passes, which
    with ``trace`` alternate between untraced and traced, and, untraced,
    set-up-only children spread between the passes until ``setups``
    set-ups are timed.  The count depends only on ``--seconds``, not on
    how fast the host or the commit is, so every commit takes its
    fastest operation times from equally many samples."""
    if trace:
        return [("run", "trace")[i % 2]
                for i in range(max(count, MIN_PASSES + 1))]
    extra = max(0, setups - count)
    modes = []
    for i in range(count):
        modes.append("run")
        modes.extend(["setup"] * (extra // count + (i < extra % count)))
    return modes


def run_child(workload: str, inputs_path: Path, mode: str,
              deadline: float) -> dict:
    """One child process in ``mode`` ("run", "trace" or "setup"); a
    crash, a timeout or a child that would start past ``deadline`` comes
    back as ``error``."""
    spans_path = WORK_DIR / "trace" / f"{workload}.tsv"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"mode": mode, "error": "not started: the run has used its "
                                       f"{RUN_LIMIT_S:.0f} s"}
    spawned_at = time.monotonic()
    command = [sys.executable, str(HERE / "child.py"), workload,
               str(inputs_path), mode, repr(spawned_at), str(spans_path)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout,
                              env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return {"mode": mode, "error": f"exited {done.returncode}: {tail}"}
    return json.loads(lines[-1])


def measure(workload: str, inputs_path: Path, modes: list[str],
            deadline: float) -> list[dict]:
    """One child process per entry of ``modes``, one after another,
    until the first that fails."""
    passes: list[dict] = []
    for mode in modes:
        passes.append(run_child(workload, inputs_path, mode, deadline))
        if "error" in passes[-1]:
            break
    return passes


def fastest_op_times(passes: list[dict]) -> list[float]:
    """Each operation's fastest host time across ``passes``.  Every pass
    runs the same operations in the same order; interference from other
    processes on the host only ever adds time, and it comes in bursts
    that rarely hit the same operation in every pass."""
    return [min(times) for times in zip(*(p["op_times"] for p in passes))]


def fastest_pass_s(passes: list[dict]) -> float:
    """Host seconds of one pass: the sum of its fastest operations."""
    return sum(fastest_op_times(passes))


def host_timing_metrics(op_kind: str, passes: list[dict]) -> dict:
    """Per-layer metrics read off the host time of whole operations."""
    if op_kind == "call":
        pooled = [t for p in passes for t in p["op_times"]]
        return {"serve.call_host_us_p50": statistics.median(pooled) * 1e6,
                "serve.call_host_us_p99": percentile(pooled, 99.0) * 1e6}
    if op_kind == "figure":
        return {f"bench.figure.{name}.s": seconds for name, seconds
                in zip(passes[0]["op_names"], fastest_op_times(passes))}
    return {}


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def summarize(passes: list[dict], spec: dict, trace: bool,
              op_kind: str) -> dict:
    """Metrics, information and verdict of one workload's passes."""
    good = [p for p in passes if "error" not in p]
    runs = [p for p in good if p["mode"] == "run"]
    traces = [p for p in good if p["mode"] == "trace"]
    worked = runs + traces
    errors = len(passes) - len(good)
    problems = [f"{p['mode']} child {p['error']}"
                for p in passes if "error" in p]
    for p in worked:
        problems.extend(p["failures"])
    attempted = sum(p["attempted"] for p in worked) + errors
    failed = sum(p["failed"] for p in worked) + errors
    models = [p["model"] for p in worked]
    if any(model != models[0] for model in models):
        problems.append("modeled results differ between passes"
                        + (" (traced and untraced)" if trace else ""))
    summary = {"correct": not problems and bool(runs),
               "attempted": max(1, attempted), "failed": failed,
               "problems": problems, "metrics": {}, "info": {}}
    if not runs:
        return summary

    wall_s = fastest_pass_s(runs)
    info = summary["info"]
    info["passes"] = (f"{len(runs)} untraced, {len(traces)} traced, "
                      f"{len(good) - len(worked)} set-up only")
    info["wall_s per pass"] = [round(p["wall_s"], 4) for p in runs]
    if runs[0]["messages"]:
        info["msgs_per_s"] = runs[0]["messages"] / wall_s
    info.update(models[0])

    if trace:
        computed = {}
        for key in {k for p in traces for k in p["layer"]}:
            computed[key] = statistics.median(p["layer"].get(key, 0.0)
                                              for p in traces)
        computed.update(host_timing_metrics(op_kind, runs))
        if traces:
            computed["trace.overhead_ratio"] = fastest_pass_s(traces) / wall_s
        names = spec["per_layer"]
    else:
        computed = {
            "wall_s": wall_s,
            "setup_s": median_of([p for p in good if p["mode"] != "trace"],
                                 "setup_s"),
            "peak_rss_mb": median_of(runs, "peak_rss_mb"),
            "sim_speedup_vs_boom": models[0]["sim_speedup_vs_boom"],
        }
        info["load_s (excluded from setup_s)"] = median_of(runs, "load_s")
        names = spec["end_to_end"]
    # A layer a workload does not exercise reads 0; ``measured`` (in the
    # --json report) lists the metrics that were read.  A layer that is
    # missing from the program fails the traced passes instead.
    summary["measured"] = sorted(computed)
    summary["metrics"] = {
        m["name"]: {"value": float(computed.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in names}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", type=Path, help="write every result here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and the fewest passes, for the "
                             "benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # Stopped from outside, the run still stops the child it waits on:
    # subprocess.run kills it when SystemExit interrupts the wait.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    host = host_record()
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    (WORK_DIR / "trace").mkdir(parents=True, exist_ok=True)
    report = {"seed": args.seed, "seconds": args.seconds,
              "trace": bool(args.trace), "host": host, "workloads": {}}
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        if args.smoke:
            modes = plan(MIN_PASSES, bool(args.trace), MIN_PASSES)
        else:
            count = max(MIN_PASSES, round(args.seconds / workload.pass_s))
            modes = plan(count, bool(args.trace), MIN_SETUPS)
        deadline = time.monotonic() + RUN_LIMIT_S
        calibration_before = calibrate()
        began = time.monotonic()
        inputs = workload.prepare(args.seed, args.smoke)
        inputs_path = WORK_DIR / f"{name}.inputs.pkl"
        with open(inputs_path, "wb") as handle:
            pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
        prepare_s = time.monotonic() - began
        try:
            passes = measure(name, inputs_path, modes, deadline)
        finally:
            inputs_path.unlink()
        calibration_after = calibrate()

        summary = summarize(passes, spec, bool(args.trace), workload.op_kind)
        info = summary["info"]
        info["gen_s (excluded from setup_s)"] = prepare_s
        info["calibration_s before/after"] = [calibration_before,
                                              calibration_after]
        info["host_drift"] = (abs(calibration_after - calibration_before)
                              > DRIFT_LIMIT * calibration_before)
        for metric, value in summary["metrics"].items():
            print(f"{name} {metric} {value['value']!r} {value['unit']}")
        for key, value in info.items():
            print(f"# {name} {key}: {value}")
        for problem in summary["problems"][:10]:
            print(f"# {name} FAILED {problem}")
        report["workloads"][name] = {**summary, "passes": [
            {k: v for k, v in p.items() if k not in ("layer", "op_times")}
            for p in passes]}

    results = report["workloads"].values()
    verdict = {
        "correct": all(s["correct"] for s in results),
        "attempted": sum(s["attempted"] for s in results),
        "failed": sum(s["failed"] for s in results),
        "metrics": ({n: s["metrics"] for n, s in report["workloads"].items()}
                    if len(report["workloads"]) > 1
                    else next(iter(results))["metrics"]),
    }
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(verdict))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
