"""Record perfbench/baseline.json from repeated runs at the default seed.

    python3 perfbench/baseline.py

Makes two sets of ``RUNS`` untraced runs of every workload, one set
after the other, and then ``TRACE_RUNS`` traced runs, all at
``run.DEFAULT_SEED``.  Writes every end-to-end metric's median and
quartiles in each set, the per-layer medians, the host record, the
calibration timings and each workload's modeled results, and checks
that the two sets agree: every end-to-end median of the second set is
within its BENCHMARK.json bound of the first, and every modeled result
and digest is identical.  Exits 1 when they do not.  The numbers hold
only for the host that recorded them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 5
TRACE_RUNS = 3


def run(workload: str, trace: int) -> dict:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as scratch:
        report = Path(scratch) / "report.json"
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--trace", str(trace),
             "--json", str(report)],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{workload} failed:\n{done.stdout}{done.stderr}")
        return json.loads(report.read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "values": values}


def modeled(summary: dict) -> dict:
    return {key: value for key, value in summary["info"].items()
            if key.startswith("sim_") or key.endswith(("sha256", "digest"))}


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def record_set(spec: dict) -> dict:
    """{workload: [summary of each untraced run]}"""
    summaries = {}
    for workload in (w["name"] for w in spec["workloads"]):
        summaries[workload] = [run(workload, 0)["workloads"][workload]
                               for _ in range(RUNS)]
        print(f"{workload}: {RUNS} runs", flush=True)
    return summaries


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [record_set(spec), record_set(spec)]
    baseline = {"seed": DEFAULT_SEED, "run_seconds": spec["run_seconds"],
                "runs_per_set": RUNS, "trace_runs": TRACE_RUNS,
                "host": None, "workloads": {}}
    agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        reports = [run(workload, 1) for _ in range(TRACE_RUNS)]
        baseline["host"] = reports[0]["host"]
        traces = [r["workloads"][workload] for r in reports]
        record = baseline["workloads"][workload] = {"sets": []}
        for summaries in (s[workload] for s in sets):
            record["sets"].append({
                m["name"]: {"unit": m["unit"], **spread(
                    [s["metrics"][m["name"]]["value"] for s in summaries])}
                for m in spec["end_to_end"]})
        first, second = record["sets"]
        record["second_set_worsening"] = {
            m["name"]: worsening(m, first[m["name"]]["median"],
                                 second[m["name"]]["median"])
            for m in spec["end_to_end"]}
        within = all(record["second_set_worsening"][m["name"]] <= m["bound"]
                     for m in spec["end_to_end"])
        models = [modeled(s) for summaries in sets
                  for s in summaries[workload]]
        record["model"] = models[0]
        record["model_identical"] = all(m == models[0] for m in models)
        agree = agree and within and record["model_identical"]
        record["per_layer_median"] = {
            m["name"]: statistics.median(
                t["metrics"][m["name"]]["value"] for t in traces)
            for m in spec["per_layer"]}
        runs = [s for summaries in sets for s in summaries[workload]]
        record["calibration_s"] = [s["info"]["calibration_s before/after"]
                                   for s in runs]
        record["host_drift_runs"] = sum(s["info"]["host_drift"] for s in runs)
        print(f"{workload}: medians within bounds {within}, "
              f"modeled results identical {record['model_identical']}",
              flush=True)
    baseline["sets_agree"] = agree
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
