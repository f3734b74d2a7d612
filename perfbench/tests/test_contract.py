"""BENCHMARK.json stays within the limits the benchmark promises."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

#: Runs a benchmark acceptance makes, and the time they must fit in.
RUNS_PER_WORKLOAD = 22
EXTRA_RUNS = 4
TOTAL_BUDGET_S = 3420
#: Allowance per run beyond run_seconds: input generation, set-up-only
#: children, calibration, interpreter start-up, and passes that take
#: longer than nominal on a loaded host.  Measured on a loaded 2-vCPU
#: VM: 80 runs took 29.7 s on average, 11.7 s beyond run_seconds; with
#: longer PCIe and churn passes, on a more loaded day, 18.5 s beyond.
RUN_OVERHEAD_S = 19


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC_PATH.stat().st_size <= 64 * 1024


def test_counts_within_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_every_name_is_valid_and_used_once():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_workloads_match_the_benchmark():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"]
        assert 0 < len(workload["why"]) <= 200


def test_metric_entries():
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")


def test_setup_time_has_the_largest_bound():
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


def test_command_and_paths():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (ROOT / path).is_dir()


def test_acceptance_runs_fit_the_time_budget():
    runs = EXTRA_RUNS + RUNS_PER_WORKLOAD * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + RUN_OVERHEAD_S) <= TOTAL_BUDGET_S
