"""Every workload at smoke size, untraced and traced."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(tmp_path_factory, trace: int):
    report = tmp_path_factory.mktemp("perfbench") / "report.json"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke",
         "--trace", str(trace), "--json", str(report)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return done, json.loads(report.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory, 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory, 1)


def _metric_lines(stdout: str) -> dict:
    """{workload: [(metric, unit), ...]} from the printed metric lines."""
    lines = {}
    for line in stdout.splitlines()[:-1]:
        if line.startswith("#"):
            continue
        workload, metric, value, unit = line.split(" ")
        float(value)
        lines.setdefault(workload, []).append((metric, unit))
    return lines


def _check_run(done, names):
    assert done.returncode == 0, done.stdout + done.stderr
    verdict = json.loads(done.stdout.splitlines()[-1])
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["failed"] == 0
    assert verdict["attempted"] >= len(WORKLOADS)
    expected = [(m["name"], m["unit"]) for m in names]
    assert _metric_lines(done.stdout) == {w: expected for w in WORKLOADS}


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    done, report = untraced
    _check_run(done, SPEC["end_to_end"])
    for summary in report["workloads"].values():
        for metric in summary["metrics"].values():
            assert metric["value"] > 0


def test_traced_run_prints_every_per_layer_metric(traced):
    done, report = traced
    _check_run(done, SPEC["per_layer"])
    measured = set()
    for summary in report["workloads"].values():
        measured.update(summary["measured"])
    # One metric per figure; the smoke size runs only a few figures.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from repro.bench.figures import ALL_FIGURES
    from workloads import SMOKE_FIGURES
    names = {m["name"] for m in SPEC["per_layer"]}
    figures = {f"bench.figure.{name}.s": name for name in ALL_FIGURES}
    assert {n for n in names if n.startswith("bench.figure.")} == set(figures)
    # Every other per-layer metric is measured by at least one workload.
    assert {n for n in names
            if figures.get(n, SMOKE_FIGURES[0]) in SMOKE_FIGURES} <= measured


def test_tracing_leaves_the_model_unchanged(untraced, traced):
    for workload in WORKLOADS:
        passes = [p for _, report in (untraced, traced)
                  for p in report["workloads"][workload]["passes"]
                  if p["mode"] != "setup"]
        assert {p["mode"] for p in passes} == {"run", "trace"}
        assert all(p["model"] == passes[0]["model"] for p in passes), workload


def _copy_benchmark(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0]],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_run_fails_when_an_entry_point_is_missing(tmp_path):
    """A renamed entry point must fail the run, not read as a layer that
    takes no time."""
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    spans_py = tmp_path / "perfbench" / "spans.py"
    source = spans_py.read_text()
    entry = '"ResilientServer", "call",'
    assert entry in source
    spans_py.write_text(source.replace(entry, '"ResilientServer", "gone",'))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--trace", "1",
         "--workload", "fleet-steady"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    verdict = json.loads(done.stdout.splitlines()[-1])
    assert not verdict["correct"] and verdict["failed"] >= 1
    assert "ResilientServer.gone is not in this program" in done.stdout
