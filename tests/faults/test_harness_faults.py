"""Bench-harness fault integration: end-to-end runs under fault load.

The acceptance bar for the subsystem: benchmark workloads complete with
verification ON while every message is subject to injection -- recovery
must be value-preserving at workload scale -- and the fault-free path
stays bit-identical to a harness that has never heard of faults.
"""

import dataclasses

import pytest

from repro.bench.harness import (
    WorkloadSpec,
    run_many,
    run_spec,
)
from repro.bench.report import fault_degradation_table
from repro.bench.runner import SystemResult
from repro.faults import FaultPlan

_SPECS = [WorkloadSpec("micro", "varint-3", "deserialize", 6),
          WorkloadSpec("micro", "string", "serialize", 6),
          WorkloadSpec("hyper", "bench0", "deserialize", 3),
          WorkloadSpec("hyper", "bench0", "serialize", 3)]


def test_zero_rate_plan_matches_no_plan():
    """A rate-0 plan must be indistinguishable from no plan at all:
    same cycles, same throughput."""
    plan = FaultPlan(seed=9, rate=0.0)
    spec = _SPECS[0]
    without = run_spec(spec, faults=None)
    with_plan = run_spec(spec, faults=plan)
    assert dataclasses.asdict(without.results["riscv-boom-accel"]) == \
        dataclasses.asdict(with_plan.results["riscv-boom-accel"])


def test_workloads_complete_under_heavy_fault_load():
    """Every message faulted (rate 1.0): all four specs run to
    completion with verify=True, so each faulted message was retried or
    CPU-fallback-decoded bit-identically."""
    plan = FaultPlan(seed=2, rate=1.0, max_trigger=2)
    results = run_many(_SPECS, faults=plan)
    assert len(results) == len(_SPECS)
    total_injected = sum(r.results["riscv-boom-accel"].faults_injected
                        for r in results)
    assert total_injected > 0
    for result in results:
        accel = result.results["riscv-boom-accel"]
        # Every injected fault resolves to exactly one retry or fallback.
        assert accel.faults_injected == (accel.transient_retries
                                         + accel.cpu_fallbacks)
        assert accel.gbits_per_second > 0


def test_faulted_throughput_never_exceeds_clean():
    plan = FaultPlan(seed=2, rate=1.0, max_trigger=2)
    clean = run_many(_SPECS, faults=None)
    faulted = run_many(_SPECS, faults=plan)
    for c, f in zip(clean, faulted):
        fa = f.results["riscv-boom-accel"]
        if fa.faults_injected:
            assert fa.cycles > c.results["riscv-boom-accel"].cycles


def test_fault_runs_are_reproducible():
    plan = FaultPlan(seed=5, rate=0.5)
    first = run_many(_SPECS, faults=plan)
    second = run_many(_SPECS, faults=plan)
    for a, b in zip(first, second):
        assert dataclasses.asdict(a.results["riscv-boom-accel"]) == \
            dataclasses.asdict(b.results["riscv-boom-accel"])


def test_old_cached_json_without_fault_fields_still_loads():
    # Results built without the fault counters (the software systems,
    # older callers) rely on the dataclass defaults.
    legacy = {"system": "riscv-boom-accel", "gbits_per_second": 1.0,
              "cycles": 10.0, "wire_bytes": 100}
    result = SystemResult(**legacy)
    assert result.faults_injected == 0
    assert result.cpu_fallbacks == 0


def test_degradation_table_renders():
    plan = FaultPlan(seed=2, rate=1.0, max_trigger=2)
    clean = run_many(_SPECS, faults=None)
    faulted = run_many(_SPECS, faults=plan)
    table = fault_degradation_table([(0.0, clean), (1.0, faulted)])
    assert "degradation curve" in table
    assert "100.0%" in table
    lines = table.splitlines()
    assert any(line.lstrip().startswith("100.00%") for line in lines)


def test_degradation_table_rejects_empty_curve():
    with pytest.raises(ValueError):
        fault_degradation_table([])
