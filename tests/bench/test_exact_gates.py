"""The pieces the exact-gate runner (``scripts/bench_speed.py``) relies
on: the transport sweep's crossover and amortisation reductions, the
record diff that names what changed, and the figures section's
reversed-order rerun."""

import copy
import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.bench.transport import amortization_violations, crossover_batches

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_speed.py"


@pytest.fixture(scope="module")
def bench_speed():
    spec = importlib.util.spec_from_file_location("bench_speed", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(size, batch, pcie_per_op, pcie_wins, rocc_per_op=8.0):
    return {"size": size, "batch": batch, "operation": "deserialize",
            "rocc_transport_per_op": rocc_per_op,
            "pcie_transport_per_op": pcie_per_op, "pcie_wins": pcie_wins}


# Out of order on purpose: both reductions sort by size, then batch.
ROWS = [
    _row(16, 64, 60.0, True),
    _row(16, 1, 100.0, False),
    _row(16, 8, 50.0, True),
    _row(1024, 1, 900.0, False),
    _row(1024, 8, 300.0, False),
    _row(1024, 64, 300.0, False),
]


class TestCrossover:
    def test_smallest_winning_batch_per_size(self):
        small = crossover_batches(ROWS)[0]
        assert small["size"] == 16
        assert small["crossover_batch"] == 8
        assert small["max_batch"] == 64
        assert small["pcie_per_op_at_max_batch"] == 60.0
        assert small["rocc_per_op_at_max_batch"] == 8.0

    def test_size_that_never_wins_has_no_crossover(self):
        _, large = crossover_batches(ROWS)
        assert large["size"] == 1024
        assert large["crossover_batch"] is None


class TestAmortization:
    def test_rising_per_op_cell_is_reported(self):
        assert amortization_violations(ROWS) == [{
            "size": 16, "batch_before": 8, "batch_after": 64,
            "per_op_before": 50.0, "per_op_after": 60.0}]

    def test_flat_or_falling_cost_passes(self):
        assert amortization_violations(
            [row for row in ROWS if row["size"] == 1024]) == []


RECORD = {
    "fleet": {"charging_digest": "0586bef1", "echo_rows": [{"p99": 1.5}]},
    "transport": {"rows": {"deserialize": [
        {"size": 16, "batch": b, "rocc_total_cycles": 176.8 + b}
        for b in range(5)]}},
}


class TestRecordDiff:
    def test_equal_records_give_no_paths(self, bench_speed):
        assert bench_speed.record_diff(RECORD, copy.deepcopy(RECORD)) == []

    def test_changed_leaf_gives_its_key_path(self, bench_speed):
        changed = copy.deepcopy(RECORD)
        changed["transport"]["rows"]["deserialize"][3][
            "rocc_total_cycles"] = 180.8
        assert bench_speed.record_diff(RECORD, changed) == [
            "transport.rows.deserialize[3].rocc_total_cycles: "
            "179.8 -> 180.8"]

    def test_number_type_change_is_a_difference(self, bench_speed):
        changed = copy.deepcopy(RECORD)
        changed["transport"]["rows"]["deserialize"][0]["size"] = 16.0
        assert bench_speed.record_diff(RECORD, changed) == [
            "transport.rows.deserialize[0].size: 16 -> 16.0"]

    def test_missing_and_added_keys_are_named(self, bench_speed):
        changed = copy.deepcopy(RECORD)
        del changed["fleet"]["charging_digest"]
        changed["fleet"]["extra"] = 1
        assert bench_speed.record_diff(RECORD, changed) == [
            "fleet.charging_digest: '0586bef1' -> '(absent)'",
            "fleet.extra: '(absent)' -> 1"]


class TestFiguresSection:
    def test_records_each_digest_and_perfbench_combined_one(
            self, bench_speed, monkeypatch):
        from repro.bench import figures
        monkeypatch.setattr(figures, "ALL_FIGURES",
                            {"a": lambda: "alpha", "b": lambda: "beta"})
        errors = []
        record = bench_speed.figures_section(errors)
        assert errors == []
        assert record["sha256"] == {
            "a": hashlib.sha256(b"alpha").hexdigest(),
            "b": hashlib.sha256(b"beta").hexdigest()}
        assert record["figures_sha256"] == hashlib.sha256(
            b"alpha\0beta").hexdigest()

    def test_figure_that_depends_on_run_order_is_named(
            self, bench_speed, monkeypatch):
        from repro.bench import figures
        calls = []

        def counted():
            calls.append(None)
            return f"run {len(calls)}"

        monkeypatch.setattr(figures, "ALL_FIGURES",
                            {"steady": lambda: "same", "counted": counted})
        errors = []
        bench_speed.figures_section(errors)
        assert errors == ["figures: counted differs when the figures run "
                          "in reversed order"]
