"""Tests for the three-system runner."""

import pytest

from repro.accel.watchdog import DEFAULT_BUDGET_CYCLES
from repro.bench.microbench import build_microbench
from repro.bench.runner import (
    SYSTEMS,
    Workload,
    run_deserialization,
    run_serialization,
)
from repro.proto import parse_schema
from repro.proto.message import Message


@pytest.fixture(scope="module")
def deser_result():
    return run_deserialization(build_microbench("varint-4", batch=4))


@pytest.fixture(scope="module")
def ser_result():
    return run_serialization(build_microbench("varint-4", batch=4))


class TestRunner:
    def test_all_three_systems_present(self, deser_result):
        assert set(deser_result.results) == set(SYSTEMS)

    def test_wire_bytes_consistent_across_systems(self, deser_result):
        wire_bytes = {r.wire_bytes for r in deser_result.results.values()}
        assert len(wire_bytes) == 1

    def test_throughputs_positive(self, deser_result, ser_result):
        for result in (deser_result, ser_result):
            for system in SYSTEMS:
                assert result.gbps(system) > 0

    def test_speedup_helper(self, deser_result):
        assert deser_result.speedup("riscv-boom-accel") == pytest.approx(
            deser_result.gbps("riscv-boom-accel")
            / deser_result.gbps("riscv-boom"))

    def test_verification_catches_nothing_on_good_run(self):
        # verify=True round-trips every message through the accelerator.
        run_deserialization(build_microbench("string", batch=2),
                            verify=True)
        run_serialization(build_microbench("string", batch=2), verify=True)

    def test_operation_labels(self, deser_result, ser_result):
        assert deser_result.operation == "deserialize"
        assert ser_result.operation == "serialize"


def test_large_fault_free_message_is_not_watchdog_aborted():
    # 60,000 unpacked int32 elements decode in about 200k accelerator
    # cycles, twice the default watchdog budget.  With no fault plan
    # armed nothing can hang, so the benchmark must run it to the end.
    schema = parse_schema(
        'syntax = "proto2"; message Big { repeated int32 v = 1; }')
    message = Message(schema["Big"])
    message["v"].extend(range(60_000))
    result = run_deserialization(
        Workload("big-repeated", schema["Big"], [message]))
    assert result.results["riscv-boom-accel"].cycles > DEFAULT_BUDGET_CYCLES
