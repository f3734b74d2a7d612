"""Tests for the RoCC command interface."""

import pytest

from repro.soc.rocc import RoccFunct, RoccInstruction, RoccInterface


class TestInstruction:
    def test_operands_must_fit_64_bits(self):
        RoccInstruction(RoccFunct.DESER_INFO, 2**64 - 1, 0)
        with pytest.raises(ValueError):
            RoccInstruction(RoccFunct.DESER_INFO, 2**64, 0)
        with pytest.raises(ValueError):
            RoccInstruction(RoccFunct.DESER_INFO, 0, -1)


class TestInterface:
    def test_dispatch_accounting(self):
        rocc = RoccInterface(dispatch_cycles_each=4)
        rocc.issue(RoccInstruction(RoccFunct.DESER_INFO))
        rocc.issue(RoccInstruction(RoccFunct.DO_PROTO_DESER))
        assert rocc.instructions_issued == 2
        assert rocc.dispatch_cycles_total == 8

    def test_inflight_tracking(self):
        rocc = RoccInterface()
        rocc.issue(RoccInstruction(RoccFunct.DO_PROTO_DESER))
        rocc.issue(RoccInstruction(RoccFunct.DO_PROTO_DESER))
        assert rocc.inflight_deserializations == 2
        rocc.retire_deser()
        assert rocc.inflight_deserializations == 1
        assert not rocc.block_for_deser_completion()
        rocc.retire_deser()
        assert rocc.block_for_deser_completion()

    def test_ser_inflight_tracking(self):
        rocc = RoccInterface()
        rocc.issue(RoccInstruction(RoccFunct.DO_PROTO_SER))
        assert rocc.inflight_serializations == 1
        rocc.retire_ser()
        assert rocc.block_for_ser_completion()

    def test_over_retire_rejected(self):
        rocc = RoccInterface()
        with pytest.raises(RuntimeError):
            rocc.retire_deser()
        with pytest.raises(RuntimeError):
            rocc.retire_ser()
