"""Differential suite: RoCC vs PCIe attach points.

The transport seam's contract: the attach point changes *where* the
accelerator hangs, never *what* it computes or how many unit cycles it
charges.  On arbitrary valid messages, adversarially mutated wire, and
the PR 2 known-bad vector corpus, both transports must produce
identical decoded messages, identical structured errors, and identical
stats except the ``transport_cycles`` field -- which in turn must be
bit-identical across the interp/codegen execution tiers on each
transport (the schedule is a pure function of the submission stream).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from repro.accel.driver import ProtoAccelerator
from repro.proto import parse_schema
from repro.proto.decoder import parse_message
from repro.proto.errors import DecodeError
from repro.soc.config import SoCConfig

from tests.accel.test_codegen_diff import (
    _VICTIM_SCHEMA,
    _load_bad_vectors,
    _probe_message,
)
from tests.accel.test_codegen_diff import _PROBE_SCHEMA as _SCHEMA
from tests.strategies import schema_and_message, schema_wire_and_mutant

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

TRANSPORTS = ("rocc", "pcie")


def _accel(schema, transport, fast_path="codegen"):
    device = ProtoAccelerator(config=SoCConfig(transport=transport),
                              deser_arena_bytes=1 << 20,
                              ser_arena_bytes=1 << 20,
                              fast_path=fast_path)
    device.register_schema(schema)
    return device


def _stats_minus_transport(stats):
    return dataclasses.replace(stats, transport_cycles=0.0)


@_SETTINGS
@given(schema_and_message())
def test_valid_messages_identical_across_transports(pair):
    """Decoded message, re-encoded wire, and every stats field except
    transport_cycles agree across attach points."""
    schema, message = pair
    from repro.proto.encoder import serialize_message
    wire = serialize_message(message, check_required=False)
    outcomes = {}
    for transport in TRANSPORTS:
        device = _accel(schema, transport)
        result = device.deserialize(schema["Root"], wire)
        decoded = device.read_message(schema["Root"], result.dest_addr)
        addr = device.load_object(message)
        ser = device.serialize(schema["Root"], addr)
        outcomes[transport] = (decoded, ser.data,
                               _stats_minus_transport(result.stats),
                               _stats_minus_transport(ser.stats))
    assert outcomes["rocc"] == outcomes["pcie"]
    assert outcomes["rocc"][0] == parse_message(schema["Root"], wire)
    assert outcomes["rocc"][1] == wire


@_SETTINGS
@given(schema_wire_and_mutant())
def test_mutated_wire_verdicts_identical_across_transports(triple):
    schema, _, mutant = triple
    outcomes = []
    for transport in TRANSPORTS:
        device = _accel(schema, transport)
        try:
            result = device.deserialize(schema["Root"], mutant)
            outcomes.append(("ok", _stats_minus_transport(result.stats),
                             device.read_message(schema["Root"],
                                                 result.dest_addr)))
        except DecodeError as error:
            outcomes.append(("err", type(error), str(error),
                             getattr(error, "site", None)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("data", _load_bad_vectors())
def test_known_bad_vectors_rejected_identically(data):
    rejections = []
    for transport in TRANSPORTS:
        device = _accel(_VICTIM_SCHEMA, transport)
        with pytest.raises(DecodeError) as excinfo:
            device.deserialize(_VICTIM_SCHEMA["Victim"], data)
        rejections.append(excinfo.value)
    rocc_error, pcie_error = rejections
    assert type(pcie_error) is type(rocc_error)
    assert str(pcie_error) == str(rocc_error)
    assert pcie_error.site == rocc_error.site
    assert pcie_error.cycle == rocc_error.cycle


# -- tier identity of the transport schedule ---------------------------------

def test_transport_cycles_identical_across_execution_tiers():
    """The PCIe interrupt/doorbell schedule is a pure function of the
    submission stream, so interp-tier and codegen-tier runs charge
    bit-identical transport_cycles -- the same invariant the repo pins
    for unit cycles."""
    message = _probe_message()
    wires = [message.serialize()] * 12
    for transport in TRANSPORTS:
        per_tier = {}
        for fast_path in ("interp", "codegen"):
            device = _accel(_SCHEMA, transport, fast_path=fast_path)
            _, stats = device.deserialize_batch(_SCHEMA["Probe"], wires)
            addresses = [device.load_object(message) for _ in wires]
            _, ser_stats = device.serialize_batch(_SCHEMA["Probe"],
                                                  addresses)
            per_tier[fast_path] = (stats.transport_cycles,
                                   ser_stats.transport_cycles,
                                   stats.cycles, ser_stats.cycles)
        assert per_tier["interp"] == per_tier["codegen"], \
            f"tier divergence on {transport}"


def test_rocc_transport_cycles_are_dispatch_cost():
    """RoCC per-op transport cost is exactly two custom instructions'
    dispatch (INFO + DO_PROTO), 8 cycles at the default 4/instruction;
    the batch fence adds one fence instruction per batch call."""
    message = _probe_message()
    wire = message.serialize()
    device = _accel(_SCHEMA, "rocc")
    result = device.deserialize(_SCHEMA["Probe"], wire)
    assert result.stats.transport_cycles == 8.0
    addr = device.load_object(message)
    ser = device.serialize(_SCHEMA["Probe"], addr)
    assert ser.stats.transport_cycles == 8.0


def test_pcie_amortises_across_a_batch():
    """One message alone pays the full doorbell+DMA+interrupt path; the
    same message inside a large batch pays a small amortised share."""
    message = _probe_message()
    wire = message.serialize()
    solo = _accel(_SCHEMA, "pcie")
    solo_cost = solo.deserialize(_SCHEMA["Probe"],
                                 wire).stats.transport_cycles
    batched = _accel(_SCHEMA, "pcie")
    _, stats = batched.deserialize_batch(_SCHEMA["Probe"], [wire] * 64)
    per_op = stats.transport_cycles / 64
    assert per_op < solo_cost / 10


def test_unit_cycles_do_not_depend_on_transport():
    """stats.cycles (and therefore Gbit/s) is byte-identical across
    transports -- the acceptance criterion that keeps every committed
    baseline valid."""
    message = _probe_message()
    wire = message.serialize()
    cycles = {}
    for transport in TRANSPORTS:
        device = _accel(_SCHEMA, transport)
        result = device.deserialize(_SCHEMA["Probe"], wire)
        addr = device.load_object(message)
        ser = device.serialize(_SCHEMA["Probe"], addr)
        cycles[transport] = (result.stats.cycles, ser.stats.cycles)
    assert cycles["rocc"] == cycles["pcie"]
