"""Property tests: accelerator <-> software equivalence on random data.

These are the repository's strongest invariants:

1. the accelerator serializer's output is byte-identical to the software
   serializer for arbitrary messages (Section 4.5.1's claim);
2. the accelerator deserializer populates object images that read back
   equal to the software parser's result; and
3. an object image written from a message reads back equal to it.
"""

from hypothesis import HealthCheck, given, settings

from repro.accel.driver import ProtoAccelerator
from repro.memory.layout import (
    LayoutCache,
    read_message_image,
    write_message_image,
)
from repro.memory.memspace import SimMemory
from repro.proto.decoder import parse_message
from repro.proto.encoder import serialize_message

from tests.strategies import schema_and_message

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(schema_and_message())
def test_accelerator_serializer_wire_identical(pair):
    schema, message = pair
    accel = ProtoAccelerator()
    accel.register_types([schema["Root"]])
    addr = accel.load_object(message)
    result = accel.serialize(message.descriptor, addr)
    assert result.data == serialize_message(message, check_required=False)


@_SETTINGS
@given(schema_and_message())
def test_accelerator_deserializer_matches_software(pair):
    schema, message = pair
    data = serialize_message(message, check_required=False)
    accel = ProtoAccelerator()
    accel.register_types([schema["Root"]])
    result = accel.deserialize(message.descriptor, data)
    observed = accel.read_message(message.descriptor, result.dest_addr)
    assert observed == parse_message(message.descriptor, data)


@_SETTINGS
@given(schema_and_message())
def test_full_accelerator_round_trip(pair):
    """serialize-on-accel(deserialize-on-accel(wire)) == wire."""
    schema, message = pair
    data = serialize_message(message, check_required=False)
    accel = ProtoAccelerator()
    accel.register_types([schema["Root"]])
    deser = accel.deserialize(message.descriptor, data)
    # Re-serialize from the object image the deserializer built.  Note the
    # image was written by the accelerator itself, not load_object.
    result = accel.serialize(message.descriptor, deser.dest_addr)
    # Canonical form: our software encoder is deterministic, so comparing
    # against a software re-encode of the parsed message is exact.
    expected = serialize_message(
        parse_message(message.descriptor, data), check_required=False)
    assert result.data == expected


@_SETTINGS
@given(schema_and_message())
def test_object_image_round_trip(pair):
    """write_message_image then read_message_image is the identity."""
    _, message = pair
    memory = SimMemory()
    cache = LayoutCache()
    addr = write_message_image(memory, memory.allocate, message, cache)
    assert read_message_image(memory, message.descriptor, addr,
                              cache) == message
