"""The software protobuf serializer and ByteSize pass.

This is the baseline the paper accelerates: a faithful model of the C++
library's two-pass serialization (``ByteSizeLong`` then ``Serialize``),
writing fields in increasing field-number order from low to high addresses.
The accelerator's serializer must produce byte-identical output despite
iterating in *reverse* order (Section 4.5.1); our test suite pins that
equivalence.

This is the library's one serialize path: with or without a
:class:`~repro.proto.trace.Trace` attached, a serialize runs the same
passes, and a trace records the primitive-operation event stream
consumed by the CPU cost models.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.proto.descriptor import FieldDescriptor
from repro.proto.errors import EncodeError
from repro.proto.message import Message
from repro.proto.trace import Op, Trace
from repro.proto.types import (
    FIXED_WIDTH_BYTES,
    FieldType,
    WireType,
    ZIGZAG_TYPES,
)
from repro.proto.varint import (
    encode_signed,
    encode_varint,
    encode_zigzag,
    varint_length,
)
from repro.proto.wire import encode_tag, tag_length

_STRUCT_FORMATS = {
    FieldType.DOUBLE: "<d",
    FieldType.FLOAT: "<f",
    FieldType.FIXED32: "<I",
    FieldType.FIXED64: "<Q",
    FieldType.SFIXED32: "<i",
    FieldType.SFIXED64: "<q",
}


def _varint_payload(fd: FieldDescriptor, value) -> int:
    """Map a field value to its unsigned varint wire payload."""
    ft = fd.field_type
    if ft is FieldType.BOOL:
        return 1 if value else 0
    if ft in ZIGZAG_TYPES:
        return encode_zigzag(int(value))
    return encode_signed(int(value))


def scalar_wire_size(fd: FieldDescriptor, value) -> int:
    """Encoded size of one element's *value* (no key, no length prefix)."""
    ft = fd.field_type
    if ft in FIXED_WIDTH_BYTES:
        return FIXED_WIDTH_BYTES[ft]
    if ft is FieldType.STRING:
        encoded = len(value.encode("utf-8"))
        return varint_length(encoded) + encoded
    if ft is FieldType.BYTES:
        return varint_length(len(value)) + len(value)
    if ft is FieldType.MESSAGE:
        size = byte_size(value)
        return varint_length(size) + size
    return varint_length(_varint_payload(fd, value))


def _field_byte_size(fd: FieldDescriptor, value, trace: Optional[Trace]) -> int:
    """Encoded size of a whole field including key(s)."""
    if trace is not None:
        trace.emit(Op.BYTESIZE_FIELD)
    key_len = tag_length(fd.number, _outer_wire_type(fd))
    if not fd.is_repeated:
        return key_len + scalar_wire_size(fd, value)
    if fd.packed:
        payload = sum(scalar_wire_size(fd, item) for item in value)
        return key_len + varint_length(payload) + payload
    return sum(key_len + scalar_wire_size(fd, item) for item in value)


def _outer_wire_type(fd: FieldDescriptor) -> WireType:
    """Wire type of the field's key as written on the wire."""
    if fd.is_repeated and fd.packed:
        return WireType.LENGTH_DELIMITED
    return fd.wire_type


def byte_size(message: Message, trace: Optional[Trace] = None) -> int:
    """Total encoded size of ``message`` (C++ ``ByteSizeLong``).

    Walks every *defined* field (the hasbits scan the paper discusses in
    Section 3.7) and sizes the present ones, recursing into sub-messages;
    preserved unknown fields count too.
    """
    total = 0
    for fd in message.descriptor.fields:
        if trace is not None:
            trace.emit(Op.FIELD_CHECK)
        if not message.has(fd.name):
            continue
        total += _field_byte_size(fd, message[fd.name], trace)
    for number, wire_value, value_bytes in message._unknown:
        total += tag_length(number, WireType(wire_value))
        total += len(value_bytes)
    return total


def _encode_scalar(out: bytearray, fd: FieldDescriptor, value,
                   trace: Optional[Trace]) -> None:
    """Append one element's value bytes (no key)."""
    ft = fd.field_type
    if ft in _STRUCT_FORMATS:
        out += struct.pack(_STRUCT_FORMATS[ft], value)
        if trace is not None:
            trace.emit(Op.FIXED_WRITE, FIXED_WIDTH_BYTES[ft])
        return
    if ft in (FieldType.STRING, FieldType.BYTES):
        payload = value.encode("utf-8") if ft is FieldType.STRING else value
        length_bytes = encode_varint(len(payload))
        out += length_bytes
        out += payload
        if trace is not None:
            trace.emit(Op.VARINT_ENCODE, len(length_bytes))
            trace.emit(Op.MEMCPY, len(payload))
        return
    if ft is FieldType.MESSAGE:
        body_size = byte_size(value)
        length_bytes = encode_varint(body_size)
        out += length_bytes
        if trace is not None:
            trace.emit(Op.VARINT_ENCODE, len(length_bytes))
            trace.emit(Op.MSG_ENTER)
        _encode_message(out, value, trace)
        if trace is not None:
            trace.emit(Op.MSG_EXIT)
        return
    if ft in ZIGZAG_TYPES and trace is not None:
        trace.emit(Op.ZIGZAG)
    payload_bytes = encode_varint(_varint_payload(fd, value))
    out += payload_bytes
    if trace is not None:
        trace.emit(Op.VARINT_ENCODE, len(payload_bytes))


def _encode_field(out: bytearray, fd: FieldDescriptor, value,
                  trace: Optional[Trace]) -> None:
    key = encode_tag(fd.number, _outer_wire_type(fd))
    if not fd.is_repeated:
        out += key
        if trace is not None:
            trace.emit(Op.TAG_ENCODE, len(key))
        _encode_scalar(out, fd, value, trace)
        return
    if fd.packed:
        out += key
        if trace is not None:
            trace.emit(Op.TAG_ENCODE, len(key))
        payload = bytearray()
        for item in value:
            _encode_scalar(payload, fd, item, trace)
        length_bytes = encode_varint(len(payload))
        # Re-order: the length prefix precedes the payload on the wire.
        out += length_bytes
        out += payload
        if trace is not None:
            trace.emit(Op.VARINT_ENCODE, len(length_bytes))
        return
    for item in value:
        out += key
        if trace is not None:
            trace.emit(Op.TAG_ENCODE, len(key))
        _encode_scalar(out, fd, item, trace)


def _encode_message(out: bytearray, message: Message,
                    trace: Optional[Trace]) -> None:
    for fd in message.descriptor.fields:
        if trace is not None:
            trace.emit(Op.FIELD_CHECK)
        if not message.has(fd.name):
            continue
        _encode_field(out, fd, message[fd.name], trace)
    # Preserved unknown fields re-emit verbatim after the known fields,
    # matching upstream's UnknownFieldSet placement.
    for number, wire_value, value_bytes in message._unknown:
        out += encode_tag(number, WireType(wire_value))
        out += value_bytes
        if trace is not None:
            trace.emit(Op.MEMCPY, len(value_bytes))


def serialize_message(message: Message, trace: Optional[Trace] = None,
                      check_required: bool = True) -> bytes:
    """Serialize ``message`` to wire bytes (software path).

    Performs the ByteSize pass first (as the C++ library does -- the paper's
    Figure 2 attributes 6.0% of protobuf cycles to Byte Size, virtually all
    called from serialization), then the encode pass.
    """
    if check_required:
        message.check_initialized()
    expected = byte_size(message, trace)
    out = bytearray()
    _encode_message(out, message, trace)
    if len(out) != expected:
        raise EncodeError(
            f"ByteSize pass predicted {expected} bytes but encoder wrote "
            f"{len(out)} -- internal inconsistency")
    return bytes(out)
