"""The software protobuf deserializer.

Models the C++ parser the paper profiles: a sequential scan over the wire
bytes (deserialization is inherently serial -- Section 2.2), decoding one
key at a time, dispatching on wire type, allocating strings/sub-messages/
repeated elements as they are encountered, and skipping unknown fields.

This is the library's one parse path: with or without a
:class:`~repro.proto.trace.Trace` attached, a parse runs the same loop,
and a trace records the primitive-operation event stream consumed by
the CPU cost models.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.proto.descriptor import FieldDescriptor, MessageDescriptor
from repro.proto.errors import DecodeError
from repro.proto.message import Message
from repro.proto.trace import Op, Trace
from repro.proto.types import (
    FieldType,
    WireType,
    ZIGZAG_TYPES,
)
from repro.proto.varint import decode_signed, decode_varint, decode_zigzag
from repro.proto.wire import decode_tag, skip_field

_STRUCT_FORMATS = {
    FieldType.DOUBLE: ("<d", 8),
    FieldType.FLOAT: ("<f", 4),
    FieldType.FIXED32: ("<I", 4),
    FieldType.FIXED64: ("<Q", 8),
    FieldType.SFIXED32: ("<i", 4),
    FieldType.SFIXED64: ("<q", 8),
}

#: Nominal heap cost of constructing an empty C++ message object; used only
#: for trace accounting (OBJ_CONSTRUCT events), not functional behaviour.
_NOMINAL_MESSAGE_OBJECT_BYTES = 48


def _decode_varint_value(fd: FieldDescriptor, payload: int):
    """Convert an unsigned varint payload into the field's Python value."""
    ft = fd.field_type
    if ft is FieldType.BOOL:
        return payload != 0
    if ft in ZIGZAG_TYPES:
        value = decode_zigzag(payload)
        if ft is FieldType.SINT32:
            return decode_signed(value & 0xFFFFFFFF, bits=32)
        return value
    if ft in (FieldType.INT32, FieldType.ENUM):
        # C++ semantics: the 64-bit payload is truncated to 32 bits (a
        # negative int32 arrives sign-extended to 10 wire bytes and its
        # low half reconstructs the value exactly).
        return decode_signed(payload & 0xFFFFFFFF, bits=32)
    if ft is FieldType.INT64:
        return decode_signed(payload, bits=64)
    if ft is FieldType.UINT32:
        return payload & 0xFFFFFFFF
    return payload  # UINT64


def _decode_scalar(fd: FieldDescriptor, data: bytes, offset: int,
                   wire_type: WireType, trace: Optional[Trace],
                   arena, keep_unknown: bool = False) -> tuple[object, int]:
    """Decode one element's value; returns (value, new_offset)."""
    ft = fd.field_type
    if ft in _STRUCT_FORMATS:
        fmt, width = _STRUCT_FORMATS[ft]
        expected = (WireType.FIXED32 if width == 4 else WireType.FIXED64)
        if wire_type is not expected:
            raise DecodeError(
                f"field {fd.name}: wire type {wire_type.name} does not "
                f"match {ft.value}")
        if offset + width > len(data):
            raise DecodeError(f"field {fd.name}: truncated fixed value")
        value = struct.unpack_from(fmt, data, offset)[0]
        if trace is not None:
            trace.emit(Op.FIXED_READ, width)
        return value, offset + width
    if ft in (FieldType.STRING, FieldType.BYTES):
        if wire_type is not WireType.LENGTH_DELIMITED:
            raise DecodeError(f"field {fd.name}: expected length-delimited")
        length, consumed = decode_varint(data, offset)
        start = offset + consumed
        end = start + length
        if end > len(data):
            raise DecodeError(f"field {fd.name}: truncated string/bytes")
        raw = data[start:end]
        if trace is not None:
            trace.emit(Op.VARINT_DECODE, consumed)
            trace.emit(Op.ALLOC, max(length, 16))
            trace.emit(Op.MEMCPY, length)
        if ft is FieldType.STRING:
            try:
                return str(raw, "utf-8"), end
            except UnicodeDecodeError:
                if fd.validate_utf8:
                    # proto3 parsers must reject invalid UTF-8.
                    raise DecodeError(
                        f"field {fd.name}: invalid UTF-8 in proto3 "
                        "string") from None
                # proto2 tolerates non-UTF-8 string payloads on parse.
                return str(raw, "latin-1"), end
        return bytes(raw), end
    if ft is FieldType.MESSAGE:
        if wire_type is not WireType.LENGTH_DELIMITED:
            raise DecodeError(f"field {fd.name}: expected length-delimited")
        length, consumed = decode_varint(data, offset)
        start = offset + consumed
        end = start + length
        if end > len(data):
            raise DecodeError(f"field {fd.name}: truncated sub-message")
        assert fd.message_type is not None
        if trace is not None:
            trace.emit(Op.VARINT_DECODE, consumed)
            trace.emit(Op.ALLOC, _NOMINAL_MESSAGE_OBJECT_BYTES)
            trace.emit(Op.OBJ_CONSTRUCT, _NOMINAL_MESSAGE_OBJECT_BYTES)
            trace.emit(Op.MSG_ENTER)
        child = Message(fd.message_type, arena=arena)
        _parse_into(child, data, start, end, trace, arena,
                    keep_unknown=keep_unknown)
        if trace is not None:
            trace.emit(Op.MSG_EXIT)
        return child, end
    # Varint wire type.
    if wire_type is not WireType.VARINT:
        raise DecodeError(
            f"field {fd.name}: wire type {wire_type.name} does not match "
            f"{ft.value}")
    payload, consumed = decode_varint(data, offset)
    if trace is not None:
        trace.emit(Op.VARINT_DECODE, consumed)
        if ft in ZIGZAG_TYPES:
            trace.emit(Op.ZIGZAG)
    return _decode_varint_value(fd, payload), offset + consumed


def _decode_packed(message: Message, fd: FieldDescriptor, data: bytes,
                   offset: int, trace: Optional[Trace], arena,
                   keep_unknown: bool = False) -> int:
    """Decode a packed repeated field's length-delimited payload."""
    length, consumed = decode_varint(data, offset)
    start = offset + consumed
    end = start + length
    if end > len(data):
        raise DecodeError(f"field {fd.name}: truncated packed field")
    if trace is not None:
        trace.emit(Op.VARINT_DECODE, consumed)
        trace.emit(Op.ALLOC, max(length, 16))
    repeated = message[fd.name]
    pos = start
    element_wire = fd.wire_type
    while pos < end:
        value, pos = _decode_scalar(fd, data, pos, element_wire, trace, arena)
        repeated.append(value)
    if pos != end:
        raise DecodeError(f"field {fd.name}: packed payload overran")
    message._hasbits.add(fd.number)
    return end


def _parse_into(message: Message, data: bytes, offset: int, end: int,
                trace: Optional[Trace], arena,
                keep_unknown: bool = False) -> None:
    """Parse wire bytes in [offset, end) into ``message`` (merge semantics)."""
    descriptor = message.descriptor
    pos = offset
    while pos < end:
        field_number, wire_type, consumed = decode_tag(data, pos)
        pos += consumed
        if trace is not None:
            trace.emit(Op.TAG_DECODE, consumed)
            trace.emit(Op.FIELD_DISPATCH)
        fd = descriptor.field_by_number(field_number)
        if fd is None:
            value_start = pos
            pos = skip_field(data, pos, wire_type)
            if keep_unknown:
                # proto2 parsers preserve unrecognised fields so they
                # survive a parse/serialize round trip (schema evolution
                # for intermediaries).
                message._unknown.append(
                    (field_number, int(wire_type),
                     bytes(data[value_start:pos])))
            continue
        if fd.is_repeated:
            if (wire_type is WireType.LENGTH_DELIMITED
                    and fd.wire_type is not WireType.LENGTH_DELIMITED):
                # Packed encoding of a numeric repeated field.  proto2
                # parsers must accept both encodings regardless of the
                # declared option.
                pos = _decode_packed(message, fd, data, pos, trace, arena,
                                     keep_unknown)
                continue
            if trace is not None and not message.has(fd.name):
                # First element of an unpacked repeated field: the parser
                # allocates the vector's initial backing array.
                trace.emit(Op.ALLOC, 64)
            value, pos = _decode_scalar(fd, data, pos, wire_type, trace,
                                        arena, keep_unknown)
            message[fd.name].append(value)
            message._hasbits.add(fd.number)
            continue
        value, pos = _decode_scalar(fd, data, pos, wire_type, trace, arena,
                                    keep_unknown)
        if (fd.field_type is FieldType.MESSAGE
                and message.has(fd.name)):
            # proto2 merge semantics for a repeated occurrence of a
            # singular sub-message field.
            message[fd.name].merge_from(value)
        else:
            message[fd.name] = value
    if pos != end:
        raise DecodeError("message payload overran its length")


def parse_message(descriptor: MessageDescriptor, data: bytes,
                  trace: Optional[Trace] = None, arena=None,
                  keep_unknown: bool = False,
                  check_required: bool = False) -> Message:
    """Deserialize ``data`` into a new message of type ``descriptor``.

    With ``keep_unknown=True``, unrecognised fields are preserved and
    re-emitted on serialization (after the known fields), so data
    written by a newer schema survives transiting an older reader.
    With ``check_required=True``, a missing required field raises
    :class:`DecodeError` (C++ ``ParseFromString``'s IsInitialized check).

    ``data`` may be any bytes-like object; parsing runs over a single
    :class:`memoryview` so nested fields never copy wire bytes (only
    string/bytes *values* are materialised, once each).
    """
    message = Message(descriptor, arena=arena)
    _parse_into(message, memoryview(data), 0, len(data), trace, arena,
                keep_unknown=keep_unknown)
    if check_required:
        try:
            message.check_initialized()
        except Exception as error:
            raise DecodeError(str(error)) from None
    return message


def merge_from_wire(message: Message, data: bytes,
                    trace: Optional[Trace] = None,
                    keep_unknown: bool = False) -> None:
    """Parse ``data`` and merge into an existing ``message`` in place."""
    _parse_into(message, memoryview(data), 0, len(data), trace,
                message.arena, keep_unknown=keep_unknown)
