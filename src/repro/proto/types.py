"""Protobuf field types, wire types, and the paper's performance classes.

Encodes Table 1 of the paper: protobuf field types grouped into
"performance-similar" classes (bytes-like, varint-like, float-like,
double-like, fixed32-like, fixed64-like), and the standard proto2
field-type -> wire-type mapping from Section 2.1.2.
"""

from __future__ import annotations

import enum


class FieldType(enum.Enum):
    """All proto2 scalar field types plus message and group."""

    DOUBLE = "double"
    FLOAT = "float"
    INT32 = "int32"
    INT64 = "int64"
    UINT32 = "uint32"
    UINT64 = "uint64"
    SINT32 = "sint32"
    SINT64 = "sint64"
    FIXED32 = "fixed32"
    FIXED64 = "fixed64"
    SFIXED32 = "sfixed32"
    SFIXED64 = "sfixed64"
    BOOL = "bool"
    ENUM = "enum"
    STRING = "string"
    BYTES = "bytes"
    MESSAGE = "message"
    GROUP = "group"  # deprecated; recognised but rejected by the parser

    # Members are singletons compared by identity, so the identity hash
    # serves; Enum's default hashes the member name in Python on every
    # dict or set lookup, which the interpretive codec does per element.
    __hash__ = object.__hash__


class WireType(enum.IntEnum):
    """The six protobuf wire types (two deprecated)."""

    VARINT = 0
    FIXED64 = 1
    LENGTH_DELIMITED = 2
    START_GROUP = 3  # deprecated
    END_GROUP = 4  # deprecated
    FIXED32 = 5


class Label(enum.Enum):
    """proto2 field qualifiers."""

    OPTIONAL = "optional"
    REQUIRED = "required"
    REPEATED = "repeated"


class PerformanceClass(enum.Enum):
    """Performance-similar type groups from Table 1 of the paper."""

    BYTES_LIKE = "bytes-like"
    VARINT_LIKE = "varint-like"
    FLOAT_LIKE = "float-like"
    DOUBLE_LIKE = "double-like"
    FIXED32_LIKE = "fixed32-like"
    FIXED64_LIKE = "fixed64-like"
    MESSAGE_LIKE = "message-like"  # sub-messages; not a Table 1 row


_WIRE_TYPES: dict[FieldType, WireType] = {
    FieldType.DOUBLE: WireType.FIXED64,
    FieldType.FLOAT: WireType.FIXED32,
    FieldType.INT32: WireType.VARINT,
    FieldType.INT64: WireType.VARINT,
    FieldType.UINT32: WireType.VARINT,
    FieldType.UINT64: WireType.VARINT,
    FieldType.SINT32: WireType.VARINT,
    FieldType.SINT64: WireType.VARINT,
    FieldType.FIXED32: WireType.FIXED32,
    FieldType.FIXED64: WireType.FIXED64,
    FieldType.SFIXED32: WireType.FIXED32,
    FieldType.SFIXED64: WireType.FIXED64,
    FieldType.BOOL: WireType.VARINT,
    FieldType.ENUM: WireType.VARINT,
    FieldType.STRING: WireType.LENGTH_DELIMITED,
    FieldType.BYTES: WireType.LENGTH_DELIMITED,
    FieldType.MESSAGE: WireType.LENGTH_DELIMITED,
}

_PERFORMANCE_CLASSES: dict[FieldType, PerformanceClass] = {
    FieldType.BYTES: PerformanceClass.BYTES_LIKE,
    FieldType.STRING: PerformanceClass.BYTES_LIKE,
    FieldType.INT32: PerformanceClass.VARINT_LIKE,
    FieldType.INT64: PerformanceClass.VARINT_LIKE,
    FieldType.UINT32: PerformanceClass.VARINT_LIKE,
    FieldType.UINT64: PerformanceClass.VARINT_LIKE,
    FieldType.SINT32: PerformanceClass.VARINT_LIKE,
    FieldType.SINT64: PerformanceClass.VARINT_LIKE,
    FieldType.ENUM: PerformanceClass.VARINT_LIKE,
    FieldType.BOOL: PerformanceClass.VARINT_LIKE,
    FieldType.FLOAT: PerformanceClass.FLOAT_LIKE,
    FieldType.DOUBLE: PerformanceClass.DOUBLE_LIKE,
    FieldType.FIXED32: PerformanceClass.FIXED32_LIKE,
    FieldType.SFIXED32: PerformanceClass.FIXED32_LIKE,
    FieldType.FIXED64: PerformanceClass.FIXED64_LIKE,
    FieldType.SFIXED64: PerformanceClass.FIXED64_LIKE,
    FieldType.MESSAGE: PerformanceClass.MESSAGE_LIKE,
}

# Field types whose wire representation is a zig-zag encoded varint.
ZIGZAG_TYPES = frozenset({FieldType.SINT32, FieldType.SINT64})

# Signed two's-complement varint types (negative values encode to 10 bytes).
SIGNED_VARINT_TYPES = frozenset({FieldType.INT32, FieldType.INT64})

# Types that may legally appear in a packed repeated field (scalar numerics).
PACKABLE_TYPES = frozenset(
    t
    for t, w in _WIRE_TYPES.items()
    if w in (WireType.VARINT, WireType.FIXED32, WireType.FIXED64)
)

# Fixed-width scalar sizes in bytes on the wire (and in the C++ object).
FIXED_WIDTH_BYTES: dict[FieldType, int] = {
    FieldType.DOUBLE: 8,
    FieldType.FIXED64: 8,
    FieldType.SFIXED64: 8,
    FieldType.FLOAT: 4,
    FieldType.FIXED32: 4,
    FieldType.SFIXED32: 4,
}

# `struct` formats of the fixed-width scalar types (widths: FIXED_WIDTH_BYTES).
STRUCT_FORMATS: dict[FieldType, str] = {
    FieldType.DOUBLE: "<d",
    FieldType.FLOAT: "<f",
    FieldType.FIXED32: "<I",
    FieldType.FIXED64: "<Q",
    FieldType.SFIXED32: "<i",
    FieldType.SFIXED64: "<q",
}

# Width of the C++ in-memory representation for scalar field types.
CPP_SCALAR_BYTES: dict[FieldType, int] = {
    FieldType.DOUBLE: 8,
    FieldType.FLOAT: 4,
    FieldType.INT32: 4,
    FieldType.INT64: 8,
    FieldType.UINT32: 4,
    FieldType.UINT64: 8,
    FieldType.SINT32: 4,
    FieldType.SINT64: 8,
    FieldType.FIXED32: 4,
    FieldType.FIXED64: 8,
    FieldType.SFIXED32: 4,
    FieldType.SFIXED64: 8,
    FieldType.BOOL: 1,
    FieldType.ENUM: 4,
}

# Numeric range limits for value validation, keyed by field type.
_INT_RANGES: dict[FieldType, tuple[int, int]] = {
    FieldType.INT32: (-(2**31), 2**31 - 1),
    FieldType.SINT32: (-(2**31), 2**31 - 1),
    FieldType.SFIXED32: (-(2**31), 2**31 - 1),
    FieldType.INT64: (-(2**63), 2**63 - 1),
    FieldType.SINT64: (-(2**63), 2**63 - 1),
    FieldType.SFIXED64: (-(2**63), 2**63 - 1),
    FieldType.UINT32: (0, 2**32 - 1),
    FieldType.FIXED32: (0, 2**32 - 1),
    FieldType.UINT64: (0, 2**64 - 1),
    FieldType.FIXED64: (0, 2**64 - 1),
    FieldType.ENUM: (-(2**31), 2**31 - 1),
}


def wire_type_for(field_type: FieldType) -> WireType:
    """Return the wire type a field of ``field_type`` uses on the wire."""
    try:
        return _WIRE_TYPES[field_type]
    except KeyError:
        raise ValueError(f"{field_type} has no wire representation") from None


def performance_class(field_type: FieldType) -> PerformanceClass:
    """Return the paper's Table 1 performance class for ``field_type``."""
    try:
        return _PERFORMANCE_CLASSES[field_type]
    except KeyError:
        raise ValueError(f"{field_type} has no performance class") from None


def int_range(field_type: FieldType) -> tuple[int, int]:
    """Inclusive (lo, hi) range of valid values for an integer field type."""
    return _INT_RANGES[field_type]


def is_integer_type(field_type: FieldType) -> bool:
    """True for all varint and fixed-width integer field types."""
    return field_type in _INT_RANGES or field_type is FieldType.BOOL


def is_packable(field_type: FieldType) -> bool:
    """True if a repeated field of this type may use the packed encoding."""
    return field_type in PACKABLE_TYPES
