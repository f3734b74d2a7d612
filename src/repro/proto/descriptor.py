"""Schema descriptors: the compiled, validated form of a .proto file.

Descriptors play the role of ``protoc``'s internal representation: each
message type gets a :class:`MessageDescriptor` with fields indexed by both
name and field number, the hasbit index assignment the C++ code generator
would produce, and the (min, max) defined field-number range that the
accelerator's ADTs and sparse hasbits are built from (Sections 3.7/4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.proto.errors import SchemaError
from repro.proto.types import (
    FieldType,
    Label,
    WireType,
    is_packable,
    wire_type_for,
)

#: Field numbers 19000-19999 are reserved by the protobuf implementation.
RESERVED_RANGE = range(19000, 20000)

#: Largest legal field number (2**29 - 1).
MAX_FIELD_NUMBER = (1 << 29) - 1


@dataclass(frozen=True)
class EnumDescriptor:
    """A proto2 enum type: named 32-bit integer constants."""

    name: str
    values: dict[str, int]

    def __post_init__(self) -> None:
        if not self.values:
            raise SchemaError(f"enum {self.name} has no values")

    def value_names(self) -> list[str]:
        return list(self.values)

    def default_value(self) -> int:
        """proto2 enum default: the first declared value."""
        return next(iter(self.values.values()))

    def has_number(self, number: int) -> bool:
        return number in self.values.values()


@dataclass
class FieldDescriptor:
    """One field declaration inside a message type."""

    name: str
    number: int
    field_type: FieldType
    label: Label = Label.OPTIONAL
    #: For MESSAGE fields: the sub-message type name (resolved lazily).
    type_name: Optional[str] = None
    #: For ENUM fields: the enum descriptor.
    enum_type: Optional[EnumDescriptor] = None
    #: True if a repeated scalar field uses the packed encoding.
    packed: bool = False
    #: Explicit proto2 default value, if declared.
    default: object = None
    #: Index of this field's presence bit (assigned by MessageDescriptor).
    hasbit_index: int = -1
    #: Resolved sub-message descriptor (filled in by Schema.resolve).
    message_type: Optional["MessageDescriptor"] = None
    #: proto3 string fields must carry valid UTF-8; parsers (and the
    #: accelerator -- Section 7) validate payloads on deserialization.
    validate_utf8: bool = False
    #: Name of the oneof group this field belongs to, if any.  Setting a
    #: oneof member clears its siblings (exactly-one-of semantics).
    oneof_group: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.number <= MAX_FIELD_NUMBER:
            raise SchemaError(
                f"field {self.name}: number {self.number} out of range")
        if self.number in RESERVED_RANGE:
            raise SchemaError(
                f"field {self.name}: number {self.number} is reserved")
        if self.field_type is FieldType.GROUP:
            raise SchemaError("groups are deprecated and not supported")
        if self.packed:
            if self.label is not Label.REPEATED:
                raise SchemaError(
                    f"field {self.name}: packed requires repeated")
            if not is_packable(self.field_type):
                raise SchemaError(
                    f"field {self.name}: type {self.field_type.value} "
                    "cannot be packed")
        if self.field_type is FieldType.MESSAGE and not self.type_name:
            raise SchemaError(f"field {self.name}: message type missing name")
        if self.field_type is FieldType.ENUM and self.enum_type is None:
            raise SchemaError(f"field {self.name}: enum type missing")

    @property
    def is_repeated(self) -> bool:
        return self.label is Label.REPEATED

    @property
    def is_required(self) -> bool:
        return self.label is Label.REQUIRED

    @property
    def is_message(self) -> bool:
        return self.field_type is FieldType.MESSAGE

    @property
    def is_map(self) -> bool:
        """True if this is a map field (repeated synthesized entry)."""
        return (self.message_type is not None
                and self.message_type.is_map_entry)

    @property
    def wire_type(self) -> WireType:
        """Wire type of one element of this field on the wire.

        Packed repeated fields go on the wire as LENGTH_DELIMITED; this
        property reports the *element* wire type (the packed framing is the
        encoder's concern).
        """
        return wire_type_for(self.field_type)

    def default_scalar(self) -> object:
        """The proto2 default value read back for an absent singular field."""
        if self.default is not None:
            return self.default
        if self.field_type in (FieldType.STRING,):
            return ""
        if self.field_type is FieldType.BYTES:
            return b""
        if self.field_type is FieldType.BOOL:
            return False
        if self.field_type in (FieldType.FLOAT, FieldType.DOUBLE):
            return 0.0
        if self.field_type is FieldType.ENUM:
            assert self.enum_type is not None
            return self.enum_type.default_value()
        if self.field_type is FieldType.MESSAGE:
            return None
        return 0


class MessageDescriptor:
    """A message type: an ordered collection of validated fields.

    Exposes the quantities the accelerator's programming tables need:
    ``min_field_number`` / ``max_field_number`` (ADT header, Section 4.2),
    ``field_number_span`` (sparse hasbits sizing), and the paper's
    field-number usage *density* metric (Section 3.7).
    """

    def __init__(self, name: str, fields: list[FieldDescriptor],
                 full_name: Optional[str] = None,
                 is_map_entry: bool = False):
        if not name:
            raise SchemaError("message must have a name")
        self.name = name
        self.full_name = full_name or name
        #: True for the synthesized KeyValue entry type behind a map
        #: field (maps are wire-format sugar for repeated entries).
        self.is_map_entry = is_map_entry
        self._fields_by_number: dict[int, FieldDescriptor] = {}
        self._fields_by_name: dict[str, FieldDescriptor] = {}
        for fd in fields:
            if fd.number in self._fields_by_number:
                raise SchemaError(
                    f"{name}: duplicate field number {fd.number}")
            if fd.name in self._fields_by_name:
                raise SchemaError(f"{name}: duplicate field name {fd.name}")
            self._fields_by_number[fd.number] = fd
            self._fields_by_name[fd.name] = fd
        # Hasbit indices follow declaration order, as protoc does.
        for index, fd in enumerate(fields):
            fd.hasbit_index = index
        self.fields: tuple[FieldDescriptor, ...] = tuple(fields)
        self.oneof_groups: dict[str, tuple[int, ...]] = {}
        groups: dict[str, list[int]] = {}
        for fd in fields:
            if fd.oneof_group is None:
                continue
            if fd.is_repeated or fd.is_required:
                raise SchemaError(
                    f"{name}.{fd.name}: oneof members must be singular "
                    "optional fields")
            groups.setdefault(fd.oneof_group, []).append(fd.number)
        self.oneof_groups = {group: tuple(numbers)
                             for group, numbers in groups.items()}

    def __repr__(self) -> str:
        return f"MessageDescriptor({self.full_name!r}, {len(self.fields)} fields)"

    def __iter__(self) -> Iterator[FieldDescriptor]:
        return iter(self.fields)

    def field_by_number(self, number: int) -> Optional[FieldDescriptor]:
        return self._fields_by_number.get(number)

    def field_by_name(self, name: str) -> Optional[FieldDescriptor]:
        return self._fields_by_name.get(name)

    @property
    def min_field_number(self) -> int:
        if not self.fields:
            return 0
        return min(self._fields_by_number)

    @property
    def max_field_number(self) -> int:
        if not self.fields:
            return 0
        return max(self._fields_by_number)

    @property
    def field_number_span(self) -> int:
        """Size of the field-number range [min, max] (0 for empty types)."""
        if not self.fields:
            return 0
        return self.max_field_number - self.min_field_number + 1

    def usage_density(self, present_fields: int) -> float:
        """Section 3.7 density: present fields / defined field-number span."""
        if self.field_number_span == 0:
            return 0.0
        return present_fields / self.field_number_span

    def oneof_siblings(self, field_number: int) -> tuple[int, ...]:
        """Other field numbers sharing a oneof with ``field_number``."""
        fd = self.field_by_number(field_number)
        if fd is None or fd.oneof_group is None:
            return ()
        return tuple(number
                     for number in self.oneof_groups[fd.oneof_group]
                     if number != field_number)

    def new_message(self, arena=None):
        """Construct an empty dynamic message of this type."""
        from repro.proto.message import Message

        return Message(self, arena=arena)

    def parse(self, data: bytes, arena=None):
        """Deserialize wire-format ``data`` into a new message."""
        from repro.proto.decoder import parse_message

        return parse_message(self, data, arena=arena)


def reachable_types(root: MessageDescriptor):
    """Walk the message types ``root`` reaches, depth first, fields in
    declaration order.

    Returns ``(order, types, finished)``: ``order`` maps
    ``id(descriptor)`` to its first-visit index, ``types`` lists the
    types in first-visit order (``root`` first), and ``finished`` lists
    them in the order their walks complete (each type after the types
    it reaches first).  An explicit stack, not a recursive closure: a
    closure that calls itself is a function <-> cell cycle left for the
    garbage collector on every call.
    """
    order = {id(root): 0}
    types = [root]
    finished = []
    stack = [(root, iter(root.fields))]
    while stack:
        md, fields = stack[-1]
        for fd in fields:
            sub = fd.message_type
            if sub is not None and id(sub) not in order:
                order[id(sub)] = len(types)
                types.append(sub)
                stack.append((sub, iter(sub.fields)))
                break
        else:
            stack.pop()
            finished.append(md)
    return order, types, finished


def structural_fingerprint(descriptor: MessageDescriptor) -> str:
    """A stable digest of a message type's wire-relevant structure.

    Two descriptors with equal fingerprints parse and serialize any given
    wire buffer identically (same field numbers, types, labels, packing,
    oneof grouping, UTF-8 validation flags, and recursively the same
    sub-message structure), so the fingerprint is a sound cache key for
    deterministic cycle accounting.  Cyclic type graphs are handled by
    numbering types in first-visit order.
    """
    cached = getattr(descriptor, "_structural_fp", None)
    if cached is not None:
        return cached
    import hashlib

    order, _, finished = reachable_types(descriptor)
    parts: list[str] = []
    for md in finished:
        fields = []
        for fd in md.fields:
            sub = order[id(fd.message_type)] \
                if fd.message_type is not None else -1
            enum = (tuple(sorted(fd.enum_type.values.items()))
                    if fd.enum_type is not None else None)
            fields.append((fd.number, fd.field_type.value, fd.label.value,
                           fd.packed, repr(fd.default), fd.validate_utf8,
                           fd.oneof_group, sub, enum))
        parts.append(f"{order[id(md)]}:{md.full_name}:{fields!r}")
    fingerprint = hashlib.sha256(
        "|".join(parts).encode()).hexdigest()[:32]
    descriptor._structural_fp = fingerprint
    return fingerprint


@dataclass(frozen=True)
class MethodDescriptor:
    """One rpc method in a service definition."""

    name: str
    input_type: str
    output_type: str
    client_streaming: bool = False
    server_streaming: bool = False
    #: Resolved descriptors (filled by Schema.resolve).
    input_descriptor: Optional[MessageDescriptor] = None
    output_descriptor: Optional[MessageDescriptor] = None


class ServiceDescriptor:
    """A service: a named set of rpc methods (Section 2: protobuf is a
    data *and service* description system)."""

    def __init__(self, name: str, methods: list[MethodDescriptor]):
        if not name:
            raise SchemaError("service must have a name")
        self.name = name
        self._methods: dict[str, MethodDescriptor] = {}
        for method in methods:
            if method.name in self._methods:
                raise SchemaError(
                    f"service {name}: duplicate method {method.name}")
            self._methods[method.name] = method

    @property
    def methods(self) -> tuple[MethodDescriptor, ...]:
        return tuple(self._methods.values())

    def method(self, name: str) -> MethodDescriptor:
        try:
            return self._methods[name]
        except KeyError:
            raise SchemaError(
                f"service {self.name} has no method {name!r}") from None

    def full_method_name(self, name: str) -> str:
        self.method(name)
        return f"/{self.name}/{name}"

    def _resolve(self, schema: "Schema") -> None:
        for method_name, method in list(self._methods.items()):
            for attr in ("input_type", "output_type"):
                type_name = getattr(method, attr)
                if type_name not in schema:
                    raise SchemaError(
                        f"{self.name}.{method_name}: unknown message "
                        f"type {type_name}")
            self._methods[method_name] = MethodDescriptor(
                name=method.name,
                input_type=method.input_type,
                output_type=method.output_type,
                client_streaming=method.client_streaming,
                server_streaming=method.server_streaming,
                input_descriptor=schema[method.input_type],
                output_descriptor=schema[method.output_type])


class Schema:
    """A set of message, enum, and service types from one .proto source.

    Subscript by message name to get its descriptor::

        schema['Point'].new_message()
    """

    def __init__(self, package: str = ""):
        self.package = package
        self._messages: dict[str, MessageDescriptor] = {}
        self._enums: dict[str, EnumDescriptor] = {}
        self._services: dict[str, ServiceDescriptor] = {}
        self.syntax = "proto2"

    def add_message(self, descriptor: MessageDescriptor) -> None:
        if descriptor.name in self._messages:
            raise SchemaError(f"duplicate message type {descriptor.name}")
        self._messages[descriptor.name] = descriptor

    def add_enum(self, descriptor: EnumDescriptor) -> None:
        if descriptor.name in self._enums:
            raise SchemaError(f"duplicate enum type {descriptor.name}")
        self._enums[descriptor.name] = descriptor

    def __getitem__(self, name: str) -> MessageDescriptor:
        try:
            return self._messages[name]
        except KeyError:
            raise SchemaError(f"unknown message type {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._messages

    def messages(self) -> list[MessageDescriptor]:
        return list(self._messages.values())

    def enum(self, name: str) -> EnumDescriptor:
        try:
            return self._enums[name]
        except KeyError:
            raise SchemaError(f"unknown enum type {name}") from None

    def enums(self) -> list[EnumDescriptor]:
        return list(self._enums.values())

    def add_service(self, descriptor: ServiceDescriptor) -> None:
        if descriptor.name in self._services:
            raise SchemaError(f"duplicate service {descriptor.name}")
        self._services[descriptor.name] = descriptor

    def service(self, name: str) -> ServiceDescriptor:
        try:
            return self._services[name]
        except KeyError:
            raise SchemaError(f"unknown service {name}") from None

    def services(self) -> list[ServiceDescriptor]:
        return list(self._services.values())

    def resolve(self) -> None:
        """Resolve all message-typed fields and service method types.

        Must be called once after all types are added; the parser does this
        automatically.  Raises :class:`SchemaError` on dangling references.
        """
        for message in self._messages.values():
            for fd in message.fields:
                if fd.field_type is FieldType.MESSAGE:
                    if fd.type_name not in self._messages:
                        raise SchemaError(
                            f"{message.name}.{fd.name}: unknown message "
                            f"type {fd.type_name}")
                    fd.message_type = self._messages[fd.type_name]
        for service in self._services.values():
            service._resolve(self)
