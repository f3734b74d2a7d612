"""Byte-for-byte C++ object images in simulated memory.

The accelerator serializes *from* and deserializes *into* the in-memory
representation generated C++ code uses (Section 2.1.3): message objects
with a vptr, a hasbits array, and typed field slots; ``std::string`` with
libstdc++'s small-string optimisation; and vector-like repeated fields.

Layout of a message object (all little-endian):

====================  =======================================================
offset                contents
====================  =======================================================
0                     vptr (8 B; a per-type sentinel in this model)
8                     sparse hasbits array (Section 4.2): one bit per field
                      number in ``[min_field_number, max_field_number]``,
                      indexed by ``number - min_field_number``, rounded up
                      to whole 64-bit words
after hasbits         one slot per field in declaration order, naturally
                      aligned: inline scalars, or 8 B pointers for strings/
                      bytes (``std::string*``), sub-messages and repeated
                      fields
====================  =======================================================

``std::string`` (32 B, libstdc++): ``[data_ptr, size, capacity | SSO buf]``
with a 15-byte SSO capacity -- the "small string optimisation" the paper's
deserializer handles in hardware (Section 4.4.7).

Repeated field (24 B header): ``[data_ptr, size, capacity]`` with a
contiguous element array (elements are inline scalars or 8 B pointers).

Host-side walks.  Each type has one :class:`ImagePlan`, derived on
first use and shared by every :class:`LayoutCache`: one ``struct``
format covering the whole object (vptr, hasbit words, every slot with
its padding) and one row per field in declaration order.
:func:`read_message_image` reads an object with one memory read and one
unpack, and each repeated field's element array with one more;
:func:`write_message_image` packs the object and each element array
into one memory write apiece.  Child objects are allocated in a fixed
order -- the object, then per present field in declaration order the
repeated header, its array and its elements, or the string object and
its heap data, or the child object -- so an image's bytes and
addresses depend only on the message and the allocator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from repro.memory.memspace import SimMemory
from repro.proto.descriptor import FieldDescriptor, MessageDescriptor
from repro.proto.message import Message, RepeatedField
from repro.proto.types import CPP_SCALAR_BYTES, FieldType

#: sizeof(std::string) in 64-bit libstdc++.
STRING_OBJECT_BYTES = 32

#: Longest string stored inline in the SSO buffer.
SSO_CAPACITY = 15

#: Header bytes of a repeated-field object: data pointer, size, capacity.
REPEATED_HEADER_BYTES = 24

_POINTER_BYTES = 8
_HASBITS_OFFSET = 8

#: ``struct`` code of each inline scalar.  ``?`` writes a bool as 0/1 and
#: reads any nonzero byte as True, as a C++ ``bool`` load does.
_SCALAR_CODE = {
    FieldType.DOUBLE: "d",
    FieldType.FLOAT: "f",
    FieldType.INT32: "i",
    FieldType.SINT32: "i",
    FieldType.SFIXED32: "i",
    FieldType.ENUM: "i",
    FieldType.INT64: "q",
    FieldType.SINT64: "q",
    FieldType.SFIXED64: "q",
    FieldType.UINT32: "I",
    FieldType.FIXED32: "I",
    FieldType.UINT64: "Q",
    FieldType.FIXED64: "Q",
    FieldType.BOOL: "?",
}

# Plan-row kinds: what a slot holds.  A repeated field's kind is its
# element kind plus _REPEATED.
_SCALAR, _STRING, _BYTES, _MESSAGE = 0, 1, 2, 3
_REPEATED = 4

_POINTER_PAIR = struct.Struct("<QQ")
_REPEATED_HEADER = struct.Struct("<QQQ")
_SSO_STRING = struct.Struct("<QQ16s")
_HEAP_STRING = struct.Struct("<QQQQ")

Allocator = Callable[[int, int], int]


_POINTER_KIND = {FieldType.STRING: _STRING, FieldType.BYTES: _BYTES,
                 FieldType.MESSAGE: _MESSAGE}


def element_width(fd: FieldDescriptor) -> int:
    """Bytes per element in a repeated field's backing array."""
    if fd.field_type in _POINTER_KIND:
        return _POINTER_BYTES
    return CPP_SCALAR_BYTES[fd.field_type]


def _slot_width(fd: FieldDescriptor) -> int:
    """Bytes occupied by the field's slot inside the message object."""
    return _POINTER_BYTES if fd.is_repeated else element_width(fd)


@dataclass(frozen=True)
class ImagePlan:
    """A type's object image, all but the vptr, and how to walk it.

    It depends on the descriptor alone, so :func:`_plan_for` derives it
    once and stores it on the descriptor (as ``structural_fingerprint``
    stores its digest): every :class:`LayoutCache` -- there is one per
    accelerator -- shares it.
    """

    hasbits_words: int
    field_offsets: dict[int, int]  # field number -> byte offset
    object_size: int
    #: The whole object as one little-endian struct: vptr, the hasbit
    #: words, then one value per field slot (padding skipped).
    image: struct.Struct
    #: ``image`` values of an object with no field present and vptr 0.
    blank: tuple
    #: One row per field in declaration order: ``(number, word, mask,
    #: index, kind, code, width, fd, siblings)``.  ``word`` and ``index``
    #: are positions in ``image``'s values (the hasbit word, the slot);
    #: ``code``/``width`` are the struct code and byte width of one
    #: inline scalar or array element (``Q``/8 for pointers);
    #: ``siblings`` are the other members of the field's oneof.
    rows: tuple


def _plan_for(descriptor: MessageDescriptor) -> ImagePlan:
    plan = getattr(descriptor, "_image_plan", None)
    if plan is not None:
        return plan
    span = descriptor.field_number_span
    hasbits_words = max(1, -(-span // 64))
    offset = _HASBITS_OFFSET + hasbits_words * 8
    field_offsets: dict[int, int] = {}
    image = [f"<Q{hasbits_words}Q"]
    rows = []
    for index, fd in enumerate(descriptor.fields, 1 + hasbits_words):
        width = _slot_width(fd)
        align = min(width, 8)
        aligned = -(-offset // align) * align
        if aligned > offset:
            image.append(f"{aligned - offset}x")
        offset = aligned
        field_offsets[fd.number] = offset
        offset += width
        kind = _POINTER_KIND.get(fd.field_type, _SCALAR)
        code = _SCALAR_CODE.get(fd.field_type, "Q")
        image.append("Q" if fd.is_repeated else code)
        bit = fd.number - descriptor.min_field_number
        rows.append((fd.number, 1 + bit // 64, 1 << bit % 64, index,
                     kind + _REPEATED if fd.is_repeated else kind,
                     code, element_width(fd), fd,
                     descriptor.oneof_siblings(fd.number)))
    object_size = -(-offset // 8) * 8
    if object_size > offset:
        image.append(f"{object_size - offset}x")
    plan = ImagePlan(
        hasbits_words=hasbits_words,
        field_offsets=field_offsets,
        object_size=object_size,
        image=struct.Struct("".join(image)),
        blank=(0,) * (1 + hasbits_words + len(rows)),
        rows=tuple(rows),
    )
    descriptor._image_plan = plan
    return plan


@dataclass(frozen=True)
class MessageLayout:
    """Computed object layout for one message type."""

    descriptor: MessageDescriptor
    vptr: int
    hasbits_offset: int
    hasbits_words: int
    field_offsets: dict[int, int]  # field number -> byte offset
    object_size: int
    plan: ImagePlan = field(repr=False, compare=False)

    def hasbit_position(self, field_number: int) -> tuple[int, int]:
        """(word_index, bit_index) of a field's presence bit.

        The sparse representation indexes directly by field number relative
        to the type's minimum defined field number (Section 4.2), so the
        accelerator needs no per-field mapping table.
        """
        bit = field_number - self.descriptor.min_field_number
        return bit // 64, bit % 64


class LayoutCache:
    """Memoised descriptor -> :class:`MessageLayout` computation.

    Also assigns the per-type vptr sentinels that stand in for C++ vtable
    pointers (the ADT header stores a "pointer to a default instance (or
    vptr value)" -- Section 4.2).
    """

    _VPTR_BASE = 0x7F00_0000_0000

    def __init__(self) -> None:
        self._layouts: dict[int, MessageLayout] = {}
        self._vptr_by_type: dict[int, int] = {}
        self._type_by_vptr: dict[int, MessageDescriptor] = {}

    def vptr_for(self, descriptor: MessageDescriptor) -> int:
        key = id(descriptor)
        if key not in self._vptr_by_type:
            vptr = self._VPTR_BASE + 0x40 * (len(self._vptr_by_type) + 1)
            self._vptr_by_type[key] = vptr
            self._type_by_vptr[vptr] = descriptor
        return self._vptr_by_type[key]

    def type_for_vptr(self, vptr: int) -> MessageDescriptor:
        return self._type_by_vptr[vptr]

    def layout(self, descriptor: MessageDescriptor) -> MessageLayout:
        key = id(descriptor)
        cached = self._layouts.get(key)
        if cached is not None:
            return cached
        plan = _plan_for(descriptor)
        layout = MessageLayout(
            descriptor=descriptor,
            vptr=self.vptr_for(descriptor),
            hasbits_offset=_HASBITS_OFFSET,
            hasbits_words=plan.hasbits_words,
            field_offsets=plan.field_offsets,
            object_size=plan.object_size,
            plan=plan,
        )
        self._layouts[key] = layout
        return layout


# -- writing images -----------------------------------------------------------


def _write_string(memory: SimMemory, alloc: Allocator, payload: bytes) -> int:
    """Allocate and initialise a libstdc++ std::string; returns its address."""
    addr = alloc(STRING_OBJECT_BYTES, 8)
    size = len(payload)
    if size <= SSO_CAPACITY:
        memory.write(addr, _SSO_STRING.pack(addr + 16, size, payload))
    else:
        data_ptr = alloc(size, 8)
        memory.write(data_ptr, payload)
        # [data_ptr, size, heap capacity, unused]
        memory.write(addr, _HEAP_STRING.pack(data_ptr, size, size, 0))
    return addr


def _write_elements(memory: SimMemory, alloc: Allocator, cache: LayoutCache,
                    kind: int, code: str, width: int, items) -> int:
    """Allocate a repeated-field header and its element array (then each
    element's own objects, in order); returns the header address.  Only
    present (non-empty) fields get here."""
    header = alloc(REPEATED_HEADER_BYTES, 8)
    count = len(items)
    array = alloc(count * width, 8)
    if kind == _SCALAR:
        elements = items
    elif kind == _STRING:
        elements = [_write_string(memory, alloc, item.encode("utf-8"))
                    for item in items]
    elif kind == _BYTES:
        elements = [_write_string(memory, alloc, item) for item in items]
    else:
        elements = [write_message_image(memory, alloc, item, cache)
                    for item in items]
    memory.write(array, struct.pack(f"<{count}{code}", *elements))
    memory.write(header, _REPEATED_HEADER.pack(array, count, count))
    return header


def write_message_image(memory: SimMemory, alloc: Allocator,
                        message: Message, cache: LayoutCache,
                        addr: int | None = None) -> int:
    """Materialise ``message`` as a C++ object image; returns its address.

    ``alloc`` decides where child objects go -- pass the software heap to
    set up serializer inputs, or an accelerator arena's allocate for objects
    the accelerator would own.
    """
    layout = cache.layout(message.descriptor)
    plan = layout.plan
    if addr is None:
        addr = alloc(plan.object_size, 8)
    slots = list(plan.blank)
    slots[0] = layout.vptr
    values = message._values
    present = message._hasbits
    for number, word, mask, index, kind, code, width, _, _ in plan.rows:
        if kind >= _REPEATED:
            items = values.get(number)
            if not items:
                continue
            value = _write_elements(memory, alloc, cache, kind - _REPEATED,
                                    code, width, items._items)
        elif number not in present:
            continue
        elif kind == _SCALAR:
            value = values[number]
        elif kind == _STRING:
            value = _write_string(memory, alloc,
                                  values[number].encode("utf-8"))
        elif kind == _BYTES:
            value = _write_string(memory, alloc, values[number])
        else:
            value = write_message_image(memory, alloc, values[number], cache)
        slots[word] |= mask
        slots[index] = value
    memory.write(addr, plan.image.pack(*slots))
    return addr


# -- reading images -----------------------------------------------------------


@dataclass(frozen=True)
class StdString:
    """A decoded view of a std::string object image."""

    address: int
    data_ptr: int
    size: int
    is_sso: bool
    payload: bytes


def read_string_object(memory: SimMemory, addr: int) -> StdString:
    """Decode the std::string at ``addr``."""
    data_ptr = memory.read_u64(addr)
    size = memory.read_u64(addr + 8)
    is_sso = data_ptr == addr + 16
    payload = memory.read(data_ptr, size)
    return StdString(addr, data_ptr, size, is_sso, payload)


def _read_payload(memory: SimMemory, addr: int) -> bytes:
    """The bytes held by the std::string at ``addr``: one read of the
    object, plus one of the heap data unless they sit in the SSO buffer."""
    head = memory.read(addr, STRING_OBJECT_BYTES)
    data_ptr, size = _POINTER_PAIR.unpack_from(head)
    if data_ptr == addr + 16 and size <= SSO_CAPACITY:
        return head[16:16 + size]
    return memory.read(data_ptr, size)


def _read_text(memory: SimMemory, addr: int) -> str:
    payload = _read_payload(memory, addr)
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


def _read_elements(memory: SimMemory, cache: LayoutCache, kind: int,
                   code: str, width: int, fd: FieldDescriptor,
                   header: int) -> list:
    """The elements of the repeated field whose header is at ``header``."""
    array, count = _POINTER_PAIR.unpack(memory.read(header, 16))
    if not count:
        return []
    elements = struct.unpack(f"<{count}{code}",
                             memory.read(array, count * width))
    if kind == _SCALAR:
        return list(elements)
    if kind == _STRING:
        return [_read_text(memory, item) for item in elements]
    if kind == _BYTES:
        return [_read_payload(memory, item) for item in elements]
    return [read_message_image(memory, fd.message_type, item, cache)
            for item in elements]


def read_message_image(memory: SimMemory, descriptor: MessageDescriptor,
                       addr: int, cache: LayoutCache) -> Message:
    """Reconstruct a :class:`Message` from the object image at ``addr``.

    This is what software observes through the generated accessors: the
    server's request path, the RPC stubs, the bench runner's verify path,
    and the serialize fault fallback (the software serializer's input)
    read images with it.
    Presence comes from the hasbits alone; of two set oneof members the
    last-declared wins, and a ``string`` slot that is not valid UTF-8
    decodes as latin-1.
    """
    plan = cache.layout(descriptor).plan
    slots = plan.image.unpack(memory.read(addr, plan.object_size))
    message = Message(descriptor)
    values = message._values
    present = message._hasbits
    for (number, word, mask, index, kind, code, width, fd,
         siblings) in plan.rows:
        if not slots[word] & mask:
            continue
        value = slots[index]
        if kind == _SCALAR:
            pass
        elif kind == _STRING:
            value = _read_text(memory, value)
        elif kind == _BYTES:
            value = _read_payload(memory, value)
        elif kind == _MESSAGE:
            value = read_message_image(memory, fd.message_type, value, cache)
        else:
            items = _read_elements(memory, cache, kind - _REPEATED, code,
                                   width, fd, value)
            value = RepeatedField(fd)
            value._items = items
        for sibling in siblings:
            values.pop(sibling, None)
            present.discard(sibling)
        values[number] = value
        present.add(number)
    return message
