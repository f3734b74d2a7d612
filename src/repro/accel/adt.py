"""Accelerator Descriptor Tables (Section 4.2 of the paper).

One ADT exists per message *type* (not per instance), generated at program
load time by the modified protoc, so no schema-management code runs in
field setters.  An ADT occupies one contiguous block of memory with three
regions:

1. A 64 B **header**: default-instance vptr, C++ object size, hasbits
   offset, and the min/max defined field numbers.
2. **Entries**, 128 bits each, indexed directly by
   ``field_number - min_field_number``: the field's C++ type, repeated/
   packed flags, its byte offset inside the C++ object, and (for
   sub-message fields) a pointer to the sub-type's ADT.
3. The **is_submessage bit field**, letting the serializer frontend switch
   contexts without waiting for a full entry read (Section 4.2).

Encoding of one 16 B entry::

    [0]    u8   field type code (FieldType ordinal; 0xFF = undefined hole)
    [1]    u8   flags: 1=repeated, 2=packed, 4=zigzag, 8=is_message,
                16=utf8-validate (proto3 strings)
    [2:4]  u16  oneof group id + 1 (0 = not a oneof member)
    [4:8]  u32  field offset in the C++ object
    [8:16] u64  sub-message ADT pointer (0 unless is_message)

Header bytes [32:64] hold up to two oneof *group masks* -- per group a
u64 hasbits mask plus the u32 hasbits word it applies to -- letting the
hasbits writer clear a member's siblings in one read-modify-write when
exactly-one-of semantics demand it.  Two groups per type, each within
one 64-number window, is the modelled hardware table limit; wider
schemas still work through the software path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memo import MISS, Memo
from repro.memory.layout import LayoutCache, MessageLayout
from repro.memory.memspace import SimMemory
from repro.proto.descriptor import MessageDescriptor, structural_fingerprint
from repro.proto.errors import SchemaError
from repro.proto.types import FieldType, ZIGZAG_TYPES

ADT_HEADER_BYTES = 64
ADT_ENTRY_BYTES = 16

_TYPE_CODES = {ft: code for code, ft in enumerate(FieldType)}
_TYPES_BY_CODE = dict(enumerate(FieldType))
UNDEFINED_TYPE_CODE = 0xFF

FLAG_REPEATED = 1
FLAG_PACKED = 2
FLAG_ZIGZAG = 4
FLAG_MESSAGE = 8
FLAG_UTF8 = 16


#: Hardware table limit: oneof groups representable per message type.
MAX_ONEOF_GROUPS = 2


@dataclass(frozen=True)
class AdtTemplate:
    """Pre-compiled, address-independent image of one type's ADT.

    Everything in an ADT block except the per-instance vptr and the
    sub-message ADT pointers is a pure function of the message type's
    structure, so compilation is done once per structural fingerprint
    and replayed as a single blit (plus pointer fixups) on every
    subsequent accelerator instance -- the modified protoc's amortised
    per-*type* table generation (Section 4.2), applied to the simulator
    itself.
    """

    #: Entry region bytes (span * 16 B) with sub-ADT pointer slots zeroed.
    entries: bytes
    #: (entry byte offset, descriptor.fields index) pairs naming where
    #: each sub-message ADT pointer must be patched in.
    sub_fixups: tuple[tuple[int, int], ...]
    #: The is_submessage bit-field words.
    submsg_words: tuple[int, ...]
    #: Header bytes [32:64): the oneof group-mask table.
    oneof_header: bytes


#: Compiled ADT templates, keyed by structural fingerprint.
_TEMPLATES = Memo("adt-template")


def _compile_template(descriptor: MessageDescriptor,
                      layout: MessageLayout) -> AdtTemplate:
    """Compile one type's ADT entry/bits/oneof regions (no addresses)."""
    group_ids = _oneof_group_ids(descriptor)
    oneof_header = bytearray(ADT_HEADER_BYTES - 32)
    for group, group_id in group_ids.items():
        numbers = descriptor.oneof_groups[group]
        bits = [n - descriptor.min_field_number for n in numbers]
        words = {bit // 64 for bit in bits}
        if len(words) != 1:
            raise SchemaError(
                f"{descriptor.name}: oneof {group!r} spans multiple "
                "hasbits words; the accelerator clears siblings with "
                "a single-word mask")
        word = words.pop()
        mask = 0
        for bit in bits:
            mask |= 1 << bit % 64
        base = (group_id - 1) * 16
        oneof_header[base:base + 8] = mask.to_bytes(8, "little")
        oneof_header[base + 8:base + 12] = word.to_bytes(4, "little")
    span = descriptor.field_number_span
    entries = bytearray(span * ADT_ENTRY_BYTES)
    sub_fixups: list[tuple[int, int]] = []
    submsg_words = [0] * max(1, -(-span // 64))
    field_indices = {fd.number: index
                     for index, fd in enumerate(descriptor.fields)}
    for index in range(span):
        number = descriptor.min_field_number + index
        base = index * ADT_ENTRY_BYTES
        fd = descriptor.field_by_number(number)
        if fd is None:
            entries[base] = UNDEFINED_TYPE_CODE
            continue
        flags = 0
        if fd.is_repeated:
            flags |= FLAG_REPEATED
        if fd.packed:
            flags |= FLAG_PACKED
        if fd.field_type in ZIGZAG_TYPES:
            flags |= FLAG_ZIGZAG
        if fd.validate_utf8:
            flags |= FLAG_UTF8
        if fd.is_message:
            flags |= FLAG_MESSAGE
            sub_fixups.append((base, field_indices[number]))
            # Unpacked repeated sub-messages still flip the
            # is_submessage bit; the serializer frontend needs it.
            submsg_words[index // 64] |= 1 << index % 64
        group_id = group_ids.get(fd.oneof_group, 0) if fd.oneof_group \
            else 0
        entries[base] = _TYPE_CODES[fd.field_type]
        entries[base + 1] = flags
        entries[base + 2:base + 4] = group_id.to_bytes(2, "little")
        entries[base + 4:base + 8] = \
            layout.field_offsets[number].to_bytes(4, "little")
    return AdtTemplate(entries=bytes(entries),
                       sub_fixups=tuple(sub_fixups),
                       submsg_words=tuple(submsg_words),
                       oneof_header=bytes(oneof_header))


def _oneof_group_ids(descriptor: MessageDescriptor) -> dict[str, int]:
    """Group-name -> 1-based hardware table id, in declaration order."""
    groups = descriptor.oneof_groups
    if len(groups) > MAX_ONEOF_GROUPS:
        raise SchemaError(
            f"{descriptor.name}: the accelerator ADT supports at "
            f"most {MAX_ONEOF_GROUPS} oneof groups per message type")
    return {group: index + 1 for index, group in enumerate(groups)}


def adt_size_bytes(descriptor: MessageDescriptor) -> int:
    """Total footprint of one type's ADT block."""
    span = descriptor.field_number_span
    submsg_words = max(1, -(-span // 64))
    return ADT_HEADER_BYTES + span * ADT_ENTRY_BYTES + submsg_words * 8


@dataclass(frozen=True)
class AdtEntry:
    """Decoded view of one 128-bit ADT entry."""

    defined: bool
    field_type: FieldType | None
    repeated: bool
    packed: bool
    zigzag: bool
    is_message: bool
    field_offset: int
    sub_adt_ptr: int
    utf8_validate: bool = False
    #: 1-based oneof group id (0 = not a oneof member).
    oneof_group: int = 0


class AdtBuilder:
    """Generates and writes ADTs for every message type in a schema.

    Plays the role of the modified protoc + program-load population: call
    :meth:`build` once, then hand :meth:`adt_address` values to the
    accelerator via ``deser_info`` / ``do_proto_ser``.
    """

    def __init__(self, memory: SimMemory, layout_cache: LayoutCache):
        self.memory = memory
        self.layouts = layout_cache
        self._addresses: dict[int, int] = {}
        self._descriptors: dict[int, MessageDescriptor] = {}
        #: End of the highest ADT block (0 before the first build); a
        #: heap release below it would re-issue live ADT memory.
        self.top = 0

    def adt_address(self, descriptor: MessageDescriptor) -> int:
        try:
            return self._addresses[id(descriptor)]
        except KeyError:
            raise KeyError(
                f"no ADT built for {descriptor.full_name}; call build() "
                "with its schema first") from None

    def descriptor_for(self, adt_addr: int) -> MessageDescriptor:
        return self._descriptors[adt_addr]

    def build(self, descriptors: list[MessageDescriptor]) -> dict[str, int]:
        """Allocate and populate ADTs for ``descriptors`` (plus reachable
        sub-message types).  Returns {full_name: adt_address}.

        Two-pass so mutually recursive message types resolve: first
        allocate every block, then fill entries with final pointers.
        Only blocks allocated by this call are written: a type built
        earlier was built with its whole reachable closure, so its
        block is final and re-registering writes nothing.
        """
        worklist = list(descriptors)
        ordered: list[MessageDescriptor] = []
        seen: set[int] = set()
        while worklist:
            descriptor = worklist.pop()
            if id(descriptor) in seen:
                continue
            seen.add(id(descriptor))
            ordered.append(descriptor)
            for fd in descriptor.fields:
                if fd.message_type is not None:
                    worklist.append(fd.message_type)
        fresh = [d for d in ordered if id(d) not in self._addresses]
        for descriptor in fresh:
            size = adt_size_bytes(descriptor)
            addr = self.memory.allocate(size, alignment=64)
            self._addresses[id(descriptor)] = addr
            self._descriptors[addr] = descriptor
            self.top = addr + size
        for descriptor in fresh:
            self._populate(descriptor)
        return {d.full_name: self._addresses[id(d)] for d in ordered}

    def _populate(self, descriptor: MessageDescriptor) -> None:
        memory = self.memory
        addr = self._addresses[id(descriptor)]
        layout = self.layouts.layout(descriptor)
        fingerprint = structural_fingerprint(descriptor)
        template = _TEMPLATES.get(fingerprint)
        if template is MISS:
            template = _compile_template(descriptor, layout)
            _TEMPLATES.put(fingerprint, template)
        # Header region: per-instance fields, then the cached oneof table.
        memory.write_u64(addr, layout.vptr)
        memory.write_u64(addr + 8, layout.object_size)
        memory.write_u64(addr + 16, layout.hasbits_offset)
        memory.write_u32(addr + 24, descriptor.min_field_number)
        memory.write_u32(addr + 28, descriptor.max_field_number)
        memory.write(addr + 32, template.oneof_header)
        # Entry region: blit the compiled image, patching this build's
        # sub-message ADT pointers into their zeroed slots.
        entries = bytearray(template.entries)
        for offset, field_index in template.sub_fixups:
            sub_type = descriptor.fields[field_index].message_type
            assert sub_type is not None
            sub_ptr = self._addresses[id(sub_type)]
            entries[offset + 8:offset + 16] = sub_ptr.to_bytes(8, "little")
        entries_base = addr + ADT_HEADER_BYTES
        memory.write(entries_base, entries)
        bits_base = entries_base + len(entries)
        for word_index, word in enumerate(template.submsg_words):
            memory.write_u64(bits_base + word_index * 8, word)


class AdtView:
    """Read-side decoder of an ADT block, as the accelerator sees it.

    The accelerator units only ever touch ADTs through this view, which
    reads simulated memory (never Python descriptors) -- keeping the
    hardware model honest about what information it has.  Every decode
    reads the block afresh; the hardware ADT-entry cache's hit/miss
    *cycle* accounting is modelled separately by the units.
    """

    def __init__(self, memory: SimMemory, addr: int):
        self.memory = memory
        self.addr = addr
        self._vptr = memory.read_u64(addr)
        self._object_size = memory.read_u64(addr + 8)
        self._hasbits_offset = memory.read_u64(addr + 16)
        self._min_field = memory.read_u32(addr + 24)
        self._max_field = memory.read_u32(addr + 28)

    @property
    def default_vptr(self) -> int:
        return self._vptr

    @property
    def object_size(self) -> int:
        return self._object_size

    @property
    def hasbits_offset(self) -> int:
        return self._hasbits_offset

    @property
    def min_field_number(self) -> int:
        return self._min_field

    @property
    def max_field_number(self) -> int:
        return self._max_field

    @property
    def span(self) -> int:
        if self.max_field_number == 0:
            return 0
        return self.max_field_number - self.min_field_number + 1

    def entry_address(self, field_number: int) -> int | None:
        """Address of the entry for ``field_number`` (None if out of range)."""
        if not self.min_field_number <= field_number <= self.max_field_number:
            return None
        index = field_number - self.min_field_number
        return self.addr + ADT_HEADER_BYTES + index * ADT_ENTRY_BYTES

    def entry(self, field_number: int) -> AdtEntry | None:
        """Decode the entry for ``field_number``; None if outside [min, max].

        An in-range hole decodes to ``AdtEntry(defined=False, ...)``.
        """
        entry_addr = self.entry_address(field_number)
        if entry_addr is None:
            return None
        raw = self.memory.read(entry_addr, ADT_ENTRY_BYTES)
        type_code = raw[0]
        if type_code == UNDEFINED_TYPE_CODE:
            return AdtEntry(False, None, False, False, False, False, 0, 0)
        flags = raw[1]
        return AdtEntry(
            defined=True,
            field_type=_TYPES_BY_CODE[type_code],
            repeated=bool(flags & FLAG_REPEATED),
            packed=bool(flags & FLAG_PACKED),
            zigzag=bool(flags & FLAG_ZIGZAG),
            is_message=bool(flags & FLAG_MESSAGE),
            field_offset=int.from_bytes(raw[4:8], "little"),
            sub_adt_ptr=int.from_bytes(raw[8:16], "little"),
            utf8_validate=bool(flags & FLAG_UTF8),
            oneof_group=int.from_bytes(raw[2:4], "little"),
        )

    def oneof_mask(self, group_id: int) -> tuple[int, int]:
        """(hasbits word index, sibling mask) for a 1-based group id."""
        if group_id < 1:
            raise ValueError("oneof group ids are 1-based")
        base = self.addr + 32 + (group_id - 1) * 16
        mask = self.memory.read_u64(base)
        word = self.memory.read_u32(base + 8)
        return word, mask

    def is_submessage_bit(self, field_number: int) -> bool:
        """Read the is_submessage bit for ``field_number``."""
        if not self.min_field_number <= field_number <= self.max_field_number:
            return False
        index = field_number - self.min_field_number
        word_addr = (self.addr + ADT_HEADER_BYTES
                     + self.span * ADT_ENTRY_BYTES + index // 64 * 8)
        word = self.memory.read_u64(word_addr)
        return bool(word >> index % 64 & 1)
