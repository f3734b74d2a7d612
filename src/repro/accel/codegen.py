"""Schema-specialized codegen kernels (the software analogue of the
paper's hardwired per-type field handlers).

The interpretive deserializer/serializer units walk every message
through generic Python dispatch -- dict lookups, dataclass views, and
polymorphic helpers per field.  That is faithful to the hardware FSM but
makes *simulator wall-clock* the bottleneck for fleet-scale sweeps.
This module compiles each (message type, charge schedule) pair into a
straight-line Python kernel:

* the tag switch is unrolled into per-field-number ``elif`` branches on
  the decoded key integer (one branch per expected key, so scalars,
  strings, packed and unpacked repeated fields and sub-messages all
  dispatch without touching an ADT entry object);
* varint decode is inlined (single-byte fast path, shared
  :func:`~repro.proto.varint.decode_varint` slow path so error text is
  byte-identical);
* all per-field constants -- ADT entry addresses, object offsets,
  hasbits words/masks, cycle charges -- are baked in as literals, the
  charges read from the same schedule the interpretive FSMs charge by.

**Cycle accounting is bit-identical to the interpreter.**  A unit runs a
kernel in place of its interpretive loop, inside the same per-operation
charges; the kernels replay the interpreter's float additions in the
same order with the same values (charges are emitted with ``repr`` so
literals round-trip exactly), call the same modelled state (ADT entry
cache, memwriter) and raise the same structured errors.  Codegen only
changes host wall-clock.

A kernel is one function per message type reachable from its root.
Generating it emits them all, but only the entry point and the root
type's function compile with it; every other type's function compiles
the first time a message reaches that type (:mod:`repro.proto.lazy`),
the way the paper's units touch a type's ADT only when the wire reaches
it.  Keys no type's branches expect -- invalid keys, wrong wire types,
unknown fields -- take one shared cold path (:func:`_deser_fallback`)
instead of code emitted per type.

Kernels are memoised in a bounded LRU (:data:`CODE_CACHE`) keyed by the
schema's structural fingerprint plus the charge schedule (devices that
differ only in knobs no kernel bakes in share one kernel).  Per
accelerator instance a *binding* resolves the compiled kernel against
the live ADT image -- validating header fields and every entry
byte-for-byte against the image the generator assumed -- so a
corrupted or mismatched ADT simply falls back to the interpreter.
Kernels carry no fault poll sites: a unit runs an operation that has a
fault armed (``FaultInjector.armed``) on the interpretive path, so every
named fault site keeps firing there, and runs every other operation on
its kernel.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from repro.accel.adt import (
    ADT_ENTRY_BYTES,
    ADT_HEADER_BYTES,
    AdtView,
    _compile_template,
    _oneof_group_ids,
)
from repro.accel.deserializer import DeserSchedule
from repro.accel.serializer import SerSchedule
from repro.faults.plan import FaultSite
from repro.memo import MISS, Memo
from repro.memory.layout import LayoutCache
from repro.proto.descriptor import (
    MessageDescriptor,
    reachable_types,
    structural_fingerprint,
)
from repro.proto.errors import DecodeError
from repro.proto.lazy import install
from repro.proto.types import (
    CPP_SCALAR_BYTES,
    FIXED_WIDTH_BYTES,
    FieldType,
    WireType,
    ZIGZAG_TYPES,
    wire_type_for,
)
from repro.proto.varint import decode_varint, encode_varint
from repro.proto.wire import encode_tag

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF

#: Single-byte varint outputs, pre-built so the kernels avoid a call for
#: the overwhelmingly common small values (bit-identical to encode_varint).
_B1 = tuple(bytes([value]) for value in range(128))

#: Wire-type names in numeric order, for error text identical to
#: ``WireType(value).name``.
_WTN = ("VARINT", "FIXED64", "LENGTH_DELIMITED", "START_GROUP",
        "END_GROUP", "FIXED32")

_FIXED_TYPES = frozenset(FIXED_WIDTH_BYTES)

#: DeserStats fields the deserializer kernels count in ``a[1:8]``.
_DESER_COUNTERS = ("fields_parsed", "unknown_fields_skipped", "submessages",
                   "strings", "repeated_elements", "stack_spills",
                   "max_stack_depth")
#: SerStats fields the serializer kernels accumulate in ``s[0:8]``.
_SER_COUNTERS = ("frontend_cycles", "fsu_cycles", "fields_serialized",
                 "submessages", "strings", "repeated_elements",
                 "stack_spills", "max_stack_depth")
_STRINGISH = frozenset({FieldType.STRING, FieldType.BYTES})


#: Compiled kernel namespaces, keyed by ``(kind, fingerprint, schedule)``.
#: Values are ``(namespace, spec)``, or ``None`` for schemas the generator
#: declined (the negative result is memoised too, so the interpreter
#: fallback stays cheap).  Sized so that the paper figures' 80 kernels
#: (41 schemas under two schedules) all stay resident.
CODE_CACHE = Memo("codegen", 128)


# ---------------------------------------------------------------------------
# Shared generator plumbing
# ---------------------------------------------------------------------------


def _f(value: float) -> str:
    """Exact (shortest round-trip) float literal."""
    return repr(float(value))


def _build_spec(descs, order, layouts: LayoutCache) -> list[dict]:
    """Per-type validation spec the plan resolver checks against the live
    ADT image (entry region byte-for-byte, modulo sub-ADT pointers)."""
    spec = []
    for descriptor in descs:
        layout = layouts.layout(descriptor)
        template = _compile_template(descriptor, layout)
        msg = tuple((fd.number, order[id(fd.message_type)])
                    for fd in descriptor.fields if fd.is_message)
        spec.append({
            "min": descriptor.min_field_number,
            "max": descriptor.max_field_number,
            "span": descriptor.field_number_span,
            "hbo": layout.hasbits_offset,
            "size": layout.object_size,
            "entries": template.entries,
            "oneof": template.oneof_header,
            "msg": msg,
        })
    return spec


def _resolve_plans(memory, adt_addr: int, spec: list[dict]):
    """Resolve runtime addresses for a kernel against the live ADT graph.

    Returns per-type plan tuples ``(entries_base, sub_ptr0, sub_vptr0,
    ...)`` or ``None`` when the live image disagrees with the spec (the
    binding then falls back to the interpreter)."""
    plans: list = [None] * len(spec)
    if not _walk_plans(memory, spec, plans, adt_addr, 0):
        return None
    return [tuple(plan) for plan in plans]


def _walk_plans(memory, spec: list[dict], plans: list, addr: int,
                ti: int) -> bool:
    """Fill ``plans`` for type ``ti`` at ``addr`` and everything it
    reaches; False on the first disagreement with ``spec``.  A module
    function, not a closure: a recursive closure is a reference cycle
    that would keep ``memory`` alive until a garbage collection."""
    plan = plans[ti]
    if plan is not None:
        return plan[0] == addr + ADT_HEADER_BYTES
    entry = spec[ti]
    view = AdtView(memory, addr)
    if (view.min_field_number != entry["min"]
            or view.max_field_number != entry["max"]
            or view.hasbits_offset != entry["hbo"]
            or view.object_size != entry["size"]):
        return False
    span = entry["span"]
    if span:
        raw = bytes(memory.read(addr + ADT_HEADER_BYTES,
                                span * ADT_ENTRY_BYTES))
        expected = entry["entries"]
        for index in range(span):
            base = index * ADT_ENTRY_BYTES
            # Sub-ADT pointer bytes [8:16] are per-build; everything
            # else must match the generator's assumed image exactly.
            if raw[base:base + 8] != expected[base:base + 8]:
                return False
        if bytes(memory.read(addr + 32, 32)) != entry["oneof"]:
            return False
    plan = [addr + ADT_HEADER_BYTES]
    plans[ti] = plan
    for number, sub_ti in entry["msg"]:
        decoded = view.entry(number)
        if decoded is None or not decoded.defined \
                or decoded.sub_adt_ptr == 0:
            return False
        sub_view = AdtView(memory, decoded.sub_adt_ptr)
        plan.append(decoded.sub_adt_ptr)
        plan.append(sub_view.default_vptr)
        if not _walk_plans(memory, spec, plans, decoded.sub_adt_ptr, sub_ti):
            return False
    return True


def _oneof_word_masks(descriptor: MessageDescriptor) -> dict[str, tuple]:
    """{group name: (hasbits word, sibling mask)} -- same math as the
    ADT template compiler, so kernels clear siblings identically."""
    masks = {}
    for group in _oneof_group_ids(descriptor):
        numbers = descriptor.oneof_groups[group]
        bits = [n - descriptor.min_field_number for n in numbers]
        word = bits[0] // 64
        mask = 0
        for bit in bits:
            mask |= 1 << bit % 64
        masks[group] = (word, mask)
    return masks


def _deser_watchdog(unit, stats, a, cycles):
    """Shared helper the generated deserializer raises through."""
    stats.cycles = cycles
    if cycles > a[0]:
        a[0] = cycles
    return unit._watchdog_fire(FaultSite.DESER_HANG, stats, None)


def _ser_watchdog(unit, stats, s, tp):
    """Shared helper the generated serializer raises through."""
    stats.frontend_cycles = s[0]
    stats.fsu_cycles = s[1]
    stats.tlb_penalty_cycles = tp
    return unit._watchdog_fire(stats, None)


def _deser_fallback_table(descriptor: MessageDescriptor, layout,
                          schedule: DeserSchedule) -> tuple:
    """Per-type table :func:`_deser_fallback` reads: ``(schedule, min,
    max, {number: (object offset, region width or None when singular,
    expected-type text)})``; ``min`` is None for a type with no fields."""
    fields = {}
    for fd in descriptor.fields:
        ft = fd.field_type
        width = None
        if fd.is_repeated:
            width = (8 if ft in _STRINGISH or fd.is_message
                     else CPP_SCALAR_BYTES[ft])
        expected = ("a sub-message field"
                    if fd.is_message and not fd.is_repeated else ft.value)
        fields[fd.number] = (layout.field_offsets[fd.number], width,
                             expected)
    low = descriptor.min_field_number if descriptor.field_number_span \
        else None
    return schedule, low, descriptor.max_field_number, fields


def _fallback_varint(data, slen: int, pos: int, a) -> tuple[int, int]:
    if pos >= slen:
        raise DecodeError("varint unit given an empty window", site="varint")
    value = data[pos]
    if value < 128:
        pos += 1
    else:
        value, length = decode_varint(data[pos:pos + 10])
        pos += length
    a[8] += 1
    return value, pos


def _deser_fallback(z, data, slen, pos, k, eb, obj, r, cycles, table):
    """Shared cold path of every generated deserializer: a key no branch
    of the type's function expects.  An invalid key or a wrong wire type
    on a defined field raises; an in-range hole or an out-of-range
    number is skipped.  Replays the interpreter's charges, region
    close/reopen, counters and error text in its order, and records
    ``a[0]`` before raising.  Returns ``(pos, cycles)``."""
    r64, w64, alloc, lookup, a = z[2], z[3], z[5], z[6], z[8]
    schedule, low, high, fields = table
    try:
        wire = k & 7
        if wire > 5:
            raise DecodeError(f"invalid wire type {wire}")
        number = k >> 3
        if number < 1:
            raise DecodeError(f"invalid field number {number}")
        if low is not None and low <= number <= high:
            if lookup(eb + (number - low) * ADT_ENTRY_BYTES):
                cycles += schedule.typeinfo_hit
            else:
                cycles += schedule.adt_entry_miss
            field = fields.get(number)
            if field is not None:
                a[1] += 1
                offset, width, expected = field
                if r is not None and (width is None or r[0] != number):
                    # Close the open repeated region.
                    w64(r[1], r[2])
                    w64(r[1] + 8, r[3])
                    w64(r[1] + 16, r[4])
                    cycles += schedule.repeated_close
                if width is not None and (r is None or r[0] != number):
                    # Reopen (or open) this repeated field's region.
                    header = r64(obj + offset)
                    if header:
                        r64(header)
                        r64(header + 8)
                        r64(header + 16)
                        cycles += schedule.repeated_reopen
                    else:
                        header = alloc(24, 8)
                        alloc(8 * width, 8)
                        cycles += schedule.repeated_open
                        w64(obj + offset, header)
                raise DecodeError(f"wire type {_WTN[wire]} "
                                  f"does not match {expected}")
        else:
            cycles += schedule.typeinfo_hit
        cycles += schedule.skip_field
        if wire == 0:
            _, pos = _fallback_varint(data, slen, pos, a)
        elif wire == 1 or wire == 5:
            width = 8 if wire == 1 else 4
            if slen - pos < width:
                raise DecodeError(f"consume({width}) exceeds remaining "
                                  f"{slen - pos} (truncated input stream)")
            pos += width
        elif wire == 2:
            length, pos = _fallback_varint(data, slen, pos, a)
            if length > slen - pos:
                raise DecodeError("bulk consume ran past end of stream "
                                  "(truncated input)")
            cycles += length / schedule.stream_bytes_per_cycle
            pos += length
        else:
            raise DecodeError(f"cannot skip deprecated wire type "
                              f"{_WTN[wire]}")
        a[2] += 1
        return pos, cycles
    except BaseException:
        if cycles > a[0]:
            a[0] = cycles
        raise


class _Writer:
    """Indented source writer keeping one chunk per emitted function."""

    def __init__(self):
        self._chunks: list[tuple[str, list[str]]] = []

    def begin(self, name: str) -> None:
        """Start the chunk of the function ``name``."""
        self._chunks.append((name, []))

    def w(self, indent: int, text: str = "") -> None:
        self._chunks[-1][1].append("    " * indent + text if text else "")

    def chunks(self) -> list[tuple[str, str]]:
        return [(name, "\n".join(lines) + "\n")
                for name, lines in self._chunks]


# ---------------------------------------------------------------------------
# Deserializer kernel generator
# ---------------------------------------------------------------------------


def _gen_deser_source(descriptor: MessageDescriptor,
                      schedule: DeserSchedule):
    """Emit the straight-line deserializer for ``descriptor``: one
    ``(name, source)`` chunk per function, plus the validation spec."""
    layouts = LayoutCache()
    order, descs, _ = reachable_types(descriptor)
    spec = _build_spec(descs, order, layouts)

    out = _Writer()
    w = out.w

    def varint(ind: int, tgt: str) -> None:
        w(ind, "if pos >= slen:")
        w(ind + 1, "raise DecodeError("
                   '"varint unit given an empty window", site="varint")')
        w(ind, f"{tgt} = data[pos]")
        w(ind, f"if {tgt} < 128:")
        w(ind + 1, "pos += 1")
        w(ind, "else:")
        w(ind + 1, f"{tgt}, _n = dv(data[pos:pos + 10])")
        w(ind + 1, "pos += _n")
        w(ind, "a[8] += 1")

    def close_region(ind: int) -> None:
        w(ind, "w64(r[1], r[2])")
        w(ind, "w64(r[1] + 8, r[3])")
        w(ind, "w64(r[1] + 16, r[4])")
        w(ind, f"cycles += {_f(schedule.repeated_close)}")

    def close_open(ind: int) -> None:
        w(ind, "if r is not None:")
        close_region(ind + 1)
        w(ind + 1, "r = None")

    def lookup_entry(ind: int, addr_expr: str, miss: float) -> None:
        w(ind, f"if lookup({addr_expr}):")
        w(ind + 1, f"cycles += {_f(schedule.typeinfo_hit)}")
        w(ind, "else:")
        w(ind + 1, f"cycles += {_f(miss)}")

    def grow(ind: int, width: int) -> None:
        w(ind, "_nc = r[4] * 2")
        w(ind, f"_nd = alloc(_nc * {width}, 8)")
        w(ind, f"_ob = r[3] * {width}")
        w(ind, "mw(_nd, mr(r[2], _ob))")
        w(ind, f"cycles += -(-_ob // {schedule.bytes_per_beat})")
        w(ind, "r[2] = _nd")
        w(ind, "r[4] = _nc")

    def append(ind: int, width: int, db_expr: str) -> None:
        w(ind, "if r[3] >= r[4]:")
        grow(ind + 1, width)
        w(ind, f"mw(r[2] + r[3] * {width}, {db_expr})")
        w(ind, "r[3] += 1")
        w(ind, "a[5] += 1")

    def reopen(ind: int, number: int, off: int, width: int) -> None:
        w(ind, f"if r is None or r[0] != {number}:")
        w(ind + 1, "if r is not None:")
        close_region(ind + 2)
        w(ind + 1, f"_h = r64(obj + {off})")
        w(ind + 1, "if _h:")
        w(ind + 2, f"r = [{number}, _h, r64(_h), r64(_h + 8), "
                   "r64(_h + 16)]")
        w(ind + 2, f"cycles += {_f(schedule.repeated_reopen)}")
        w(ind + 1, "else:")
        w(ind + 2, "_h = alloc(24, 8)")
        w(ind + 2, f"r = [{number}, _h, alloc({8 * width}, 8), 0, 8]")
        w(ind + 2, f"cycles += {_f(schedule.repeated_open)}")
        w(ind + 2, f"w64(obj + {off}, _h)")

    def string_body(ind: int, utf8: bool) -> None:
        # Decodes a length-delimited string/bytes payload into a fresh
        # string object; leaves its address in ``sa``.
        varint(ind, "ln")
        w(ind, "if ln > slen - pos:")
        w(ind + 1, "raise DecodeError("
                   '"truncated string/bytes payload")')
        w(ind, f"cycles += {_f(schedule.string_setup)}")
        w(ind, "sa = alloc(32, 8)")
        w(ind, "if ln <= 15:")
        w(ind + 1, "pl = data[pos:pos + ln]")
        w(ind + 1, "pos += ln")
        w(ind + 1, "w64(sa, sa + 16)")
        w(ind + 1, "w64(sa + 8, ln)")
        w(ind + 1, 'mw(sa + 16, pl.ljust(16, b"\\x00"))')
        w(ind, "else:")
        w(ind + 1, "dp = alloc(ln, 8)")
        w(ind + 1, "pl = data[pos:pos + ln]")
        w(ind + 1, "pos += ln")
        w(ind + 1, "mw(dp, pl)")
        w(ind + 1, "w64(sa, dp)")
        w(ind + 1, "w64(sa + 8, ln)")
        w(ind + 1, "w64(sa + 16, ln)")
        w(ind + 1, "w64(sa + 24, 0)")
        w(ind, f"cycles += ln / {_f(schedule.stream_bytes_per_cycle)}")
        w(ind, "a[4] += 1")
        if utf8:
            w(ind, "validate(pl)")

    def varint_value(ind: int, fd) -> str:
        """Emit the varint decode + transforms; returns the wire-image
        bytes expression for the decoded value in ``v``."""
        ft = fd.field_type
        width = CPP_SCALAR_BYTES[ft]
        varint(ind, "v")
        if ft in ZIGZAG_TYPES:
            w(ind, "a[9] += 1")
            w(ind, "v = (v >> 1) ^ -(v & 1)")
        if ft is FieldType.BOOL:
            return '(b"\\x01" if v else b"\\x00")'
        if width == 8 and ft not in ZIGZAG_TYPES:
            # decode_varint already masks to 64 bits.
            return 'v.to_bytes(8, "little")'
        mask = _U64 if width == 8 else _U32
        return f'(v & {mask:#x}).to_bytes({width}, "little")'

    def fixed_value(ind: int, width: int, tgt: str) -> None:
        w(ind, f"if slen - pos < {width}:")
        w(ind + 1, 'raise DecodeError("truncated fixed-width value")')
        w(ind, f"{tgt} = data[pos:pos + {width}]")
        w(ind, f"pos += {width}")

    def submessage_enter(ind: int, slot_expr: str, sub_ti: int,
                         plan_slot: int, sub_size: int,
                         singular: bool) -> None:
        varint(ind, "ln")
        w(ind, "if ln > slen - pos:")
        w(ind + 1, 'raise DecodeError("truncated sub-message")')
        lookup_entry(ind, f"p[{plan_slot}]", schedule.submsg_header_miss)
        fresh_ind = ind
        if singular:
            w(ind, f"ex = r64({slot_expr})")
            w(ind, "if ex:")
            w(ind + 1, "ch = ex")
            w(ind + 1, f"cycles += {_f(schedule.submsg_setup)}")
            w(ind, "else:")
            fresh_ind = ind + 1
        w(fresh_ind, f"ch = alloc({sub_size}, 8)")
        w(fresh_ind, f"fill(ch, {sub_size}, 0)")
        w(fresh_ind, f"w64(ch, p[{plan_slot + 1}])")
        w(fresh_ind, f"w64({slot_expr}, ch)")
        w(fresh_ind, f"cycles += {_f(schedule.submsg_setup)}")
        w(ind, "a[3] += 1")
        w(ind, f"if depth >= {schedule.stack_depth}:")
        w(ind + 1, f"cycles += {_f(schedule.stack_spill)}")
        w(ind + 1, "a[6] += 1")
        w(ind, "if depth + 1 > a[7]:")
        w(ind + 1, "a[7] = depth + 1")
        fresh = "ex == 0" if singular else "True"
        w(ind, f"pos, cycles = _d{sub_ti}(z, data, slen, pos, pos + ln, "
               f"ch, depth + 1, cycles, {fresh})")

    for ti, d in enumerate(descs):
        layout = layouts.layout(d)
        span = d.field_number_span
        minf = d.min_field_number
        hbo = layout.hasbits_offset
        nwords = max(1, -(-span // 64))
        masks = _oneof_word_masks(d)
        msg_slots = {number: 1 + 2 * k
                     for k, (number, _sub) in enumerate(spec[ti]["msg"])}

        def hasbit(ind: int, fd) -> None:
            bit = fd.number - minf
            hw, hb_mask = bit // 64, 1 << bit % 64
            if fd.oneof_group:
                word, mask = masks[fd.oneof_group]
                keep = ~mask & _U64
                w(ind, f"hb[{word}] = hb[{word}] & {keep:#x} "
                       f"| {hb_mask:#x}")
            else:
                w(ind, f"hb[{hw}] |= {hb_mask:#x}")

        out.begin(f"_d{ti}")
        w(0, f"def _d{ti}(z, data, slen, pos, end, obj, depth, cycles, "
             "fresh):")
        w(1, "mr, mw, r64, w64, fill, alloc, lookup, validate, a, wd, "
             "stats, unit, plans = z")
        w(1, f"p = plans[{ti}]")
        w(1, "eb = p[0]")
        w(1, "try:")
        w(2, "if fresh:")
        w(3, f"hb = [0] * {nwords}")
        w(2, "else:")
        if nwords == 1:
            w(3, f"hb = [r64(obj + {hbo})]")
        else:
            w(3, f"hb = [r64(obj + {hbo} + _i * 8) "
                 f"for _i in range({nwords})]")
        w(2, "r = None")
        w(2, "while pos < end:")
        w(3, "if wd is not None and cycles >= wd:")
        w(4, "raise _dwd(unit, stats, a, cycles)")
        varint(3, "k")
        w(3, f"cycles += {_f(schedule.parse_key)}")

        first = True
        for fd in d.fields:
            ft = fd.field_type
            number = fd.number
            off = layout.field_offsets[number]
            eoff = (number - minf) * ADT_ENTRY_BYTES
            entry_expr = f"eb + {eoff}" if eoff else "eb"
            keyword = "if" if first else "elif"

            def branch(wire: WireType, keyword: str = keyword):
                w(3, f"{keyword} k == {number << 3 | int(wire)}:")
                lookup_entry(4, entry_expr, schedule.adt_entry_miss)
                w(4, "a[1] += 1")
                hasbit(4, fd)

            if fd.is_message:
                sub_ti = order[id(fd.message_type)]
                sub_size = layouts.layout(fd.message_type).object_size
                slot = msg_slots[number]
                branch(WireType.LENGTH_DELIMITED)
                if fd.is_repeated:
                    reopen(4, number, off, 8)
                    w(4, "if r[3] >= r[4]:")
                    grow(5, 8)
                    w(4, "sl = r[2] + r[3] * 8")
                    w(4, "r[3] += 1")
                    w(4, "a[5] += 1")
                    submessage_enter(4, "sl", sub_ti, slot, sub_size,
                                     singular=False)
                else:
                    close_open(4)
                    submessage_enter(4, f"obj + {off}", sub_ti, slot,
                                     sub_size, singular=True)
            elif ft in _STRINGISH:
                branch(WireType.LENGTH_DELIMITED)
                if fd.is_repeated:
                    reopen(4, number, off, 8)
                    string_body(4, fd.validate_utf8)
                    append(4, 8, 'sa.to_bytes(8, "little")')
                else:
                    close_open(4)
                    string_body(4, fd.validate_utf8)
                    w(4, f"w64(obj + {off}, sa)")
            else:
                width = CPP_SCALAR_BYTES[ft]
                is_fixed = ft in _FIXED_TYPES
                if fd.is_repeated:
                    # Element-wire branch.
                    branch(wire_type_for(ft))
                    reopen(4, number, off, width)
                    if is_fixed:
                        fixed_value(4, width, "db")
                        w(4, f"cycles += {_f(schedule.scalar_write)}")
                        append(4, width, "db")
                    else:
                        db = varint_value(4, fd)
                        w(4, f"cycles += {_f(schedule.scalar_write)}")
                        append(4, width, db)
                    # Packed branch (the unit accepts packed wire for
                    # any repeated numeric, declared packed or not).
                    branch(WireType.LENGTH_DELIMITED, "elif")
                    reopen(4, number, off, width)
                    varint(4, "ln")
                    w(4, f"cycles += {_f(schedule.packed_open)}")
                    w(4, "pe = pos + ln")
                    w(4, "if ln > slen - pos:")
                    w(5, 'raise DecodeError("truncated packed field")')
                    w(4, "while pos < pe:")
                    if is_fixed:
                        fixed_value(5, width, "db")
                        w(5, f"cycles += {_f(schedule.packed_fixed[width])}")
                        append(5, width, "db")
                    else:
                        db = varint_value(5, fd)
                        w(5, f"cycles += {_f(schedule.packed_varint)}")
                        append(5, width, db)
                    w(4, "if pos != pe:")
                    w(5, "raise DecodeError("
                         '"packed payload overran its length")')
                else:
                    branch(wire_type_for(ft))
                    close_open(4)
                    if is_fixed:
                        w(4, f"if slen - pos < {width}:")
                        w(5, 'raise DecodeError'
                             '("truncated fixed-width value")')
                        w(4, f"mw(obj + {off}, data[pos:pos + {width}])")
                        w(4, f"pos += {width}")
                        w(4, f"cycles += {_f(schedule.scalar_write)}")
                    else:
                        db = varint_value(4, fd)
                        w(4, f"mw(obj + {off}, {db})")
                        w(4, f"cycles += {_f(schedule.scalar_write)}")
            first = False

        # Every other key -- invalid, a wrong wire type on a defined
        # field, an in-range hole, an out-of-range unknown -- takes the
        # shared cold path.
        spec[ti]["fallback"] = _deser_fallback_table(d, layout, schedule)
        w(3, "else:" if not first else "if True:")
        w(4, "pos, cycles = _dfb(z, data, slen, pos, k, eb, obj, r, cycles, "
             f"_FB[{ti}])")

        # Frame epilogue.
        w(2, "if pos > end:")
        w(3, "raise DecodeError("
             '"sub-message parsing overran length", offset=pos)')
        w(2, "if r is not None:")
        close_region(3)
        w(2, f"cycles += {_f(schedule.message_finish)}")
        w(2, f"if depth - 1 >= {schedule.stack_depth}:")
        w(3, f"cycles += {_f(schedule.stack_spill)}")
        w(3, "a[6] += 1")
        for word in range(nwords):
            w(2, f"w64(obj + {hbo + word * 8}, hb[{word}])")
        w(2, "return pos, cycles")
        w(1, "except BaseException:")
        w(2, "if cycles > a[0]:")
        w(3, "a[0] = cycles")
        w(2, "raise")
        w(0)

    # Entry point: DeserializerUnit.deserialize runs it in place of the
    # interpretive loop and keeps the per-operation charges for both tiers.
    top_layout = layouts.layout(descriptor)
    top_words = max(1, -(-descriptor.field_number_span // 64))
    out.begin("_deser_entry")
    w(0, "def _deser_entry(plans, unit, loader, dest, stats):")
    w(1, "a = [0.0, 0, 0, 0, 0, 0, 0, 1, 0, 0]")
    w(1, "cycles = stats.cycles")
    w(1, "data = loader.prefetched()")
    w(1, "slen = len(data)")
    w(1, "mem = unit.memory")
    w(1, "w64 = mem.write_u64")
    w(1, "wd = unit.watchdog.budget_cycles "
         "if unit.watchdog is not None else None")
    w(1, "z = (mem.read, mem.write, mem.read_u64, w64, mem.fill, "
         "unit._arena.allocate, unit._adt_cache.lookup, "
         "unit.utf8_unit.validate, a, wd, stats, unit, plans)")
    for word in range(top_words):
        w(1, f"w64(dest + {top_layout.hasbits_offset + word * 8}, 0)")
    w(1, "try:")
    w(2, "pos, cycles = _d0(z, data, slen, 0, slen, dest, 1, cycles, "
         "True)")
    w(2, "if slen - pos:")
    w(3, "raise DecodeError("
         '"trailing bytes after top-level message", offset=pos)')
    w(1, "except DecodeError:")
    w(2, "stats.cycles = a[0] if a[0] > cycles else cycles")
    w(2, "raise")
    w(1, "finally:")
    w(2, "unit.varint_unit.credit(decodes=a[8], zigzag_ops=a[9])")
    w(1, "stats.cycles = cycles")
    for slot, name in enumerate(_DESER_COUNTERS, start=1):
        w(1, f"stats.{name} = a[{slot}]")
    return out.chunks(), spec


# ---------------------------------------------------------------------------
# Serializer kernel generator
# ---------------------------------------------------------------------------


def _gen_ser_source(descriptor: MessageDescriptor, schedule: SerSchedule):
    """Emit the straight-line serializer for ``descriptor``: one
    ``(name, source)`` chunk per function, plus the validation spec."""
    layouts = LayoutCache()
    order, descs, _ = reachable_types(descriptor)
    spec = _build_spec(descs, order, layouts)

    out = _Writer()
    w = out.w

    def scalar_wire(ind: int, ft: FieldType, raw_expr: str) -> str:
        """Emit value transforms; returns the wire-bytes expression."""
        if ft in _FIXED_TYPES:
            return raw_expr
        width = CPP_SCALAR_BYTES[ft]
        signed = ft in (FieldType.INT32, FieldType.INT64, FieldType.SINT32,
                        FieldType.SINT64, FieldType.ENUM)
        if ft is FieldType.BOOL:
            w(ind, f"_p = 1 if {raw_expr} != b\"\\x00\" else 0")
        elif ft in ZIGZAG_TYPES:
            w(ind, f"_v = int.from_bytes({raw_expr}, \"little\", "
                   "signed=True)")
            w(ind, "s[9] += 1")
            w(ind, f"_p = ((_v << 1) ^ (_v >> 63)) & {_U64:#x}")
        elif signed:
            w(ind, f"_v = int.from_bytes({raw_expr}, \"little\", "
                   "signed=True)")
            w(ind, f"_p = _v & {_U64:#x}")
        else:
            w(ind, f"_p = int.from_bytes({raw_expr}, \"little\")")
        w(ind, "s[8] += 1")
        w(ind, "_w = _B1[_p] if _p < 128 else ev(_p)")
        return "_w"

    def string_field(ind: int, addr_expr: str, key: bytes) -> None:
        w(ind, f"_sa = {addr_expr}")
        w(ind, "_dp = r64(_sa)")
        w(ind, "_sz = r64(_sa + 8)")
        w(ind, "_pl = mr(_dp, _sz)")
        w(ind, f"_bt = -(-(_sz + 32) // {schedule.bytes_per_beat})")
        w(ind, "s[1] += _bt if _bt > 1 else 1.0")
        w(ind, "s[4] += 1")
        w(ind, "push(_pl)")
        w(ind, "s[8] += 1")
        w(ind, "_lb = _B1[_sz] if _sz < 128 else ev(_sz)")
        w(ind, f"s[1] += {_f(schedule.fsu_encode)}")
        w(ind, "push(_lb)")
        w(ind, f"push({key!r})")

    def submsg_child(ind: int, sub_ti: int, key: bytes) -> None:
        w(ind, f"s[0] += {_f(schedule.submsg_push)}")
        w(ind, "s[3] += 1")
        w(ind, "begin()")
        w(ind, f"_s{sub_ti}(zs, _ch, depth + 1)")
        w(ind, "_ln = endm()")
        w(ind, "s[8] += 1")
        w(ind, "push(_B1[_ln] if _ln < 128 else ev(_ln))")
        w(ind, f"push({key!r})")
        w(ind, f"s[0] += {_f(schedule.submsg_pop)}")

    for ti, d in enumerate(descs):
        layout = layouts.layout(d)
        span = d.field_number_span
        minf = d.min_field_number
        hbo = layout.hasbits_offset
        nwords = max(1, -(-span // 64))

        out.begin(f"_s{ti}")
        w(0, f"def _s{ti}(zs, obj, depth):")
        w(1, "mr, r64, push, begin, endm, s, wd, tp, unit, stats, arena "
             "= zs")
        w(1, "if depth > s[7]:")
        w(2, "s[7] = depth")
        w(1, f"if depth > {schedule.stack_depth}:")
        w(2, f"s[0] += {_f(schedule.stack_spill)}")
        w(2, "s[6] += 1")
        if not span:
            w(1, "return")
            w(0)
            continue
        w(1, f"s[0] += {nwords}")
        for word in range(nwords):
            w(1, f"h{word} = r64(obj + {hbo + word * 8})")
        for fd in sorted(d.fields, key=lambda f: -f.number):
            ft = fd.field_type
            number = fd.number
            off = layout.field_offsets[number]
            bit = number - minf
            hw, hbit = bit // 64, bit % 64
            w(1, f"if h{hw} >> {hbit} & 1:")
            w(2, "if wd is not None:")
            w(3, f"_fc = s[1] / {schedule.fsu_units}")
            w(3, f"if {_f(schedule.dispatch_fill)} "
                 "+ (s[0] if s[0] > _fc else _fc) + tp >= wd:")
            w(4, "raise _swd(unit, stats, s, tp)")
            w(2, f"s[0] += {_f(schedule.frontend_per_field)}")
            w(2, "s[2] += 1")
            if fd.is_message:
                sub_ti = order[id(fd.message_type)]
                key = encode_tag(number, WireType.LENGTH_DELIMITED)
                if fd.is_repeated:
                    w(2, f"_hd = r64(obj + {off})")
                    w(2, "_da = r64(_hd)")
                    w(2, "_ct = r64(_hd + 8)")
                    w(2, f"s[1] += {_f(schedule.repeated_header_load)}")
                    w(2, "_kids = [r64(_da + _k * 8) "
                         "for _k in range(_ct)]")
                    w(2, "_i = _ct - 1")
                    w(2, "while _i >= 0:")
                    w(3, "_ch = _kids[_i]")
                    submsg_child(3, sub_ti, key)
                    w(3, "_i -= 1")
                else:
                    w(2, f"_ch = r64(obj + {off})")
                    submsg_child(2, sub_ti, key)
            elif fd.is_repeated:
                width = 8 if ft in _STRINGISH else CPP_SCALAR_BYTES[ft]
                w(2, f"_hd = r64(obj + {off})")
                w(2, "_da = r64(_hd)")
                w(2, "_ct = r64(_hd + 8)")
                w(2, f"s[1] += {_f(schedule.repeated_header_load)}")
                if fd.packed:
                    key = encode_tag(number, WireType.LENGTH_DELIMITED)
                    w(2, "_cb = arena.cursor")
                    w(2, "_i = _ct - 1")
                    w(2, "while _i >= 0:")
                    w(3, f"_raw = mr(_da + _i * {width}, {width})")
                    w(3, f"s[1] += {_f(schedule.fsu_encode)}")
                    wire = scalar_wire(3, ft, "_raw")
                    w(3, f"push({wire})")
                    w(3, "_i -= 1")
                    w(2, f"s[1] += -(-(_ct * {width}) "
                         f"// {schedule.bytes_per_beat}) if _ct else 0.0")
                    w(2, "s[5] += _ct")
                    w(2, "_pn = _cb - arena.cursor")
                    w(2, "s[8] += 1")
                    w(2, "push(_B1[_pn] if _pn < 128 else ev(_pn))")
                    w(2, f"push({key!r})")
                elif ft in _STRINGISH:
                    key = encode_tag(number, WireType.LENGTH_DELIMITED)
                    w(2, "_i = _ct - 1")
                    w(2, "while _i >= 0:")
                    string_field(3, f"r64(_da + _i * 8)", key)
                    w(3, "_i -= 1")
                else:
                    key = encode_tag(number, wire_type_for(ft))
                    w(2, "_i = _ct - 1")
                    w(2, "while _i >= 0:")
                    w(3, f"_raw = mr(_da + _i * {width}, {width})")
                    element = schedule.fsu_encode + schedule.scalar_load[width]
                    w(3, f"s[1] += {_f(element)}")
                    wire = scalar_wire(3, ft, "_raw")
                    w(3, f"push({wire})")
                    w(3, f"push({key!r})")
                    w(3, "_i -= 1")
                if not fd.packed:
                    w(2, "s[5] += _ct")
                    w(2, "if _ct > 0:")
                    w(3, "s[2] += _ct - 1")
            elif ft in _STRINGISH:
                key = encode_tag(number, WireType.LENGTH_DELIMITED)
                string_field(2, f"r64(obj + {off})", key)
            else:
                width = CPP_SCALAR_BYTES[ft]
                key = encode_tag(number, wire_type_for(ft))
                w(2, f"_raw = mr(obj + {off}, {width})")
                w(2, f"s[1] += {_f(schedule.scalar_load[width])}")
                wire = scalar_wire(2, ft, "_raw")
                w(2, f"s[1] += {_f(schedule.fsu_encode)}")
                w(2, f"push({wire})")
                w(2, f"push({key!r})")
        w(0)

    # Entry point: SerializerUnit.serialize runs it in place of the
    # interpretive frontend and keeps the per-operation charges.
    out.begin("_ser_entry")
    w(0, "def _ser_entry(plans, unit, obj_addr, memwriter, stats):")
    w(1, "s = [stats.frontend_cycles, 0.0, 0, 0, 0, 0, 0, 0, 0, 0]")
    w(1, "tp = stats.tlb_penalty_cycles")
    w(1, "wd = unit.watchdog.budget_cycles "
         "if unit.watchdog is not None else None")
    w(1, "mem = unit.memory")
    w(1, "try:")
    w(2, "zs = (mem.read, mem.read_u64, memwriter.push, "
         "memwriter.begin_message, memwriter.end_message, s, wd, tp, "
         "unit, stats, unit._arena)")
    w(2, "_s0(zs, obj_addr, 1)")
    w(1, "finally:")
    w(2, "unit.varint_unit.credit(encodes=s[8], zigzag_ops=s[9])")
    for slot, name in enumerate(_SER_COUNTERS):
        w(1, f"stats.{name} = s[{slot}]")
    return out.chunks(), spec


# ---------------------------------------------------------------------------
# Compilation + bindings
# ---------------------------------------------------------------------------

_GENERATORS = {"deser": _gen_deser_source, "ser": _gen_ser_source}


#: Functions compiled with the kernel: the entry points the bindings hold
#: and the root types every operation reaches.  Every other per-type
#: function compiles the first time a message reaches it.
_EAGER = ("_deser_entry", "_ser_entry", "_d0", "_s0")


def _namespace(spec: list[dict]) -> dict:
    return {
        "DecodeError": DecodeError,
        "dv": decode_varint,
        "ev": encode_varint,
        "_B1": _B1,
        "_dwd": _deser_watchdog,
        "_swd": _ser_watchdog,
        "_dfb": _deser_fallback,
        "_FB": [entry.get("fallback") for entry in spec],
    }


def compiled_kernel(kind: str, descriptor: MessageDescriptor, schedule):
    """Fetch (or generate) the compiled kernel for a schema/schedule pair.

    Returns ``(namespace, spec)`` or ``None`` when generation failed
    (the negative result is cached; callers fall back to the
    interpreter)."""
    fingerprint = structural_fingerprint(descriptor)
    key = (kind, fingerprint, schedule)
    value = CODE_CACHE.get(key)
    if value is not MISS:
        return value
    try:
        chunks, spec = _GENERATORS[kind](descriptor, schedule)
        namespace = install(
            chunks, _namespace(spec),
            f"<codegen:{kind}:{descriptor.full_name}:{fingerprint[:12]}>",
            _EAGER)
        value = (namespace, spec)
    except Exception:
        # Any schema the generator cannot express runs interpreted.
        value = None
    CODE_CACHE.put(key, value)
    return value


class KernelBinding:
    """Per-unit resolver from ADT address to a ready-to-run kernel.

    Owns a small map ``{adt_addr: (schedule, kernel | None)}``; entries
    recompute when the unit's schedule is rebuilt, and resolve to
    ``None`` whenever the live ADT image disagrees with the generator's
    assumptions.  The binding does not hold its unit (the unit holds
    the binding): the unit passes its schedule to :meth:`kernel_for`
    and itself to the kernel, ``kernel(unit, ...)``, so a dead device
    is freed by reference counting."""

    def __init__(self, memory, resolver: Callable[[int], MessageDescriptor],
                 kind: str):
        self.memory = memory
        self.resolver = resolver
        self.kind = kind
        self._kernels: dict[int, tuple] = {}

    def kernel_for(self, adt_addr: int, schedule) -> Optional[Callable]:
        cached = self._kernels.get(adt_addr)
        if cached is not None and cached[0] is schedule:
            return cached[1]
        kernel = self._build(adt_addr, schedule)
        self._kernels[adt_addr] = (schedule, kernel)
        return kernel

    def _build(self, adt_addr: int, schedule) -> Optional[Callable]:
        try:
            descriptor = self.resolver(adt_addr)
        except KeyError:
            return None
        compiled = compiled_kernel(self.kind, descriptor, schedule)
        if compiled is None:
            return None
        namespace, spec = compiled
        plans = _resolve_plans(self.memory, adt_addr, spec)
        if plans is None:
            return None
        entry = namespace["_deser_entry" if self.kind == "deser"
                          else "_ser_entry"]
        return functools.partial(entry, plans)


def bind_deserializer(unit, resolver) -> KernelBinding:
    """Create the codegen binding the driver installs on a deserializer
    unit (``unit.codegen``); ``resolver`` maps adt_addr -> descriptor."""
    return KernelBinding(unit.memory, resolver, "deser")


def bind_serializer(unit, resolver) -> KernelBinding:
    """Create the codegen binding for a serializer unit."""
    return KernelBinding(unit.memory, resolver, "ser")
