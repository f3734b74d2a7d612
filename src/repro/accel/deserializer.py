"""The deserializer unit (Section 4.4, Figure 9).

Receives a pointer to a serialized protobuf and populates a C++ object
image of the message's type in simulated memory.  The top-level object is
caller-allocated (compatibility with standard protobuf APIs); every
internal object -- sub-messages, strings, repeated-field buffers -- is
allocated by the accelerator in its assigned arena (Section 4.3).

The field-handler control is the paper's state machine: ``parseKey`` (one
cycle, combinational varint decode over the memloader window), ``typeInfo``
(block for the ADT entry), then per-type value states: final scalar writes,
string allocation/copy, repeated-field handling with tagged open-allocation
regions, and sub-message handling with a hardware metadata stack.

Cycle accounting policy (documented per-constant in
:class:`DeserTimingParams`): the FSM processes at most one state per cycle;
bulk copies drain the 16 B/cycle memloader window; ADT reads hit a small
on-chip entry cache (misses pay a dependent-access round trip); writes are
posted through the memory interface wrappers and stay off the critical path
unless bandwidth-bound (string copies charge their write beats, overlapped
with reads on the independent write channel).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.accel import tiers
from repro.accel.adt import AdtEntry, AdtView
from repro.accel.memloader import Memloader
from repro.accel.utf8_unit import Utf8ValidationUnit
from repro.accel.varint_unit import CombinationalVarintUnit
from repro.faults.plan import FaultSite
from repro.memory.arena import AcceleratorArena
from repro.memory.layout import SSO_CAPACITY, STRING_OBJECT_BYTES
from repro.memory.memspace import SimMemory
from repro.proto.errors import (
    AccelDecodeFault,
    AccelFault,
    DecodeError,
    WatchdogAbort,
)
from repro.proto.types import (
    CPP_SCALAR_BYTES,
    FIXED_WIDTH_BYTES,
    FieldType,
    WireType,
    wire_type_for,
)
from repro.proto.varint import decode_signed
from repro.soc.config import SoCConfig
from repro.soc.tlb import Tlb

_REPEATED_HEADER_BYTES = 24


@dataclass
class DeserTimingParams:
    """Per-state cycle costs of the deserializer FSM.

    These are the behavioral model's stand-ins for RTL pipeline stages; the
    ablation benchmarks vary them to quantify each design choice.
    """

    parse_key: float = 1.0          # combinational key decode + dispatch
    typeinfo_hit: float = 1.0       # ADT entry present in the entry cache
    scalar_write: float = 1.0       # final write state, posted store
    string_setup: float = 2.0       # length decode + arena alloc + header
    repeated_open: float = 1.0      # open a tagged allocation region
    repeated_close: float = 1.0     # close-out: write final length
    submsg_setup: float = 3.0       # header decode + alloc + parent pointer
    skip_field: float = 1.0         # unknown-field skip (plus beats if long)
    message_finish: float = 1.0     # pop metadata stack / signal completion
    #: Fixed per-operation overhead: two RoCC instructions reaching the
    #: command router, control handoff into the field handler, and
    #: top-level hasbits initialisation.
    dispatch_overhead: float = 12.0
    #: Size of the on-chip ADT entry cache (entries of 16 B).
    adt_cache_entries: int = 64
    #: Varints decoded per cycle in packed repeated fields.  The base
    #: design's combinational unit handles one varint per cycle
    #: (Section 4.4.4); a wider speculative decoder is an ablation.
    packed_varints_per_cycle: float = 1.0


@dataclass(frozen=True)
class DeserSchedule:
    """Every static per-state charge of the deserializer, derived once.

    Built from ``(SoCConfig, DeserTimingParams)`` by :meth:`build`; the
    interpretive FSM charges by entry name and the codegen tier bakes the
    same entries in as literals, so each cost formula has one owner.
    Entries are named after the FSM states of docs/MODEL.md.
    """

    dispatch: float
    parse_key: float
    typeinfo_hit: float
    adt_entry_miss: float        # dependent 16 B ADT entry load
    submsg_header_miss: float    # dependent 32 B sub-ADT header load
    repeated_reopen: float       # dependent 24 B re-read of a closed header
    skip_field: float
    scalar_write: float
    string_setup: float
    stream_bytes_per_cycle: float
    repeated_open: float
    repeated_close: float
    packed_open: float           # packed-length decode
    packed_varint: float
    packed_fixed: tuple          # per element, indexed by width in bytes
    submsg_setup: float
    message_finish: float
    stack_spill: float
    stack_depth: int
    bytes_per_beat: int

    @classmethod
    def build(cls, config: SoCConfig,
              params: DeserTimingParams) -> "DeserSchedule":
        mem = config.memory
        return cls(
            dispatch=params.dispatch_overhead,
            parse_key=params.parse_key,
            typeinfo_hit=params.typeinfo_hit,
            adt_entry_miss=mem.dependent_access_cycles(16),
            submsg_header_miss=mem.dependent_access_cycles(32),
            repeated_reopen=mem.dependent_access_cycles(24),
            skip_field=params.skip_field,
            scalar_write=params.scalar_write,
            string_setup=params.string_setup,
            stream_bytes_per_cycle=mem.stream_bytes_per_cycle,
            repeated_open=params.repeated_open,
            repeated_close=params.repeated_close,
            packed_open=1.0,
            packed_varint=1 / params.packed_varints_per_cycle,
            packed_fixed=tuple(width / mem.bytes_per_beat
                               for width in range(9)),
            submsg_setup=params.submsg_setup,
            message_finish=params.message_finish,
            stack_spill=config.stack_spill_cycles,
            stack_depth=config.context_stack_depth,
            bytes_per_beat=mem.bytes_per_beat)


@dataclass
class DeserStats:
    """Outcome of one deserialization operation."""

    cycles: float = 0.0
    wire_bytes: int = 0
    fields_parsed: int = 0
    unknown_fields_skipped: int = 0
    submessages: int = 0
    strings: int = 0
    repeated_elements: int = 0
    arena_bytes: int = 0
    adt_cache_hits: int = 0
    adt_cache_misses: int = 0
    max_stack_depth: int = 0
    stack_spills: int = 0
    tlb_penalty_cycles: float = 0.0
    #: Attach-point cost (RoCC dispatch or PCIe queue-pair work) charged
    #: by the transport, NOT included in ``cycles`` -- the unit's own
    #: cycle count is transport-independent (docs/MODEL.md).
    transport_cycles: float = 0.0
    # Fault-recovery accounting (all zero on the fault-free path).
    faults_injected: int = 0
    fault_retries: int = 0
    cpu_fallbacks: int = 0
    wasted_accel_cycles: float = 0.0
    recovery_backoff_cycles: float = 0.0
    fallback_cpu_cycles: float = 0.0

    def merge(self, other: "DeserStats") -> None:
        """Accumulate another operation's stats into this one (batching)."""
        for name in (
                "cycles", "wire_bytes", "fields_parsed",
                "unknown_fields_skipped", "submessages", "strings",
                "repeated_elements", "arena_bytes", "adt_cache_hits",
                "adt_cache_misses", "stack_spills", "tlb_penalty_cycles",
                "transport_cycles",
                "faults_injected", "fault_retries", "cpu_fallbacks",
                "wasted_accel_cycles", "recovery_backoff_cycles",
                "fallback_cpu_cycles"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_stack_depth = max(self.max_stack_depth,
                                   other.max_stack_depth)


@dataclass
class _OpenRepeated:
    """A tagged open-allocation region for an unpacked repeated field."""

    field_number: int
    entry: AdtEntry
    header_addr: int
    data_addr: int
    element_width: int
    count: int = 0
    capacity: int = 0


@dataclass
class _Frame:
    """Message-level metadata kept on the hardware stack (Section 4.4.9)."""

    adt: AdtView
    obj_addr: int
    end_consumed: int  # memloader.consumed value at which this frame ends
    open_repeated: _OpenRepeated | None = None


class _AdtCache:
    """Small on-chip cache of ADT entry/header lines (LRU)."""

    def __init__(self, entries: int):
        self.entries = entries
        self._lines: OrderedDict[int, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate every cached line (hit/miss counters survive)."""
        self._lines.clear()

    def lookup(self, line_addr: int) -> bool:
        """Touch ``line_addr``; returns True on hit."""
        if line_addr in self._lines:
            self._lines.move_to_end(line_addr)
            self.hits += 1
            return True
        self.misses += 1
        if len(self._lines) >= self.entries:
            self._lines.popitem(last=False)
        self._lines[line_addr] = b""
        return False


class DeserializerUnit:
    """Behavioral model of the deserializer unit."""

    def __init__(self, memory: SimMemory, config: SoCConfig | None = None,
                 timing: DeserTimingParams | None = None):
        self.memory = memory
        self.config = config or SoCConfig()
        self.params = timing or DeserTimingParams()  # builds self.schedule
        self.varint_unit = CombinationalVarintUnit()
        self.utf8_unit = Utf8ValidationUnit()
        self._arena: AcceleratorArena | None = None
        self._adt_cache = _AdtCache(self.params.adt_cache_entries)
        self._tlb = Tlb(self.config.tlb_entries, self.config.ptw_cycles)
        self.faults = None
        #: Optional per-operation cycle-budget watchdog (an object with
        #: ``budget_cycles`` and ``aborts``; see repro.serve.watchdog).
        self.watchdog = None
        #: KernelBinding installed by the driver (repro.accel.codegen);
        #: None runs interpreted.
        self.codegen = None

    @property
    def params(self) -> DeserTimingParams:
        return self._params

    @params.setter
    def params(self, params: DeserTimingParams) -> None:
        """Reassigning the timing params (as the ablations do) rebuilds the
        charge schedule both tiers read; operations never rebuild it."""
        self._params = params
        self.schedule = DeserSchedule.build(self.config, params)

    # -- RoCC-visible operations ------------------------------------------------

    def assign_arena(self, arena: AcceleratorArena) -> None:
        """Model of ``deser_assign_arena`` (Section 4.3)."""
        self._arena = arena

    def attach_faults(self, injector) -> None:
        """Wire a FaultInjector through this unit and its sub-units."""
        self.faults = injector
        self.varint_unit.faults = injector
        self.utf8_unit.fault_injector = injector
        self._tlb.faults = injector

    def deserialize(self, adt_addr: int, dest_addr: int, src_addr: int,
                    src_len: int, hide_startup: bool = False) -> DeserStats:
        """Model of one ``deser_info`` + ``do_proto_deser`` pair.

        ``adt_addr``/``dest_addr`` arrive via ``deser_info``;
        ``src_addr``/``src_len`` (and the min field number, which we read
        from the ADT header the instruction also encodes) via
        ``do_proto_deser``.

        ``hide_startup`` models batched operation (Section 4.4.1): when the
        next ``do_proto_deser`` is already queued at the command router,
        the memloader prefetches its input stream while the field handler
        drains the current message, hiding the stream-open latency.
        """
        if self._arena is None:
            raise RuntimeError(
                "no accelerator arena assigned; issue deser_assign_arena")
        kernel = None
        if self.codegen is not None and (self.faults is None
                                         or not self.faults.armed):
            # Specialized straight-line kernel: bit-identical cycles and
            # errors, host wall-clock only.  An operation with a fault
            # armed runs the interpretive FSM instead, so every named
            # fault site still fires where it always has.
            kernel = self.codegen.kernel_for(adt_addr)
        tiers.note("deser", "interp" if kernel is None else "codegen")
        stats = DeserStats(wire_bytes=src_len)
        if self.faults is not None:
            # Each call is one hardware attempt; bind its stats so any
            # fault fired during it carries an accurate cycle stamp.
            self.faults.begin_attempt(stats)
        cache = self._adt_cache
        hits_before, misses_before = cache.hits, cache.misses
        stats.cycles += self.schedule.dispatch
        try:
            stats.tlb_penalty_cycles += self._tlb.translate_range(
                src_addr, max(src_len, 1))
            loader = Memloader(self.memory, self.config.memory, src_addr,
                               src_len, faults=self.faults)
            if not hide_startup:
                stats.cycles += loader.startup_cycles
            arena_before = self._arena.bytes_used
            if kernel is None:
                self._run_fsm(loader, adt_addr, dest_addr, stats)
            else:
                kernel(loader, dest_addr, stats)
        except AccelFault:
            raise
        except DecodeError as error:
            # Boundary wrap: every genuine wire-format violation leaves the
            # unit as a structured fault (site + cycle stamp) while staying
            # a DecodeError for existing callers.  Injected faults above
            # are already structured and pass through untouched.
            raise AccelDecodeFault.wrap(error, site="deserializer",
                                        cycle=stats.cycles) from error
        stats.arena_bytes = self._arena.bytes_used - arena_before
        stats.cycles += stats.tlb_penalty_cycles
        stats.adt_cache_hits = cache.hits - hits_before
        stats.adt_cache_misses = cache.misses - misses_before
        return stats

    def _run_fsm(self, loader: Memloader, adt_addr: int, dest_addr: int,
                 stats: DeserStats) -> None:
        """The interpretive field-handler loop over one message."""
        schedule = self.schedule
        top = _Frame(adt=AdtView(self.memory, adt_addr), obj_addr=dest_addr,
                     end_consumed=loader.remaining)
        self._init_hasbits(top)
        stack: list[_Frame] = [top]
        stats.max_stack_depth = 1
        while stack:
            frame = stack[-1]
            if loader.consumed >= frame.end_consumed:
                if loader.consumed > frame.end_consumed:
                    raise DecodeError("sub-message parsing overran length",
                                      offset=loader.consumed)
                self._close_open_repeated(frame, stats)
                stats.cycles += schedule.message_finish
                stack.pop()
                if len(stack) >= schedule.stack_depth:
                    stats.cycles += schedule.stack_spill
                    stats.stack_spills += 1
                continue
            if self.faults is not None:
                self.faults.poll(FaultSite.DESER_ABORT)
                try:
                    self.faults.poll(FaultSite.DESER_HANG)
                except AccelFault as hang:
                    # The FSM stops progressing here and spins; the
                    # watchdog's budget bounds the damage.
                    raise self._watchdog_fire(FaultSite.DESER_HANG, stats,
                                              hang) from hang
            if (self.watchdog is not None
                    and stats.cycles >= self.watchdog.budget_cycles):
                raise self._watchdog_fire(FaultSite.DESER_HANG, stats, None)
            self._handle_field(loader, stack, stats)
            stats.max_stack_depth = max(stats.max_stack_depth, len(stack))
        if loader.remaining:
            raise DecodeError("trailing bytes after top-level message",
                              offset=loader.consumed)

    def _watchdog_fire(self, site: FaultSite, stats,
                       hang: AccelFault | None) -> AccelFault:
        """Build the abort for a hung (or runaway) FSM.

        An injected hang spins without progress until the watchdog's
        per-operation budget expires, so the abort is stamped with the
        full budget; an organic overrun is stamped with its own count.
        Without a watchdog an injected hang degenerates to an abort at
        the fault site (the simulation cannot spin forever).
        """
        if self.watchdog is None:
            assert hang is not None
            return hang
        self.watchdog.aborts += 1
        cycle = max(float(stats.cycles), self.watchdog.budget_cycles)
        kind = "hung" if hang is not None else "runaway"
        return WatchdogAbort(
            f"watchdog aborted {kind} FSM at {site.value} "
            f"(budget {self.watchdog.budget_cycles:.0f} cycles)",
            site=site.value, cycle=cycle, transient=False,
            injected=hang is not None)

    # -- FSM states ---------------------------------------------------------------

    def _handle_field(self, loader: Memloader, stack: list[_Frame],
                      stats: DeserStats) -> None:
        frame = stack[-1]
        # parseKey state: combinational decode over the 10-byte window.
        key, key_len = self.varint_unit.decode(loader.peek())
        loader.consume(key_len)
        stats.cycles += self.schedule.parse_key
        field_number = key >> 3
        try:
            wire_type = WireType(key & 7)
        except ValueError:
            raise DecodeError(f"invalid wire type {key & 7}") from None
        if field_number < 1:
            raise DecodeError(f"invalid field number {field_number}")
        # typeInfo state: block for the ADT entry.
        entry = self._load_entry(frame.adt, field_number, stats)
        if entry is None or not entry.defined:
            self._skip_unknown(loader, wire_type, stats)
            stats.unknown_fields_skipped += 1
            return
        stats.fields_parsed += 1
        # Hasbits writer runs in parallel with the value states.  For a
        # oneof member it first clears the group's sibling bits using the
        # header's group mask (one extra RMW, still off the critical
        # path).
        if entry.oneof_group:
            word, mask = frame.adt.oneof_mask(entry.oneof_group)
            addr = frame.obj_addr + frame.adt.hasbits_offset + word * 8
            self.memory.write_u64(addr,
                                  self.memory.read_u64(addr) & ~mask)
        self._set_hasbit(frame, field_number)
        if entry.repeated:
            if (wire_type is WireType.LENGTH_DELIMITED
                    and entry.field_type not in (FieldType.STRING,
                                                 FieldType.BYTES,
                                                 FieldType.MESSAGE)):
                self._handle_packed(loader, frame, field_number, entry,
                                    stats)
            else:
                self._handle_repeated_element(loader, frame, field_number,
                                              entry, wire_type, stats, stack)
            return
        if frame.open_repeated is not None:
            self._close_open_repeated(frame, stats)
        if entry.is_message:
            if wire_type is not WireType.LENGTH_DELIMITED:
                raise DecodeError(
                    f"wire type {wire_type.name} does not match a "
                    "sub-message field")
            self._enter_submessage(loader, frame, entry, stats, stack,
                                   dest_slot=frame.obj_addr
                                   + entry.field_offset,
                                   field_number=field_number)
            return
        if entry.field_type in (FieldType.STRING, FieldType.BYTES):
            if wire_type is not WireType.LENGTH_DELIMITED:
                raise DecodeError(
                    f"wire type {wire_type.name} does not match "
                    f"{entry.field_type.value}")
            addr = self._handle_string(loader, stats, entry)
            self.memory.write_u64(frame.obj_addr + entry.field_offset, addr)
            return
        self._write_scalar(loader, frame.obj_addr + entry.field_offset,
                           entry, wire_type, stats)

    def _load_entry(self, adt: AdtView, field_number: int,
                    stats: DeserStats) -> AdtEntry | None:
        if self.faults is not None:
            # Parity check over the fetched ADT entry line.
            self.faults.poll(FaultSite.ADT_ENTRY)
        entry_addr = adt.entry_address(field_number)
        # Out-of-range numbers never had an entry; the range check is
        # combinational against the header's min/max.
        if entry_addr is None or self._adt_cache.lookup(entry_addr):
            stats.cycles += self.schedule.typeinfo_hit
        else:
            stats.cycles += self.schedule.adt_entry_miss
        return adt.entry(field_number)

    def _skip_unknown(self, loader: Memloader, wire_type: WireType,
                      stats: DeserStats) -> None:
        stats.cycles += self.schedule.skip_field
        if wire_type is WireType.VARINT:
            _, length = self.varint_unit.decode(loader.peek())
            loader.consume(length)
        elif wire_type is WireType.FIXED64:
            loader.consume(8)
        elif wire_type is WireType.FIXED32:
            loader.consume(4)
        elif wire_type is WireType.LENGTH_DELIMITED:
            length, consumed = self.varint_unit.decode(loader.peek())
            loader.consume(consumed)
            loader.consume_bulk(length)
            stats.cycles += length / self.schedule.stream_bytes_per_cycle
        else:
            raise DecodeError(
                f"cannot skip deprecated wire type {wire_type.name}")

    # -- scalar handling -------------------------------------------------------

    def _decode_scalar_bytes(self, loader: Memloader, entry: AdtEntry,
                             wire_type: WireType,
                             stats: DeserStats) -> bytes:
        """Decode one scalar element from the stream into its C++ bytes."""
        ft = entry.field_type
        assert ft is not None
        width = CPP_SCALAR_BYTES[ft]
        if ft in FIXED_WIDTH_BYTES:
            if wire_type is not wire_type_for(ft):
                raise DecodeError(
                    f"wire type {wire_type.name} does not match "
                    f"{ft.value}")
            raw = loader.peek(width)
            if len(raw) < width:
                raise DecodeError("truncated fixed-width value")
            loader.consume(width)
            return raw
        if wire_type is not WireType.VARINT:
            raise DecodeError(
                f"wire type {wire_type.name} does not match {ft.value}")
        payload, length = self.varint_unit.decode(loader.peek())
        loader.consume(length)
        if entry.zigzag:
            value = self.varint_unit.zigzag_decode(payload)
            value = decode_signed(value & (1 << width * 8) - 1,
                                  bits=width * 8)
            payload = value & (1 << width * 8) - 1
        elif ft is FieldType.BOOL:
            payload = 1 if payload else 0
        return (payload & (1 << width * 8) - 1).to_bytes(width, "little")

    def _write_scalar(self, loader: Memloader, slot_addr: int,
                      entry: AdtEntry, wire_type: WireType,
                      stats: DeserStats) -> None:
        data = self._decode_scalar_bytes(loader, entry, wire_type, stats)
        self.memory.write(slot_addr, data)
        stats.cycles += self.schedule.scalar_write

    # -- strings ------------------------------------------------------------------

    def _handle_string(self, loader: Memloader, stats: DeserStats,
                       entry: AdtEntry | None = None) -> int:
        """String allocation and copy states (Section 4.4.7).

        Builds a libstdc++-compatible std::string in the arena and returns
        its address.  proto3 string fields are UTF-8 validated in-stream
        (Section 7), overlapped with the copy.
        """
        assert self._arena is not None
        length, consumed = self.varint_unit.decode(loader.peek())
        loader.consume(consumed)
        if length > loader.remaining:
            # Bounds-check against the input stream *before* allocating,
            # so a corrupt length faults cleanly instead of draining the
            # arena.
            raise DecodeError("truncated string/bytes payload")
        stats.cycles += self.schedule.string_setup
        addr = self._arena.allocate(STRING_OBJECT_BYTES, 8)
        payload = loader.consume_bulk(length)
        if length <= SSO_CAPACITY:
            data_ptr = addr + 16
            self.memory.write_u64(addr, data_ptr)
            self.memory.write_u64(addr + 8, length)
            self.memory.write(addr + 16, bytes(payload).ljust(16, b"\x00"))
        else:
            data_ptr = self._arena.allocate(length, 8)
            self.memory.write(data_ptr, payload)
            self.memory.write_u64(addr, data_ptr)
            self.memory.write_u64(addr + 8, length)
            self.memory.write_u64(addr + 16, length)
            self.memory.write_u64(addr + 24, 0)
        stats.cycles += length / self.schedule.stream_bytes_per_cycle
        stats.strings += 1
        if entry is not None and entry.utf8_validate:
            self.utf8_unit.validate(payload)
        return addr

    # -- repeated fields -----------------------------------------------------------

    def _open_repeated(self, frame: _Frame, field_number: int,
                       entry: AdtEntry, width: int,
                       stats: DeserStats) -> _OpenRepeated:
        """Open a tagged allocation region (Section 4.4.8)."""
        assert self._arena is not None
        header = self._arena.allocate(_REPEATED_HEADER_BYTES, 8)
        initial = 8
        data = self._arena.allocate(initial * width, 8)
        region = _OpenRepeated(field_number=field_number, entry=entry,
                               header_addr=header, data_addr=data,
                               element_width=width, capacity=initial)
        frame.open_repeated = region
        stats.cycles += self.schedule.repeated_open
        # Write the parent's field slot immediately so duplicate openings
        # (same field number appearing again after a close) find the header.
        self.memory.write_u64(frame.obj_addr + entry.field_offset, header)
        return region

    def _grow_repeated(self, region: _OpenRepeated,
                       stats: DeserStats) -> None:
        """Double the open region's backing array (amortised memcpy)."""
        assert self._arena is not None
        new_capacity = region.capacity * 2
        new_data = self._arena.allocate(new_capacity * region.element_width,
                                        8)
        old_bytes = region.count * region.element_width
        self.memory.write(new_data, self.memory.read(region.data_addr,
                                                     old_bytes))
        stats.cycles += -(-old_bytes // self.schedule.bytes_per_beat)
        region.data_addr = new_data
        region.capacity = new_capacity

    def _append_slot(self, region: _OpenRepeated,
                     stats: DeserStats) -> int:
        """Claim the open region's next element slot, growing it first if
        it is full; returns the slot's address."""
        if region.count >= region.capacity:
            self._grow_repeated(region, stats)
        slot = region.data_addr + region.count * region.element_width
        region.count += 1
        stats.repeated_elements += 1
        return slot

    def _close_open_repeated(self, frame: _Frame,
                             stats: DeserStats) -> None:
        region = frame.open_repeated
        if region is None:
            return
        self.memory.write_u64(region.header_addr, region.data_addr)
        self.memory.write_u64(region.header_addr + 8, region.count)
        self.memory.write_u64(region.header_addr + 16, region.capacity)
        stats.cycles += self.schedule.repeated_close
        frame.open_repeated = None

    def _reopen_if_closed(self, frame: _Frame, field_number: int,
                          entry: AdtEntry, stats: DeserStats) -> _OpenRepeated:
        """Find or create the open region for an unpacked repeated field.

        If the field's region was previously closed (elements of another
        field intervened), the close-out wrote a valid header; reopening
        re-reads it and continues appending (growing if needed).
        """
        region = frame.open_repeated
        if region is not None and region.field_number == field_number:
            return region
        if region is not None:
            self._close_open_repeated(frame, stats)
        ft = entry.field_type
        assert ft is not None
        if ft in (FieldType.STRING, FieldType.BYTES, FieldType.MESSAGE):
            width = 8
        else:
            width = CPP_SCALAR_BYTES[ft]
        slot = frame.obj_addr + entry.field_offset
        header = self.memory.read_u64(slot)
        word, bit = self._hasbit_position(frame, field_number)
        already_present = bool(
            self.memory.read_u64(frame.obj_addr
                                 + frame.adt.hasbits_offset + word * 8)
            >> bit & 1)
        if header != 0 and already_present:
            region = _OpenRepeated(
                field_number=field_number, entry=entry, header_addr=header,
                data_addr=self.memory.read_u64(header),
                element_width=width,
                count=self.memory.read_u64(header + 8),
                capacity=self.memory.read_u64(header + 16))
            stats.cycles += self.schedule.repeated_reopen
            frame.open_repeated = region
            return region
        return self._open_repeated(frame, field_number, entry, width, stats)

    def _handle_repeated_element(self, loader: Memloader, frame: _Frame,
                                 field_number: int, entry: AdtEntry,
                                 wire_type: WireType, stats: DeserStats,
                                 stack: list[_Frame]) -> None:
        region = self._reopen_if_closed(frame, field_number, entry, stats)
        ft = entry.field_type
        assert ft is not None
        if ft in (FieldType.STRING, FieldType.BYTES, FieldType.MESSAGE) \
                and wire_type is not WireType.LENGTH_DELIMITED:
            raise DecodeError(
                f"wire type {wire_type.name} does not match {ft.value}")
        if ft in (FieldType.STRING, FieldType.BYTES):
            addr = self._handle_string(loader, stats, entry)
            self.memory.write(self._append_slot(region, stats),
                              addr.to_bytes(8, "little"))
            return
        if ft is FieldType.MESSAGE:
            self._enter_submessage(loader, frame, entry, stats, stack,
                                   dest_slot=self._append_slot(region, stats),
                                   field_number=field_number)
            return
        data = self._decode_scalar_bytes(loader, entry, wire_type, stats)
        stats.cycles += self.schedule.scalar_write
        self.memory.write(self._append_slot(region, stats), data)

    def _handle_packed(self, loader: Memloader, frame: _Frame,
                       field_number: int, entry: AdtEntry,
                       stats: DeserStats) -> None:
        """Packed repeated fields: length-delimited, handled like strings
        but element-decoded (Section 4.4.8)."""
        region = self._reopen_if_closed(frame, field_number, entry, stats)
        length, consumed = self.varint_unit.decode(loader.peek())
        loader.consume(consumed)
        stats.cycles += self.schedule.packed_open
        end = loader.consumed + length
        if end > loader.consumed + loader.remaining:
            raise DecodeError("truncated packed field")
        ft = entry.field_type
        assert ft is not None
        element_wire = wire_type_for(ft)
        # Packed fixed-width elements stream at the full window rate;
        # varints decode one per cycle through the combinational unit.
        per_element = (self.schedule.packed_varint
                       if element_wire is WireType.VARINT
                       else self.schedule.packed_fixed[CPP_SCALAR_BYTES[ft]])
        while loader.consumed < end:
            data = self._decode_scalar_bytes(loader, entry, element_wire,
                                             stats)
            stats.cycles += per_element
            self.memory.write(self._append_slot(region, stats), data)
        if loader.consumed != end:
            raise DecodeError("packed payload overran its length")

    # -- sub-messages ---------------------------------------------------------------

    def _enter_submessage(self, loader: Memloader, frame: _Frame,
                          entry: AdtEntry, stats: DeserStats,
                          stack: list[_Frame], dest_slot: int,
                          field_number: int) -> None:
        """Sub-message handling states (Section 4.4.9).

        Decodes the length header, allocates/initialises the child object
        from the sub-type's ADT header, links it into the parent, and
        pushes new message-level metadata onto the stack.
        """
        assert self._arena is not None
        length, consumed = self.varint_unit.decode(loader.peek())
        loader.consume(consumed)
        if length > loader.remaining:
            raise DecodeError("truncated sub-message")
        sub_adt = AdtView(self.memory, entry.sub_adt_ptr)
        if self._adt_cache.lookup(entry.sub_adt_ptr):
            stats.cycles += self.schedule.typeinfo_hit
        else:
            stats.cycles += self.schedule.submsg_header_miss
        existing = self.memory.read_u64(dest_slot)
        reuse = False
        if existing != 0 and not entry.repeated:
            word, bit = self._hasbit_position(frame, field_number)
            reuse = bool(self.memory.read_u64(
                frame.obj_addr + frame.adt.hasbits_offset + word * 8)
                >> bit & 1)
        if reuse:
            # proto2 merge semantics: a second occurrence of a singular
            # sub-message field keeps populating the existing object.
            child_addr = existing
        else:
            object_size = sub_adt.object_size
            child_addr = self._arena.allocate(object_size, 8)
            self.memory.fill(child_addr, object_size, 0)
            self.memory.write_u64(child_addr, sub_adt.default_vptr)
            self.memory.write_u64(dest_slot, child_addr)
            stats.arena_bytes += object_size
        stats.cycles += self.schedule.submsg_setup
        stats.submessages += 1
        if len(stack) >= self.schedule.stack_depth:
            stats.cycles += self.schedule.stack_spill
            stats.stack_spills += 1
        child = _Frame(adt=sub_adt, obj_addr=child_addr,
                       end_consumed=loader.consumed + length)
        if child.end_consumed > loader.consumed + loader.remaining:
            raise DecodeError("truncated sub-message")
        stack.append(child)

    # -- hasbits ---------------------------------------------------------------------

    def _hasbit_position(self, frame: _Frame,
                         field_number: int) -> tuple[int, int]:
        bit = field_number - frame.adt.min_field_number
        return bit // 64, bit % 64

    def _init_hasbits(self, frame: _Frame) -> None:
        """Zero the destination object's hasbits words before parsing."""
        adt = frame.adt
        span = adt.span
        words = max(1, -(-span // 64))
        for word in range(words):
            self.memory.write_u64(
                frame.obj_addr + adt.hasbits_offset + word * 8, 0)

    def _set_hasbit(self, frame: _Frame, field_number: int) -> None:
        """The hasbits-writer unit: posted read-modify-write (off the
        critical path; Figure 9 shows it as a parallel block)."""
        word, bit = self._hasbit_position(frame, field_number)
        addr = frame.obj_addr + frame.adt.hasbits_offset + word * 8
        self.memory.write_u64(addr, self.memory.read_u64(addr) | 1 << bit)
