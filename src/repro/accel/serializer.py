"""The serializer unit (Section 4.5, Figure 10).

Converts a C++ protobuf object image into wire bytes.  The *frontend*
loads the ``is_submessage`` and ``hasbits`` bit fields, iterates present
fields in **reverse field-number order** (Section 4.5.1), and issues
handle-field-ops; *field serializer units* (a round-robin pool) load and
encode field values in parallel; the round-robin output sequencer feeds
the :class:`~repro.accel.memwriter.Memwriter`, which writes the output
buffer from high to low addresses and injects sub-message keys when
end-of-message ops (field number zero) arrive.

Writing high-to-low in reverse field order produces *byte-identical*
output to the software serializer while making sub-message lengths known
before their keys are written -- the property our test suite pins.

Cycle accounting: the three pipeline stages run decoupled, so an
operation's cost is the maximum of the per-stage totals plus a pipeline
fill; field-value loads are address-independent (base + ADT offset) and
overlap across the FSU pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel import tiers
from repro.accel.adt import AdtEntry, AdtView
from repro.accel.memwriter import Memwriter
from repro.accel.varint_unit import CombinationalVarintUnit
from repro.faults.plan import FaultSite
from repro.memory.arena import SerializerArena
from repro.memory.layout import read_string_object
from repro.memory.memspace import SimMemory
from repro.proto.errors import AccelFault, WatchdogAbort
from repro.proto.types import (
    CPP_SCALAR_BYTES,
    FieldType,
    WireType,
    wire_type_for,
)
from repro.proto.varint import encode_signed
from repro.proto.wire import encode_tag
from repro.soc.config import SoCConfig
from repro.soc.tlb import Tlb

_SIGNED_CPP_TYPES = frozenset({
    FieldType.INT32, FieldType.INT64, FieldType.SINT32, FieldType.SINT64,
    FieldType.SFIXED32, FieldType.SFIXED64, FieldType.ENUM,
})


@dataclass
class SerTimingParams:
    """Per-stage cycle costs of the serializer pipeline."""

    #: RoCC command pair reaching the frontend.
    dispatch_overhead: float = 3.0
    #: Pipeline fill before the memwriter sees the first op.
    pipeline_fill: float = 2.0
    #: Frontend context-stack initialisation per operation.
    frontend_init: float = 2.0
    #: Frontend cost per present field (bit found + ADT entry + op issue).
    frontend_per_field: float = 1.0
    #: Extra frontend cost entering/leaving a sub-message context.
    frontend_submsg_push: float = 2.0
    frontend_submsg_pop: float = 1.0
    #: FSU encode slot per field (combinational varint/key generation).
    fsu_encode: float = 1.0


@dataclass(frozen=True)
class SerSchedule:
    """Every static per-stage charge of the serializer, derived once.

    Built from ``(SoCConfig, SerTimingParams)`` by :meth:`build`; the
    interpretive pipeline charges by entry name and the codegen tier bakes
    the same entries in as literals (see :class:`DeserSchedule`).
    """

    dispatch_fill: float         # RoCC dispatch + pipeline fill
    frontend_init: float
    frontend_per_field: float
    submsg_push: float
    submsg_pop: float
    fsu_encode: float
    scalar_load: tuple           # indexed by width in bytes
    repeated_header_load: float  # 24 B header of a repeated field
    fsu_units: int
    stack_spill: float
    stack_depth: int
    bytes_per_beat: int

    @classmethod
    def build(cls, config: SoCConfig,
              params: SerTimingParams) -> "SerSchedule":
        mem = config.memory
        return cls(
            dispatch_fill=params.dispatch_overhead + params.pipeline_fill,
            frontend_init=params.frontend_init,
            frontend_per_field=params.frontend_per_field,
            submsg_push=params.frontend_submsg_push,
            submsg_pop=params.frontend_submsg_pop,
            fsu_encode=params.fsu_encode,
            scalar_load=tuple(max(1.0, float(mem.beats(width)))
                              for width in range(9)),
            repeated_header_load=max(1.0, float(mem.beats(24))),
            fsu_units=config.field_serializer_units,
            stack_spill=config.stack_spill_cycles,
            stack_depth=config.context_stack_depth,
            bytes_per_beat=mem.bytes_per_beat)

    def stage_total(self, stats: "SerStats") -> float:
        """The decoupled stages overlap: an operation costs the slowest
        stage's total plus dispatch, fill and TLB penalty.  Before the
        memwriter total is recorded this is the watchdog's progress
        clock."""
        return (self.dispatch_fill
                + max(stats.frontend_cycles, stats.fsu_cycles / self.fsu_units,
                      stats.memwriter_cycles)
                + stats.tlb_penalty_cycles)


@dataclass
class SerStats:
    """Outcome of one serialization operation."""

    cycles: float = 0.0
    output_bytes: int = 0
    fields_serialized: int = 0
    submessages: int = 0
    strings: int = 0
    repeated_elements: int = 0
    frontend_cycles: float = 0.0
    fsu_cycles: float = 0.0
    memwriter_cycles: float = 0.0
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

    def merge(self, other: "SerStats") -> None:
        for name in ("cycles", "output_bytes", "fields_serialized",
                     "submessages", "strings", "repeated_elements",
                     "frontend_cycles", "fsu_cycles", "memwriter_cycles",
                     "stack_spills", "tlb_penalty_cycles",
                     "transport_cycles",
                     "faults_injected", "fault_retries", "cpu_fallbacks",
                     "wasted_accel_cycles", "recovery_backoff_cycles",
                     "fallback_cpu_cycles"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_stack_depth = max(self.max_stack_depth,
                                   other.max_stack_depth)


class SerializerUnit:
    """Behavioral model of the serializer unit."""

    def __init__(self, memory: SimMemory, config: SoCConfig | None = None,
                 timing: SerTimingParams | None = None):
        self.memory = memory
        self.config = config or SoCConfig()
        self.params = timing or SerTimingParams()  # builds self.schedule
        self.varint_unit = CombinationalVarintUnit()
        self._arena: SerializerArena | None = None
        self._tlb = Tlb(self.config.tlb_entries, self.config.ptw_cycles)
        self.faults = None
        #: Optional per-operation cycle-budget watchdog (an object with
        #: ``budget_cycles`` and ``aborts``; see repro.serve.watchdog).
        self.watchdog = None
        #: KernelBinding installed by the driver (repro.accel.codegen);
        #: None runs interpreted.
        self.codegen = None

    @property
    def params(self) -> SerTimingParams:
        return self._params

    @params.setter
    def params(self, params: SerTimingParams) -> None:
        """Reassigning the timing params rebuilds the charge schedule
        (see DeserializerUnit.params)."""
        self._params = params
        self.schedule = SerSchedule.build(self.config, params)

    # -- RoCC-visible operations -----------------------------------------------

    def assign_arena(self, arena: SerializerArena) -> None:
        """Model of ``ser_assign_arena`` (Section 4.3)."""
        self._arena = arena

    def attach_faults(self, injector) -> None:
        """Wire a FaultInjector through this unit and its sub-units."""
        self.faults = injector
        self.varint_unit.faults = injector
        self._tlb.faults = injector

    def serialize(self, adt_addr: int, obj_addr: int) -> SerStats:
        """Model of one ``ser_info`` + ``do_proto_ser`` pair.

        Returns stats; the serialized bytes land in the arena and are
        retrievable via ``arena.output(n)`` (Section 4.5.2's API).
        """
        if self._arena is None:
            raise RuntimeError(
                "no serializer arena assigned; issue ser_assign_arena")
        kernel = None
        if self.codegen is not None and (self.faults is None
                                         or not self.faults.armed):
            # Specialized straight-line kernel; an operation with a
            # fault armed runs the FSM (see DeserializerUnit).
            kernel = self.codegen.kernel_for(adt_addr)
        tiers.note("ser", "interp" if kernel is None else "codegen")
        stats = SerStats()
        if self.faults is not None:
            self.faults.begin_attempt(stats)
            # The frontend's first object-image read is a bus transaction.
            self.faults.poll(FaultSite.BUS_STALL)
        memwriter = Memwriter(self._arena, self.config.memory)
        stats.frontend_cycles += self.schedule.frontend_init
        stats.tlb_penalty_cycles += self._tlb.translate_range(obj_addr, 64)
        if kernel is None:
            self._serialize_message(AdtView(self.memory, adt_addr), obj_addr,
                                    memwriter, stats, depth=1)
        else:
            kernel(obj_addr, memwriter, stats)
        _, length = memwriter.finish_top_level()
        stats.output_bytes = length
        stats.memwriter_cycles = memwriter.cycles
        stats.cycles = self.schedule.stage_total(stats)
        return stats

    def _watchdog_fire(self, stats: SerStats,
                       hang: AccelFault | None) -> AccelFault:
        """Build the abort for a hung (or runaway) serializer pipeline;
        mirrors DeserializerUnit._watchdog_fire (docs/SERVING.md)."""
        if self.watchdog is None:
            assert hang is not None
            return hang
        self.watchdog.aborts += 1
        cycle = max(self.schedule.stage_total(stats),
                    self.watchdog.budget_cycles)
        kind = "hung" if hang is not None else "runaway"
        return WatchdogAbort(
            f"watchdog aborted {kind} serializer pipeline "
            f"(budget {self.watchdog.budget_cycles:.0f} cycles)",
            site=FaultSite.SER_HANG.value, cycle=cycle, transient=False,
            injected=hang is not None)

    # -- frontend ---------------------------------------------------------------

    def _read_hasbits(self, adt: AdtView, obj_addr: int,
                      stats: SerStats) -> list[int]:
        words = max(1, -(-adt.span // 64))
        # The frontend streams hasbits and is_submessage words in parallel
        # (Section 4.5.3); one cycle per word covers both.
        stats.frontend_cycles += words
        return [
            self.memory.read_u64(obj_addr + adt.hasbits_offset + w * 8)
            for w in range(words)
        ]

    def _present_numbers_reverse(self, adt: AdtView, obj_addr: int,
                                 stats: SerStats) -> list[int]:
        """Present field numbers in reverse order, from the hasbits scan."""
        if adt.span == 0:
            return []
        hasbits = self._read_hasbits(adt, obj_addr, stats)
        minimum = adt.min_field_number
        numbers = []
        for index in range(adt.span - 1, -1, -1):
            if hasbits[index // 64] >> index % 64 & 1:
                numbers.append(minimum + index)
        return numbers

    def _serialize_message(self, adt: AdtView, obj_addr: int,
                           memwriter: Memwriter, stats: SerStats,
                           depth: int) -> None:
        stats.max_stack_depth = max(stats.max_stack_depth, depth)
        if depth > self.schedule.stack_depth:
            stats.frontend_cycles += self.schedule.stack_spill
            stats.stack_spills += 1
        for number in self._present_numbers_reverse(adt, obj_addr, stats):
            if self.faults is not None:
                self.faults.poll(FaultSite.SER_ABORT)
                try:
                    self.faults.poll(FaultSite.SER_HANG)
                except AccelFault as hang:
                    raise self._watchdog_fire(stats, hang) from hang
                self.faults.poll(FaultSite.ADT_ENTRY)
            if (self.watchdog is not None
                    and self.schedule.stage_total(stats)
                    >= self.watchdog.budget_cycles):
                raise self._watchdog_fire(stats, None)
            entry = adt.entry(number)
            if entry is None or not entry.defined:
                continue
            stats.frontend_cycles += self.schedule.frontend_per_field
            stats.fields_serialized += 1
            self._serialize_field(adt, obj_addr, number, entry, memwriter,
                                  stats, depth)

    # -- field serializer units ---------------------------------------------------

    def _serialize_field(self, adt: AdtView, obj_addr: int, number: int,
                         entry: AdtEntry, memwriter: Memwriter,
                         stats: SerStats, depth: int) -> None:
        slot = obj_addr + entry.field_offset
        if entry.is_message:
            self._serialize_submessage_field(obj_addr, number, entry,
                                             memwriter, stats, depth)
            return
        if entry.repeated:
            self._serialize_repeated(slot, number, entry, memwriter, stats)
            return
        ft = entry.field_type
        assert ft is not None
        if ft in (FieldType.STRING, FieldType.BYTES):
            self._serialize_string(self.memory.read_u64(slot), number,
                                   memwriter, stats)
            return
        self._serialize_scalar(slot, number, entry, memwriter, stats)

    def _scalar_wire_bytes(self, entry: AdtEntry, raw: bytes) -> bytes:
        """Encode the C++ value bytes of one element into wire bytes."""
        ft = entry.field_type
        assert ft is not None
        if ft in (FieldType.DOUBLE, FieldType.FLOAT, FieldType.FIXED32,
                  FieldType.FIXED64, FieldType.SFIXED32, FieldType.SFIXED64):
            return raw  # fixed-width values copy straight to the wire
        value = int.from_bytes(
            raw, "little", signed=ft in _SIGNED_CPP_TYPES)
        if entry.zigzag:
            payload = self.varint_unit.zigzag_encode(value)
        elif ft is FieldType.BOOL:
            payload = 1 if value else 0
        else:
            payload = encode_signed(value)
        return self.varint_unit.encode(payload)

    def _serialize_scalar(self, slot: int, number: int, entry: AdtEntry,
                          memwriter: Memwriter, stats: SerStats) -> None:
        width = CPP_SCALAR_BYTES[entry.field_type]
        raw = self.memory.read(slot, width)
        stats.fsu_cycles += self.schedule.scalar_load[width]
        wire = self._scalar_wire_bytes(entry, raw)
        key = encode_tag(number, wire_type_for(entry.field_type))
        stats.fsu_cycles += self.schedule.fsu_encode
        # High-to-low output: push the value, then the key above it.
        memwriter.push(wire)
        memwriter.push(key)

    def _serialize_string(self, string_addr: int, number: int,
                          memwriter: Memwriter, stats: SerStats) -> None:
        view = read_string_object(self.memory, string_addr)
        stats.fsu_cycles += max(
            1.0, float(-(-(view.size + 32) // self.schedule.bytes_per_beat)))
        stats.strings += 1
        memwriter.push(view.payload)
        length = self.varint_unit.encode(view.size)
        key = encode_tag(number, WireType.LENGTH_DELIMITED)
        stats.fsu_cycles += self.schedule.fsu_encode
        memwriter.push(length)
        memwriter.push(key)

    def _serialize_repeated(self, slot: int, number: int, entry: AdtEntry,
                            memwriter: Memwriter, stats: SerStats) -> None:
        header = self.memory.read_u64(slot)
        data_addr = self.memory.read_u64(header)
        count = self.memory.read_u64(header + 8)
        stats.fsu_cycles += self.schedule.repeated_header_load
        ft = entry.field_type
        assert ft is not None
        if ft in (FieldType.STRING, FieldType.BYTES):
            width = 8
        else:
            width = CPP_SCALAR_BYTES[ft]
        if entry.packed:
            cursor_before = memwriter.arena.cursor
            for index in range(count - 1, -1, -1):
                raw = self.memory.read(data_addr + index * width, width)
                stats.fsu_cycles += self.schedule.fsu_encode
                memwriter.push(self._scalar_wire_bytes(entry, raw))
            stats.fsu_cycles += float(
                -(-(count * width) // self.schedule.bytes_per_beat))
            stats.repeated_elements += count
            payload_len = cursor_before - memwriter.arena.cursor
            memwriter.push(self.varint_unit.encode(payload_len))
            memwriter.push(encode_tag(number, WireType.LENGTH_DELIMITED))
            return
        key = encode_tag(number, wire_type_for(ft))
        for index in range(count - 1, -1, -1):
            element_addr = data_addr + index * width
            if ft in (FieldType.STRING, FieldType.BYTES):
                self._serialize_string(self.memory.read_u64(element_addr),
                                       number, memwriter, stats)
            else:
                raw = self.memory.read(element_addr, width)
                stats.fsu_cycles += (self.schedule.fsu_encode
                                     + self.schedule.scalar_load[width])
                memwriter.push(self._scalar_wire_bytes(entry, raw))
                memwriter.push(key)
        stats.repeated_elements += count
        stats.fields_serialized += max(0, count - 1)

    def _serialize_submessage_field(self, obj_addr: int, number: int,
                                    entry: AdtEntry, memwriter: Memwriter,
                                    stats: SerStats, depth: int) -> None:
        slot = obj_addr + entry.field_offset
        sub_adt = AdtView(self.memory, entry.sub_adt_ptr)
        if entry.repeated:
            header = self.memory.read_u64(slot)
            data_addr = self.memory.read_u64(header)
            count = self.memory.read_u64(header + 8)
            stats.fsu_cycles += self.schedule.repeated_header_load
            children = [self.memory.read_u64(data_addr + i * 8)
                        for i in range(count)]
        else:
            children = [self.memory.read_u64(slot)]
        key = encode_tag(number, WireType.LENGTH_DELIMITED)
        for child_addr in reversed(children):
            stats.frontend_cycles += self.schedule.submsg_push
            stats.submessages += 1
            memwriter.begin_message()
            self._serialize_message(sub_adt, child_addr, memwriter, stats,
                                    depth + 1)
            length = memwriter.end_message()
            # The memwriter injects the sub-message's key, now that the
            # length is known (the reason output is written high-to-low).
            memwriter.push(self.varint_unit.encode(length))
            memwriter.push(key)
            stats.frontend_cycles += self.schedule.submsg_pop
