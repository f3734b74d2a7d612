"""Event-trace CPU cost model.

:class:`SoftwareCpu` runs the *actual* software serializer/deserializer
from :mod:`repro.proto` with tracing enabled, then converts the event
stream into cycles using a :class:`CpuParams` table.  Throughput is
reported in Gbit/s of wire data, the metric of Figures 11-13.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional, Sequence

from repro.memo import MISS, Memo
from repro.proto.decoder import parse_message
from repro.proto.descriptor import MessageDescriptor, structural_fingerprint
from repro.proto.encoder import serialize_message
from repro.proto.message import Message
from repro.proto.trace import Op, Trace


#: Per-operation software cycle memos (deser and ser).  The trace-based
#: cost of one operation is a pure function of (cost params, message-type
#: structure, wire bytes) -- no state carries over between operations --
#: so identical operations charge the first computation's cycles.  See
#: docs/PERF.md for the determinism argument.
DESER_CYCLE_CACHE = Memo("cpu-deser", 1 << 18)
SER_CYCLE_CACHE = Memo("cpu-ser", 1 << 18)


@dataclass(frozen=True)
class CpuParams:
    """Per-event cycle costs for one microarchitecture.

    ``*_base``/``*_per_byte`` pairs model loops whose trip count depends on
    encoded size (the varint encode/decode loops); ``memcpy_bytes_per_cycle``
    is the sustained copy bandwidth in bytes per core cycle.
    """

    name: str
    clock_hz: float
    #: Fixed overhead of one parse call (entry, stream setup, clears).
    call_overhead_deser: float
    #: Fixed overhead of one serialize call (incl. ByteSize entry).
    call_overhead_ser: float
    tag_decode_base: float
    tag_decode_per_byte: float
    tag_encode: float
    varint_decode_base: float
    varint_decode_per_byte: float
    varint_encode_base: float
    varint_encode_per_byte: float
    zigzag: float
    fixed_read: float
    fixed_write: float
    #: Per decoded field: the wire-type switch and indirect dispatch.
    field_dispatch: float
    #: Per defined field scanned during serialization (hasbits test).
    field_check: float
    #: Per present field during the ByteSize pass.
    bytesize_field: float
    memcpy_base: float
    #: Sustained copy bandwidth into warm destinations (serialization's
    #: output buffer is reused across the batch).
    memcpy_bytes_per_cycle: float
    #: Sustained copy bandwidth into freshly allocated memory
    #: (deserialization writes string/array payloads into new buffers,
    #: paying cold write misses and page touches).
    memcpy_cold_bytes_per_cycle: float
    #: Heap allocation fast path (string buffers, message objects).
    alloc: float
    obj_construct_base: float
    obj_construct_bytes_per_cycle: float
    msg_enter: float
    msg_exit: float
    #: Frontend-pressure parameters (Section 7: generated ser/deser code
    #: is large and branch-heavy; a cold call can act like an I$ and
    #: branch-predictor flush).  Only the frontend-pressure analysis uses
    #: these; the steady-state benchmarks assume warm code.
    icache_miss_cycles: float = 0.0
    branch_mispredict_cycles: float = 0.0

    def event_cycles(self, op: Op, arg: int,
                     cold_memcpy: bool = False) -> float:
        """Cycle cost of one trace event."""
        if op is Op.TAG_DECODE:
            return self.tag_decode_base + self.tag_decode_per_byte * arg
        if op is Op.TAG_ENCODE:
            return self.tag_encode
        if op is Op.VARINT_DECODE:
            return (self.varint_decode_base
                    + self.varint_decode_per_byte * arg)
        if op is Op.VARINT_ENCODE:
            return (self.varint_encode_base
                    + self.varint_encode_per_byte * arg)
        if op is Op.ZIGZAG:
            return self.zigzag
        if op is Op.FIXED_READ:
            return self.fixed_read
        if op is Op.FIXED_WRITE:
            return self.fixed_write
        if op is Op.FIELD_DISPATCH:
            return self.field_dispatch
        if op is Op.FIELD_CHECK:
            return self.field_check
        if op is Op.BYTESIZE_FIELD:
            return self.bytesize_field
        if op is Op.MEMCPY:
            rate = (self.memcpy_cold_bytes_per_cycle if cold_memcpy
                    else self.memcpy_bytes_per_cycle)
            return self.memcpy_base + arg / rate
        if op is Op.ALLOC:
            return self.alloc
        if op is Op.OBJ_CONSTRUCT:
            return (self.obj_construct_base
                    + arg / self.obj_construct_bytes_per_cycle)
        if op is Op.MSG_ENTER:
            return self.msg_enter
        if op is Op.MSG_EXIT:
            return self.msg_exit
        raise ValueError(f"unknown trace op {op}")

    def trace_cycles(self, trace: Trace, cold_memcpy: bool = False) -> float:
        return sum(self.event_cycles(op, arg, cold_memcpy)
                   for op, arg in trace)


@dataclass
class CpuOpResult:
    """One software ser/deser operation's cost."""

    cycles: float
    wire_bytes: int
    trace: Trace


class SoftwareCpu:
    """A host running the software protobuf library."""

    def __init__(self, params: CpuParams):
        self.params = params

    @property
    def name(self) -> str:
        return self.params.name

    def deserialize(self, descriptor: MessageDescriptor,
                    data: bytes) -> tuple[Message, CpuOpResult]:
        trace = Trace()
        message = parse_message(descriptor, data, trace=trace)
        cycles = (self.params.call_overhead_deser
                  + self.params.trace_cycles(trace, cold_memcpy=True))
        return message, CpuOpResult(cycles, len(data), trace)

    def serialize(self, message: Message) -> tuple[bytes, CpuOpResult]:
        trace = Trace()
        data = serialize_message(message, trace=trace)
        cycles = (self.params.call_overhead_ser
                  + self.params.trace_cycles(trace))
        return data, CpuOpResult(cycles, len(data), trace)

    def deserialize_batch_cycles(self, descriptor: MessageDescriptor,
                                 buffers: list[bytes]) -> float:
        """Total cycles to deserialize the batch.

        Identical (params, type, wire bytes) operations are memoised via
        :data:`DESER_CYCLE_CACHE`: a batch of N structurally identical
        buffers traces the parse once and charges cached cycles for the
        remaining N-1 -- bit-for-bit equal to the uncached sum because
        each operation's trace cost is state-free.
        """
        prefix = (self.params, structural_fingerprint(descriptor))
        total = 0.0
        for data in buffers:
            key = prefix + (bytes(data),)
            cycles = DESER_CYCLE_CACHE.get(key)
            if cycles is MISS:
                cycles = self.deserialize(descriptor, data)[1].cycles
                DESER_CYCLE_CACHE.put(key, cycles)
            total += cycles
        return total

    def serialize_batch_cycles(self, messages: list[Message],
                               keys: Optional[Sequence[bytes]] = None
                               ) -> float:
        """Total cycles to serialize the batch.

        ``keys`` optionally supplies each message's wire bytes (e.g. a
        workload's cached buffers); when given, identical messages are
        memoised via :data:`SER_CYCLE_CACHE` the same way deserialization
        is.  Without keys every message is traced (computing a key would
        itself require serializing).
        """
        if keys is None or len(keys) != len(messages):
            return sum(self.serialize(message)[1].cycles
                       for message in messages)
        prefix = (self.params,
                  structural_fingerprint(messages[0].descriptor)
                  if messages else "")
        total = 0.0
        for message, wire in zip(messages, keys):
            key = prefix + (bytes(wire),)
            cycles = SER_CYCLE_CACHE.get(key)
            if cycles is MISS:
                cycles = self.serialize(message)[1].cycles
                SER_CYCLE_CACHE.put(key, cycles)
            total += cycles
        return total

    def gbits_per_second(self, payload_bytes: int, cycles: float) -> float:
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        seconds = cycles / self.params.clock_hz
        return payload_bytes * 8 / seconds / 1e9
