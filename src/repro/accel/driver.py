"""User-facing accelerator device API (the modified protobuf library).

Ties together the RoCC command interface, ADT generation, accelerator
arenas, and the deserializer/serializer units, exposing the workflow an
application linked against the paper's modified protobuf library follows:

1. at load time, ADTs are generated for every message type;
2. the program assigns accelerator arenas
   (``{ser,deser}_assign_arena``);
3. per operation, it issues ``deser_info`` + ``do_proto_deser`` (or
   ``ser_info`` + ``do_proto_ser``), possibly batched, then a
   ``block_for_*_completion`` fence;
4. deserialized objects are read through normal accessors; serialized
   outputs are fetched from the arena's pointer table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.adt import AdtBuilder
from repro.accel.dataops import DataOpStats, MessageOpsUnit
from repro.accel.deserializer import DeserializerUnit, DeserStats
from repro.accel.serializer import SerializerUnit, SerStats
from repro.faults import FaultInjector, FaultPlan, FaultSite, RecoveryPolicy
from repro.memory.arena import (
    AcceleratorArena,
    ArenaExhausted,
    SerializerArena,
)
from repro.memory.layout import (
    LayoutCache,
    read_message_image,
    write_message_image,
)
from repro.memory.memspace import SimMemory
from repro.proto.descriptor import MessageDescriptor
from repro.proto.errors import AccelFault
from repro.proto.message import Message
from repro.accel.watchdog import FsmWatchdog
from repro.soc.bus import SystemBus
from repro.soc.config import SoCConfig
from repro.soc.rocc import RoccFunct, RoccInstruction
from repro.soc.transport import build_transport


@dataclass
class DeserResult:
    """A completed accelerator deserialization."""

    dest_addr: int
    stats: DeserStats


@dataclass
class SerResult:
    """A completed accelerator serialization."""

    data: bytes
    stats: SerStats


@dataclass
class FaultRecoveryStats:
    """Device-lifetime fault/recovery counters (what an SRE dashboards)."""

    faults_injected: int = 0
    transient_retries: int = 0
    cpu_fallbacks: int = 0
    wasted_accel_cycles: float = 0.0
    backoff_cycles: float = 0.0
    fallback_cpu_cycles: float = 0.0


class ProtoAccelerator:
    """The accelerated SoC's protobuf offload device."""

    def __init__(self, memory: SimMemory | None = None,
                 config: SoCConfig | None = None,
                 deser_arena_bytes: int = 8 << 20,
                 ser_arena_bytes: int = 8 << 20,
                 faults: FaultPlan | FaultInjector | None = None,
                 recovery: RecoveryPolicy | None = None,
                 watchdog: FsmWatchdog | None = None,
                 fast_path: str = "codegen"):
        if memory is None:
            # Size the simulated DRAM to hold both arenas plus generous
            # heap headroom for object images and wire buffers.
            memory = SimMemory(size=max(
                64 << 20, 2 * (deser_arena_bytes + ser_arena_bytes)
                + (32 << 20)))
        self.memory = memory
        self.config = config or SoCConfig()
        self.layouts = LayoutCache()
        self.adts = AdtBuilder(self.memory, self.layouts)
        # The attach point: probe the configured transport and fall
        # back to RoCC (recording why) if its hardware is absent --
        # the HardwareManager pattern (repro.soc.transport).
        self.transport, self.transport_resolution = build_transport(
            self.config)
        #: Attach-point cycles not attributable to a single offloaded
        #: operation: device setup (arena assignment), Section 7 data
        #: ops, and submissions abandoned by unrecovered faults.
        self.transport_overhead_cycles = 0.0
        self.bus = SystemBus(bytes_per_beat=self.config.memory.bytes_per_beat)
        self.deserializer = DeserializerUnit(self.memory, self.config)
        self.serializer = SerializerUnit(self.memory, self.config)
        self.dataops = MessageOpsUnit(self.memory, self.config)
        self._deser_arena = AcceleratorArena(self.memory, deser_arena_bytes)
        self._ser_arena = SerializerArena(self.memory, ser_arena_bytes)
        self.transport.begin_batch()
        self._assign_arenas()
        self.transport.end_batch()
        self.transport_overhead_cycles += self.transport.take_cycles()
        self.recovery = recovery or RecoveryPolicy()
        # The watchdog is armed on every device: it is a pure comparator
        # on the fault-free path (bit-identical cycles; see
        # tests/serve/test_regression.py) and the only thing bounding a
        # hung FSM when hang faults are planned.
        self.watchdog = watchdog or FsmWatchdog()
        self.deserializer.watchdog = self.watchdog
        self.serializer.watchdog = self.watchdog
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults) if faults.enabled() else None
        self.faults = faults
        if self.faults is not None:
            self.deserializer.attach_faults(self.faults)
            self.serializer.attach_faults(self.faults)
        self.fault_stats = FaultRecoveryStats()
        self._fallback_cpu = None  # lazily built boom_cpu()
        # Schema-specialized codegen kernels (repro.accel.codegen): same
        # modeled cycles, much less host work.  The units pick the tier
        # per operation: one with a fault armed runs the interpretive
        # FSM, so every named fault site still fires.
        if fast_path not in ("codegen", "interp"):
            raise ValueError(f"unknown fast_path {fast_path!r}; "
                             "expected 'codegen' or 'interp'")
        if fast_path == "codegen":
            from repro.accel import codegen
            self.deserializer.codegen = codegen.bind_deserializer(
                self.deserializer, self.adts.descriptor_for)
            self.serializer.codegen = codegen.bind_serializer(
                self.serializer, self.adts.descriptor_for)

    def _assign_arenas(self) -> None:
        self.transport.issue(RoccInstruction(
            RoccFunct.DESER_ASSIGN_ARENA, self._deser_arena.base,
            self._deser_arena.size))
        self.deserializer.assign_arena(self._deser_arena)
        self.transport.issue(RoccInstruction(
            RoccFunct.SER_ASSIGN_ARENA, self._ser_arena.data_base,
            self._ser_arena.data_size))
        self.serializer.assign_arena(self._ser_arena)
        # The Section 7 data ops allocate from the deserializer's arena
        # (copy/merge build objects the same way deserialization does).
        self.dataops.assign_arena(self._deser_arena)

    # -- transport plumbing -----------------------------------------------------

    def _fault_kind(self, base: str) -> str:
        """Operation kind announced to the fault injector.  The RoCC
        kinds are the historical ``"deser"``/``"ser"`` (seeded site
        draws stay bit-identical); PCIe operations can additionally
        fault at the transport's own submission sites."""
        return base if self.transport.name == "rocc" else f"pcie.{base}"

    def _submit_deser(self, adt_addr: int, dest_addr: int, src_addr: int,
                      src_len: int) -> None:
        """Issue the ``deser_info``/``do_proto_deser`` pair (one
        descriptor over PCIe).  Transport fault sites are polled by the
        *driver*, before anything is issued: a lost doorbell or failed
        payload DMA is detected at submission, so a faulted submit
        leaves no in-flight work behind and is simply re-run."""
        if self.faults is not None:
            self.faults.poll(FaultSite.PCIE_DMA)
            self.faults.poll(FaultSite.PCIE_DOORBELL)
        self.transport.issue(RoccInstruction(RoccFunct.DESER_INFO, adt_addr,
                                             dest_addr))
        self.transport.issue(RoccInstruction(RoccFunct.DO_PROTO_DESER,
                                             src_addr, src_len))

    def _submit_ser(self, descriptor: MessageDescriptor, adt_addr: int,
                    obj_addr: int) -> None:
        """Issue the ``ser_info``/``do_proto_ser`` pair (one descriptor
        over PCIe); same submission-time fault polls as the deser twin."""
        if self.faults is not None:
            self.faults.poll(FaultSite.PCIE_DMA)
            self.faults.poll(FaultSite.PCIE_DOORBELL)
        self.transport.issue(RoccInstruction(
            RoccFunct.SER_INFO,
            self.layouts.layout(descriptor).hasbits_offset,
            descriptor.max_field_number << 32 | descriptor.min_field_number))
        self.transport.issue(RoccInstruction(RoccFunct.DO_PROTO_SER,
                                             adt_addr, obj_addr))

    def _drain_abandoned(self, error: BaseException) -> None:
        """Attribute transport cycles left behind by a failed operation.

        Over PCIe the abandoned submission's ring/doorbell/DMA work is
        real link-side cost the caller must see before failing over, so
        it rides on the fault's ``charged_cycles`` when the error
        carries one.  On RoCC the dispatch cycles stay on the
        device-lifetime overhead ledger, exactly where they lived
        before the transport seam existed (keeping the serving layer's
        failed-attempt charge -- and its latency bounds -- unchanged).
        """
        leaked = self.transport.take_cycles()
        if not leaked:
            return
        if (self.transport.name != "rocc"
                and getattr(error, "charged_cycles", None) is not None):
            error.charged_cycles += leaked
        else:
            self.transport_overhead_cycles += leaked

    # -- program-load setup -----------------------------------------------------

    def register_types(self, descriptors: list[MessageDescriptor]) -> None:
        """Generate ADTs for ``descriptors`` and all reachable sub-types
        (what the modified protoc emits into the binary)."""
        self.adts.build(descriptors)

    def register_schema(self, schema) -> None:
        """Convenience: register every message type in a parsed schema."""
        self.register_types(schema.messages())

    # -- deserialization ----------------------------------------------------------

    #: Cycles for the arena-exhausted interrupt round trip: fault, kernel
    #: handler, software assigning a fresh arena, and operation restart.
    ARENA_RENEWAL_CYCLES = 2500.0

    def _renew_deser_arena(self) -> None:
        """Assign a fresh deserializer arena (the interrupt handler's
        job when the accelerator faults on exhaustion -- Section 4.3)."""
        self._deser_arena = AcceleratorArena(self.memory,
                                             self._deser_arena.size)
        self.transport.issue(RoccInstruction(
            RoccFunct.DESER_ASSIGN_ARENA, self._deser_arena.base,
            self._deser_arena.size))
        self.deserializer.assign_arena(self._deser_arena)
        self.dataops.assign_arena(self._deser_arena)

    def deserialize(self, descriptor: MessageDescriptor,
                    wire_bytes: bytes,
                    hide_startup: bool = False,
                    auto_renew_arena: bool = False) -> DeserResult:
        """Offload one deserialization; returns the populated object's
        address plus cycle statistics.

        The wire buffer is placed in simulated memory and the top-level
        destination object is allocated on the software heap (by "user
        code", per Section 4.4), both zero-initialised.
        """
        adt_addr = self.adts.adt_address(descriptor)
        layout = self.layouts.layout(descriptor)
        src_addr = self.memory.allocate(max(len(wire_bytes), 1), 16)
        if wire_bytes:
            self.memory.write(src_addr, wire_bytes)
        dest_addr = self.memory.allocate(layout.object_size, 8)
        self.memory.fill(dest_addr, layout.object_size, 0)
        self.memory.write_u64(dest_addr, layout.vptr)
        transport = self.transport
        transport.begin_batch()
        try:
            if self.faults is not None:
                result = self._deserialize_recovering(
                    descriptor, wire_bytes, adt_addr, dest_addr, src_addr,
                    hide_startup, auto_renew_arena)
            else:
                self._submit_deser(adt_addr, dest_addr, src_addr,
                                   len(wire_bytes))
                stats = self._deser_attempt(
                    descriptor, adt_addr, dest_addr, src_addr,
                    len(wire_bytes), hide_startup, auto_renew_arena)
                transport.retire_deser()
                result = DeserResult(dest_addr=dest_addr, stats=stats)
        except BaseException as error:
            transport.end_batch()
            self._drain_abandoned(error)
            raise
        transport.end_batch()
        result.stats.transport_cycles += transport.take_cycles()
        return result

    def _deser_attempt(self, descriptor: MessageDescriptor, adt_addr: int,
                       dest_addr: int, src_addr: int, src_len: int,
                       hide_startup: bool,
                       auto_renew_arena: bool) -> DeserStats:
        """One hardware attempt, including the arena-renewal restart."""
        try:
            return self.deserializer.deserialize(
                adt_addr, dest_addr, src_addr, src_len,
                hide_startup=hide_startup)
        except ArenaExhausted:
            if not auto_renew_arena:
                raise
            # The accelerator faulted mid-operation; software installs a
            # fresh arena and restarts the deserialization from scratch
            # (partial state in the old arena is simply abandoned).
            self._renew_deser_arena()
            self._reset_dest(descriptor, dest_addr)
            stats = self.deserializer.deserialize(
                adt_addr, dest_addr, src_addr, src_len)
            stats.cycles += self.ARENA_RENEWAL_CYCLES
            return stats

    def _reset_dest(self, descriptor: MessageDescriptor,
                    dest_addr: int) -> None:
        """Re-zero the caller-allocated destination object for a restart."""
        layout = self.layouts.layout(descriptor)
        self.memory.fill(dest_addr, layout.object_size, 0)
        self.memory.write_u64(dest_addr, layout.vptr)

    def _fallback(self):
        """The host core's software library (BOOM cost model), used for
        per-message fallback after unrecoverable accelerator faults."""
        if self._fallback_cpu is None:
            from repro.cpu.boom import boom_cpu
            self._fallback_cpu = boom_cpu()
        return self._fallback_cpu

    def _note_fault(self, fault: AccelFault) -> None:
        """Bookkeeping common to every caught injected fault."""
        self.transport.record_fault(fault.site)
        self.fault_stats.faults_injected += 1
        self.fault_stats.wasted_accel_cycles += fault.cycle
        if fault.site == FaultSite.BUS_STALL.value:
            self.bus.record_stall(fault.cycle)

    def _deserialize_recovering(self, descriptor: MessageDescriptor,
                                wire_bytes: bytes, adt_addr: int,
                                dest_addr: int, src_addr: int,
                                hide_startup: bool,
                                auto_renew_arena: bool) -> DeserResult:
        """Fault-injected path: bounded retry with backoff for transient
        faults, then per-message CPU fallback (docs/FAULTS.md).

        Cycle charging: the final stats carry every wasted attempt's
        cycles (up to its fault), every backoff pause, and -- on fallback
        -- the BOOM software decode, on top of the successful attempt (or
        instead of one, for fallback).
        """
        assert self.faults is not None
        self.faults.begin_operation(self._fault_kind("deser"))
        injected = 0
        retries = 0
        wasted = 0.0
        backoff = 0.0
        submitted = False
        try:
            while True:
                try:
                    if not submitted:
                        # (Re)submission: a transport-site fault fires
                        # here, before the pair is issued, so the retry
                        # resubmits; a unit fault leaves the descriptor
                        # in flight and only the unit attempt re-runs.
                        self._submit_deser(adt_addr, dest_addr, src_addr,
                                           len(wire_bytes))
                        submitted = True
                    stats = self._deser_attempt(
                        descriptor, adt_addr, dest_addr, src_addr,
                        len(wire_bytes), hide_startup, auto_renew_arena)
                    break
                except AccelFault as fault:
                    if not fault.injected:
                        # A genuine decode error: the input really is
                        # malformed; retrying cannot help and software
                        # would reject it identically.  Propagate.
                        raise
                    injected += 1
                    wasted += fault.cycle
                    self._note_fault(fault)
                    if (fault.transient
                            and retries < self.recovery.max_retries):
                        backoff += self.recovery.backoff(retries)
                        retries += 1
                        self._reset_dest(descriptor, dest_addr)
                        continue
                    if not self.recovery.cpu_fallback:
                        self._raise_unrecovered(fault, injected, retries,
                                                wasted, backoff)
                    # Persistent fault (or retry budget exhausted):
                    # software decodes this message on the host core.
                    dest_addr, stats = self._fallback_deserialize(
                        descriptor, wire_bytes)
                    break
        finally:
            self.faults.end_operation()
        stats.faults_injected += injected
        stats.fault_retries += retries
        stats.wasted_accel_cycles += wasted
        stats.recovery_backoff_cycles += backoff
        stats.cycles += wasted + backoff
        self.fault_stats.transient_retries += retries
        self.fault_stats.backoff_cycles += backoff
        if submitted:
            self.transport.retire_deser()
        return DeserResult(dest_addr=dest_addr, stats=stats)

    def _raise_unrecovered(self, fault: AccelFault, injected: int,
                           retries: int, wasted: float,
                           backoff: float) -> None:
        """Re-raise an unrecovered fault with the recovery attempt's cost
        attached (``RecoveryPolicy.cpu_fallback=False`` mode).

        ``charged_cycles`` is everything the device burned on this
        operation -- every wasted attempt and every backoff pause -- so
        the caller (the serving layer) can charge the failed offload
        honestly before deciding between failover, host fallback, and a
        structured rejection.
        """
        self.fault_stats.transient_retries += retries
        self.fault_stats.backoff_cycles += backoff
        fault.charged_cycles = wasted + backoff
        fault.charged_faults = injected
        fault.charged_retries = retries
        raise fault

    def _fallback_deserialize(self, descriptor: MessageDescriptor,
                              wire_bytes: bytes
                              ) -> tuple[int, DeserStats]:
        """Decode one message with the software library and materialise
        the result as an object image -- bit-identical to what a healthy
        accelerator would have produced."""
        message, op = self._fallback().deserialize(descriptor,
                                                   bytes(wire_bytes))
        addr = write_message_image(self.memory, self.memory.allocate,
                                   message, self.layouts)
        stats = DeserStats(wire_bytes=len(wire_bytes))
        stats.cycles = op.cycles
        stats.cpu_fallbacks = 1
        stats.fallback_cpu_cycles = op.cycles
        self.fault_stats.cpu_fallbacks += 1
        self.fault_stats.fallback_cpu_cycles += op.cycles
        return addr, stats

    def deserialize_batch(self, descriptor: MessageDescriptor,
                          buffers: list[bytes]) -> tuple[list[int], DeserStats]:
        """Batched offload: N ``deser_info``/``do_proto_deser`` pairs then
        one ``block_for_deser_completion`` (Section 4.4.1)."""
        transport = self.transport
        transport.begin_batch()
        try:
            total = DeserStats()
            addresses = []
            for data in buffers:
                # Deserialization is serial through the field handler,
                # so the stream-open latency is NOT hidden between
                # batched operations (contrast the ablation in
                # benchmarks/bench_ablation.py).
                result = self.deserialize(descriptor, data)
                addresses.append(result.dest_addr)
                total.merge(result.stats)
            transport.block_for_deser_completion()
            total.cycles += self.config.fence_cycles
        except BaseException as error:
            transport.end_batch()
            self._drain_abandoned(error)
            raise
        transport.end_batch()
        total.transport_cycles += transport.take_cycles()
        return addresses, total

    def read_message(self, descriptor: MessageDescriptor,
                     addr: int) -> Message:
        """Read an object image back as a Message (what user-code accessors
        would observe)."""
        return read_message_image(self.memory, descriptor, addr,
                                  self.layouts)

    # -- serialization --------------------------------------------------------------

    def load_object(self, message: Message) -> int:
        """Materialise ``message`` as a C++ object image on the software
        heap (the state an application builds up before serializing)."""
        self.adts.build([message.descriptor])
        return write_message_image(self.memory, self.memory.allocate,
                                   message, self.layouts)

    def serialize(self, descriptor: MessageDescriptor,
                  obj_addr: int) -> SerResult:
        """Offload one serialization of the object image at ``obj_addr``."""
        adt_addr = self.adts.adt_address(descriptor)
        transport = self.transport
        transport.begin_batch()
        try:
            if self.faults is not None:
                result = self._serialize_recovering(descriptor, adt_addr,
                                                    obj_addr)
            else:
                self._submit_ser(descriptor, adt_addr, obj_addr)
                stats = self.serializer.serialize(adt_addr, obj_addr)
                transport.retire_ser()
                data = self._ser_arena.output(self._ser_arena.output_count - 1)
                transport.note_payload(len(data))
                result = SerResult(data=data, stats=stats)
        except BaseException as error:
            transport.end_batch()
            self._drain_abandoned(error)
            raise
        transport.end_batch()
        result.stats.transport_cycles += transport.take_cycles()
        return result

    def _serialize_recovering(self, descriptor: MessageDescriptor,
                              adt_addr: int, obj_addr: int) -> SerResult:
        """Fault-injected serialize: retry transients (rolling back the
        faulted attempt's partial arena output), fall back to the
        software serializer otherwise."""
        assert self.faults is not None
        self.faults.begin_operation(self._fault_kind("ser"))
        injected = 0
        retries = 0
        wasted = 0.0
        backoff = 0.0
        data = None
        submitted = False
        try:
            while True:
                mark = self._ser_arena.mark()
                try:
                    if not submitted:
                        self._submit_ser(descriptor, adt_addr, obj_addr)
                        submitted = True
                    stats = self.serializer.serialize(adt_addr, obj_addr)
                    data = self._ser_arena.output(
                        self._ser_arena.output_count - 1)
                    self.transport.note_payload(len(data))
                    break
                except AccelFault as fault:
                    self._ser_arena.rollback(mark)
                    if not fault.injected:
                        raise
                    injected += 1
                    wasted += fault.cycle
                    self._note_fault(fault)
                    if (fault.transient
                            and retries < self.recovery.max_retries):
                        backoff += self.recovery.backoff(retries)
                        retries += 1
                        continue
                    if not self.recovery.cpu_fallback:
                        self._raise_unrecovered(fault, injected, retries,
                                                wasted, backoff)
                    data, stats = self._fallback_serialize(descriptor,
                                                           obj_addr)
                    break
        finally:
            self.faults.end_operation()
        stats.faults_injected += injected
        stats.fault_retries += retries
        stats.wasted_accel_cycles += wasted
        stats.recovery_backoff_cycles += backoff
        stats.cycles += wasted + backoff
        self.fault_stats.transient_retries += retries
        self.fault_stats.backoff_cycles += backoff
        if submitted:
            self.transport.retire_ser()
        return SerResult(data=data, stats=stats)

    def _fallback_serialize(self, descriptor: MessageDescriptor,
                            obj_addr: int) -> tuple[bytes, SerStats]:
        """Serialize one object image with the software library; the
        output is byte-identical to the accelerator's (the suite pins
        both against the same golden wire bytes)."""
        message = read_message_image(self.memory, descriptor, obj_addr,
                                     self.layouts)
        data, op = self._fallback().serialize(message)
        stats = SerStats()
        stats.cycles = op.cycles
        stats.output_bytes = len(data)
        stats.cpu_fallbacks = 1
        stats.fallback_cpu_cycles = op.cycles
        self.fault_stats.cpu_fallbacks += 1
        self.fault_stats.fallback_cpu_cycles += op.cycles
        return data, stats

    def serialize_batch(self, descriptor: MessageDescriptor,
                        addresses: list[int]) -> tuple[list[bytes], SerStats]:
        """Batched serialization with a single completion fence."""
        transport = self.transport
        transport.begin_batch()
        try:
            total = SerStats()
            outputs = []
            for addr in addresses:
                result = self.serialize(descriptor, addr)
                outputs.append(result.data)
                total.merge(result.stats)
            transport.block_for_ser_completion()
            total.cycles += self.config.fence_cycles
        except BaseException as error:
            transport.end_batch()
            self._drain_abandoned(error)
            raise
        transport.end_batch()
        total.transport_cycles += transport.take_cycles()
        return outputs, total

    # -- Section 7 extension ops ---------------------------------------------------

    def clear_message(self, descriptor: MessageDescriptor,
                      obj_addr: int) -> DataOpStats:
        """Offload C++ ``Clear()`` on the object image at ``obj_addr``."""
        adt_addr = self.adts.adt_address(descriptor)
        transport = self.transport
        transport.begin_batch()
        transport.issue(RoccInstruction(RoccFunct.DO_PROTO_CLEAR,
                                        adt_addr, obj_addr))
        try:
            return self.dataops.clear(adt_addr, obj_addr)
        finally:
            transport.end_batch()
            self.transport_overhead_cycles += transport.take_cycles()

    def copy_message(self, descriptor: MessageDescriptor,
                     src_addr: int) -> tuple[int, DataOpStats]:
        """Offload ``CopyFrom``: deep-copy into a fresh destination
        object; returns (dest_addr, stats)."""
        adt_addr = self.adts.adt_address(descriptor)
        layout = self.layouts.layout(descriptor)
        dest_addr = self.memory.allocate(layout.object_size, 8)
        self.memory.fill(dest_addr, layout.object_size, 0)
        self.memory.write_u64(dest_addr, layout.vptr)
        transport = self.transport
        transport.begin_batch()
        transport.issue(RoccInstruction(RoccFunct.DO_PROTO_COPY,
                                        src_addr, dest_addr))
        try:
            return dest_addr, self.dataops.copy(adt_addr, src_addr, dest_addr)
        finally:
            transport.end_batch()
            self.transport_overhead_cycles += transport.take_cycles()

    def merge_messages(self, descriptor: MessageDescriptor, src_addr: int,
                       dest_addr: int) -> DataOpStats:
        """Offload ``dest.MergeFrom(src)`` on two object images."""
        adt_addr = self.adts.adt_address(descriptor)
        transport = self.transport
        transport.begin_batch()
        transport.issue(RoccInstruction(RoccFunct.DO_PROTO_MERGE,
                                        src_addr, dest_addr))
        try:
            return self.dataops.merge(adt_addr, src_addr, dest_addr)
        finally:
            transport.end_batch()
            self.transport_overhead_cycles += transport.take_cycles()

    # -- maintenance ------------------------------------------------------------------

    def reset_arenas(self) -> None:
        """Reclaim both accelerator arenas (end of a request's lifetime)."""
        self._deser_arena.reset()
        self._ser_arena.reset()

    # -- pure-charging call windows ---------------------------------------------

    def begin_pure_call(self) -> int:
        """Open a *pure-charging* call window: flush both unit TLBs and
        return a heap mark for :meth:`end_pure_call`.

        Inside the window, cycle charging is a pure function of the
        operation's inputs.  Wire buffers and object images land at the
        same addresses on every call (the heap rolls back at window
        close) and PTW penalties restart from a cold TLB, so neither
        prior traffic nor allocator drift can perturb the bill.  The
        serving fabric uses this to guarantee that shard placement and
        call order never change cycles (docs/SERVING.md)."""
        self.deserializer._tlb.flush()
        self.deserializer._adt_cache.flush()
        self.serializer._tlb.flush()
        return self.memory.heap_top

    def end_pure_call(self, mark: int) -> None:
        """Close a pure-charging window: reclaim the arenas and roll
        the software heap (wire buffers, object images) back to
        ``mark``.  If an arena was renewed inside the window the heap
        is left alone -- the live arena sits above the mark."""
        self.reset_arenas()
        if (self._deser_arena.base >= mark
                or self._ser_arena.data_base >= mark):
            return
        self.memory.heap_release(mark)

    def throughput_gbps(self, payload_bytes: int, cycles: float) -> float:
        """Convert an operation's byte count and cycles to Gbit/s."""
        return self.config.gbits_per_second(payload_bytes, cycles)
