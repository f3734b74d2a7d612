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

Deserialize and serialize run one loop, :meth:`ProtoAccelerator._offload`
(transport window, submit once, attempt, undo a failed attempt, retry
with backoff, CPU fallback or re-raise, retire), with or without a fault
plan; ``_DeserSteps``/``_SerSteps`` supply the per-operation steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller

from repro.accel.adt import AdtBuilder
from repro.accel.dataops import DataOpStats, MessageOpsUnit
from repro.accel.deserializer import DeserializerUnit, DeserStats
from repro.accel.perf import OpStats
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
        (what the modified protoc emits into the binary).  This is the
        only writer of ADT memory: a type already registered keeps its
        block untouched, and no ADT is ever released."""
        self.adts.build(descriptors)

    def register_schema(self, schema) -> None:
        """Convenience: register every message type in a parsed schema."""
        self.register_types(schema.messages())

    # -- the offload loop ---------------------------------------------------------

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

    def _fallback(self):
        """The host core's software library (BOOM cost model), used for
        per-message fallback after unrecoverable accelerator faults."""
        if self._fallback_cpu is None:
            from repro.cpu.boom import boom_cpu
            self._fallback_cpu = boom_cpu()
        return self._fallback_cpu

    def _offload(self, steps, descriptor: MessageDescriptor, args: tuple):
        """Run one offloaded operation: submit once, attempt, recover.

        ``steps`` (``_DeserSteps``/``_SerSteps``) supplies the
        operation's submit pair, attempt, undo, fallback and retire;
        ``args`` is its argument tuple.  Every device runs this loop.
        With no fault plan nothing is drawn or polled, so only a
        genuine fault can interrupt an attempt and every recovery
        counter stays zero.

        * A transport fault (PCIe DMA, doorbell) fires before the pair
          is issued, so a retry resubmits; a unit fault leaves the
          descriptor in flight and only the attempt re-runs.
        * Every failed attempt is undone (the destination object
          re-zeroed, the serializer arena rolled back to its
          pre-operation mark).  A genuine fault (``injected=False``)
          then propagates: retrying a malformed input cannot help.
        * An injected transient fault is retried with backoff up to
          ``RecoveryPolicy.max_retries`` times.  A persistent fault, or
          a transient one past the budget, falls back to the host
          core's software library -- or, with ``cpu_fallback=False``,
          re-raises with ``charged_cycles``/``charged_faults``/
          ``charged_retries`` attached (docs/FAULTS.md).

        The result's stats carry every wasted attempt's cycles (up to
        its fault) and every backoff pause on top of the successful
        attempt or the fallback, plus the window's transport cycles.
        """
        transport = self.transport
        faults = self.faults
        transport.begin_batch()
        try:
            injected = retries = 0
            wasted = backoff = 0.0
            submitted = False
            result = unrecovered = None
            if faults is not None:
                # Over PCIe the operation can also fault at the
                # transport's own submission sites ("pcie.deser"/...).
                faults.begin_operation(steps.kind if transport.name == "rocc"
                                       else "pcie." + steps.kind)
            try:
                while True:
                    try:
                        if not submitted:
                            if faults is not None:
                                faults.poll(FaultSite.PCIE_DMA)
                                faults.poll(FaultSite.PCIE_DOORBELL)
                            steps.submit(self, descriptor, args)
                            submitted = True
                        result = steps.attempt(self, descriptor, args)
                        break
                    except AccelFault as fault:
                        steps.undo(self, descriptor, args)
                        if not fault.injected:
                            raise
                        injected += 1
                        wasted += fault.cycle
                        transport.record_fault(fault.site)
                        self.fault_stats.faults_injected += 1
                        self.fault_stats.wasted_accel_cycles += fault.cycle
                        if fault.site == FaultSite.BUS_STALL.value:
                            self.bus.record_stall(fault.cycle)
                        if (fault.transient
                                and retries < self.recovery.max_retries):
                            backoff += self.recovery.backoff(retries)
                            retries += 1
                            continue
                        if self.recovery.cpu_fallback:
                            result = steps.fallback(self, descriptor, args)
                        else:
                            unrecovered = fault
                        break
            finally:
                if faults is not None:
                    faults.end_operation()
            if injected:
                self.fault_stats.transient_retries += retries
                self.fault_stats.backoff_cycles += backoff
                if unrecovered is not None:
                    unrecovered.charged_cycles = wasted + backoff
                    unrecovered.charged_faults = injected
                    unrecovered.charged_retries = retries
                    try:
                        raise unrecovered
                    finally:
                        # The traceback reaches this frame: drop the
                        # local, or frame and fault form a cycle.
                        unrecovered = None
                stats = result.stats
                stats.faults_injected += injected
                stats.fault_retries += retries
                stats.wasted_accel_cycles += wasted
                stats.recovery_backoff_cycles += backoff
                stats.cycles += wasted + backoff
            if submitted:
                steps.retire(transport)
        except BaseException as error:
            transport.end_batch()
            self._drain_abandoned(error)
            raise
        transport.end_batch()
        result.stats.transport_cycles += transport.take_cycles()
        return result

    def _batch(self, steps, run, descriptor: MessageDescriptor,
               items: list) -> tuple[list, OpStats]:
        """Batched offload: ``run`` (the public single-operation method)
        per item inside one transport window, then one
        ``block_for_*_completion`` fence (Section 4.4.1)."""
        transport = self.transport
        transport.begin_batch()
        try:
            total = steps.stats()
            results = []
            for item in items:
                result = run(descriptor, item)
                results.append(result)
                total.merge(result.stats)
            steps.fence(transport)
            total.cycles += self.config.fence_cycles
        except BaseException as error:
            transport.end_batch()
            self._drain_abandoned(error)
            raise
        transport.end_batch()
        total.transport_cycles += transport.take_cycles()
        return results, total

    # -- deserialization ----------------------------------------------------------

    def deserialize(self, descriptor: MessageDescriptor,
                    wire_bytes: bytes,
                    hide_startup: bool = False,
                    auto_renew_arena: bool = False) -> DeserResult:
        """Offload one deserialization; returns the populated object's
        address plus cycle statistics.

        The wire buffer is placed in simulated memory and the top-level
        destination object is allocated on the software heap (by "user
        code", per Section 4.4), both zero-initialised.  With
        ``auto_renew_arena`` an exhausted arena is renewed and the
        operation restarted, as the interrupt handler would.
        """
        adt_addr = self.adts.adt_address(descriptor)
        layout = self.layouts.layout(descriptor)
        src_addr = self.memory.allocate(max(len(wire_bytes), 1), 16)
        if wire_bytes:
            self.memory.write(src_addr, wire_bytes)
        dest_addr = self.memory.allocate(layout.object_size, 8)
        self.memory.fill(dest_addr, layout.object_size, 0)
        self.memory.write_u64(dest_addr, layout.vptr)
        return self._offload(_DeserSteps, descriptor, (
            wire_bytes, adt_addr, dest_addr, src_addr, hide_startup,
            auto_renew_arena))

    def deserialize_batch(self, descriptor: MessageDescriptor,
                          buffers: list[bytes]) -> tuple[list[int], DeserStats]:
        """Batched offload: N ``deser_info``/``do_proto_deser`` pairs then
        one ``block_for_deser_completion`` (Section 4.4.1).
        Deserialization is serial through the field handler, so the
        stream-open latency is NOT hidden between batched operations
        (contrast the ablation in benchmarks/bench_ablation.py)."""
        results, total = self._batch(_DeserSteps, self.deserialize,
                                     descriptor, buffers)
        return [result.dest_addr for result in results], total

    def read_message(self, descriptor: MessageDescriptor,
                     addr: int) -> Message:
        """Read an object image back as a Message (what user-code accessors
        would observe), walking the type's image plan
        (repro.memory.layout.ImagePlan)."""
        return read_message_image(self.memory, descriptor, addr,
                                  self.layouts)

    # -- serialization --------------------------------------------------------------

    def load_object(self, message: Message) -> int:
        """Materialise ``message`` as a C++ object image on the software
        heap (the state an application builds up before serializing),
        walking the type's image plan (repro.memory.layout.ImagePlan).
        Only the image is written: the type's ADTs are the ones
        :meth:`register_types` wrote."""
        return write_message_image(self.memory, self.memory.allocate,
                                   message, self.layouts)

    def serialize(self, descriptor: MessageDescriptor,
                  obj_addr: int) -> SerResult:
        """Offload one serialization of the object image at ``obj_addr``."""
        return self._offload(_SerSteps, descriptor, (
            self.adts.adt_address(descriptor), obj_addr,
            self._ser_arena.mark()))

    def serialize_batch(self, descriptor: MessageDescriptor,
                        addresses: list[int]) -> tuple[list[bytes], SerStats]:
        """Batched serialization with a single completion fence."""
        results, total = self._batch(_SerSteps, self.serialize, descriptor,
                                     addresses)
        return [result.data for result in results], total

    # -- Section 7 extension ops ---------------------------------------------------

    def _data_op(self, funct: RoccFunct, rs1: int, rs2: int, run, *args):
        """Issue one data-op instruction and run the unit inside its own
        transport window; the window's cycles go on the overhead ledger."""
        transport = self.transport
        transport.begin_batch()
        transport.issue(RoccInstruction(funct, rs1, rs2))
        try:
            return run(*args)
        finally:
            transport.end_batch()
            self.transport_overhead_cycles += transport.take_cycles()

    def clear_message(self, descriptor: MessageDescriptor,
                      obj_addr: int) -> DataOpStats:
        """Offload C++ ``Clear()`` on the object image at ``obj_addr``."""
        adt_addr = self.adts.adt_address(descriptor)
        return self._data_op(RoccFunct.DO_PROTO_CLEAR, adt_addr, obj_addr,
                             self.dataops.clear, adt_addr, obj_addr)

    def copy_message(self, descriptor: MessageDescriptor,
                     src_addr: int) -> tuple[int, DataOpStats]:
        """Offload ``CopyFrom``: deep-copy into a fresh destination
        object; returns (dest_addr, stats)."""
        adt_addr = self.adts.adt_address(descriptor)
        layout = self.layouts.layout(descriptor)
        dest_addr = self.memory.allocate(layout.object_size, 8)
        self.memory.fill(dest_addr, layout.object_size, 0)
        self.memory.write_u64(dest_addr, layout.vptr)
        return dest_addr, self._data_op(
            RoccFunct.DO_PROTO_COPY, src_addr, dest_addr,
            self.dataops.copy, adt_addr, src_addr, dest_addr)

    def merge_messages(self, descriptor: MessageDescriptor, src_addr: int,
                       dest_addr: int) -> DataOpStats:
        """Offload ``dest.MergeFrom(src)`` on two object images."""
        adt_addr = self.adts.adt_address(descriptor)
        return self._data_op(RoccFunct.DO_PROTO_MERGE, src_addr, dest_addr,
                             self.dataops.merge, adt_addr, src_addr,
                             dest_addr)

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
        ``mark``.  If an arena was renewed or an ADT built inside the
        window the heap is left alone -- the live arena or the ADT,
        which is never released, sits above the mark."""
        self.reset_arenas()
        if (self._deser_arena.base >= mark
                or self._ser_arena.data_base >= mark
                or self.adts.top > mark):
            return
        self.memory.heap_release(mark)

    def throughput_gbps(self, payload_bytes: int, cycles: float) -> float:
        """Convert an operation's byte count and cycles to Gbit/s."""
        return self.config.gbits_per_second(payload_bytes, cycles)


class _DeserSteps:
    """Deserialize's steps for :meth:`ProtoAccelerator._offload`.
    ``args`` is ``(wire_bytes, adt_addr, dest_addr, src_addr,
    hide_startup, auto_renew_arena)``."""

    kind = "deser"
    stats = DeserStats
    retire = methodcaller("retire_deser")
    fence = methodcaller("block_for_deser_completion")

    @staticmethod
    def submit(accel: ProtoAccelerator, descriptor: MessageDescriptor,
               args: tuple) -> None:
        """Issue the ``deser_info``/``do_proto_deser`` pair (one
        descriptor over PCIe)."""
        wire_bytes, adt_addr, dest_addr, src_addr, _, _ = args
        accel.transport.issue(RoccInstruction(RoccFunct.DESER_INFO, adt_addr,
                                              dest_addr))
        accel.transport.issue(RoccInstruction(RoccFunct.DO_PROTO_DESER,
                                              src_addr, len(wire_bytes)))

    @staticmethod
    def attempt(accel: ProtoAccelerator, descriptor: MessageDescriptor,
                args: tuple) -> DeserResult:
        """One hardware attempt, including the arena-renewal restart."""
        (wire_bytes, adt_addr, dest_addr, src_addr, hide_startup,
         auto_renew_arena) = args
        try:
            stats = accel.deserializer.deserialize(
                adt_addr, dest_addr, src_addr, len(wire_bytes),
                hide_startup=hide_startup)
        except ArenaExhausted:
            if not auto_renew_arena:
                raise
            # The accelerator faulted mid-operation; software installs a
            # fresh arena and restarts the deserialization from scratch
            # (partial state in the old arena is simply abandoned).
            accel._renew_deser_arena()
            _DeserSteps.undo(accel, descriptor, args)
            stats = accel.deserializer.deserialize(
                adt_addr, dest_addr, src_addr, len(wire_bytes))
            stats.cycles += accel.ARENA_RENEWAL_CYCLES
        return DeserResult(dest_addr=dest_addr, stats=stats)

    @staticmethod
    def undo(accel: ProtoAccelerator, descriptor: MessageDescriptor,
             args: tuple) -> None:
        """Re-zero the caller-allocated destination object."""
        layout = accel.layouts.layout(descriptor)
        accel.memory.fill(args[2], layout.object_size, 0)
        accel.memory.write_u64(args[2], layout.vptr)

    @staticmethod
    def fallback(accel: ProtoAccelerator, descriptor: MessageDescriptor,
                 args: tuple) -> DeserResult:
        """Decode one message with the software library and materialise
        the result as an object image -- bit-identical to what a healthy
        accelerator would have produced."""
        wire_bytes = args[0]
        message, op = accel._fallback().deserialize(descriptor,
                                                    bytes(wire_bytes))
        addr = write_message_image(accel.memory, accel.memory.allocate,
                                   message, accel.layouts)
        stats = DeserStats(wire_bytes=len(wire_bytes))
        stats.cycles = op.cycles
        stats.cpu_fallbacks = 1
        stats.fallback_cpu_cycles = op.cycles
        accel.fault_stats.cpu_fallbacks += 1
        accel.fault_stats.fallback_cpu_cycles += op.cycles
        return DeserResult(dest_addr=addr, stats=stats)


class _SerSteps:
    """Serialize's steps for :meth:`ProtoAccelerator._offload`.
    ``args`` is ``(adt_addr, obj_addr, arena mark)``; the mark is taken
    before the operation, and a rolled-back attempt restores it."""

    kind = "ser"
    stats = SerStats
    retire = methodcaller("retire_ser")
    fence = methodcaller("block_for_ser_completion")

    @staticmethod
    def submit(accel: ProtoAccelerator, descriptor: MessageDescriptor,
               args: tuple) -> None:
        """Issue the ``ser_info``/``do_proto_ser`` pair (one descriptor
        over PCIe)."""
        accel.transport.issue(RoccInstruction(
            RoccFunct.SER_INFO,
            accel.layouts.layout(descriptor).hasbits_offset,
            descriptor.max_field_number << 32 | descriptor.min_field_number))
        accel.transport.issue(RoccInstruction(RoccFunct.DO_PROTO_SER,
                                              args[0], args[1]))

    @staticmethod
    def attempt(accel: ProtoAccelerator, descriptor: MessageDescriptor,
                args: tuple) -> SerResult:
        stats = accel.serializer.serialize(args[0], args[1])
        arena = accel._ser_arena
        data = arena.output(arena.output_count - 1)
        accel.transport.note_payload(len(data))
        return SerResult(data=data, stats=stats)

    @staticmethod
    def undo(accel: ProtoAccelerator, descriptor: MessageDescriptor,
             args: tuple) -> None:
        """Abandon the attempt's partial arena output."""
        accel._ser_arena.rollback(args[2])

    @staticmethod
    def fallback(accel: ProtoAccelerator, descriptor: MessageDescriptor,
                 args: tuple) -> SerResult:
        """Serialize one object image with the software library; the
        output is byte-identical to the accelerator's (the suite pins
        both against the same golden wire bytes)."""
        message = read_message_image(accel.memory, descriptor, args[1],
                                     accel.layouts)
        data, op = accel._fallback().serialize(message)
        stats = SerStats()
        stats.cycles = op.cycles
        stats.output_bytes = len(data)
        stats.cpu_fallbacks = 1
        stats.fallback_cpu_cycles = op.cycles
        accel.fault_stats.cpu_fallbacks += 1
        accel.fault_stats.fallback_cpu_cycles += op.cycles
        return SerResult(data=data, stats=stats)
