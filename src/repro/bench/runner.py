"""The three-system benchmark runner.

Runs one workload's timed batch on the paper's three systems --
``riscv-boom`` (software on the BOOM SoC), ``Xeon`` (software on the
server), and ``riscv-boom-accel`` (the accelerated SoC) -- and reports
throughput as Gbit/s of serialized message data consumed (deserialization)
or produced (serialization), exactly the metric of Figures 11-13.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.accel.driver import ProtoAccelerator
from repro.cpu.boom import boom_cpu
from repro.cpu.model import SoftwareCpu
from repro.cpu.xeon import xeon_cpu
from repro.memo import MISS, Memo
from repro.proto.descriptor import MessageDescriptor, structural_fingerprint
from repro.proto.message import Message
from repro.soc.config import SoCConfig

#: System labels in the paper's plotting order.
SYSTEMS = ("riscv-boom", "Xeon", "riscv-boom-accel")

#: Whole-batch accelerator cycle memos.  Within one batch the cycles of
#: an operation depend on unit state that carries across the batch (warm
#: ADT entry cache, TLB contents, arena fill), so single operations are
#: not memoised; but a fresh device given the same (SoC config, message
#: type, ordered wire buffers) always produces the same aggregate, which
#: these memos replay.  See docs/PERF.md.
DESER_BATCH_CACHE = Memo("accel-deser")
SER_BATCH_CACHE = Memo("accel-ser")


def buffers_digest(buffers) -> bytes:
    """Order-sensitive digest of a batch of wire buffers."""
    hasher = hashlib.blake2b(digest_size=16)
    for data in buffers:
        hasher.update(len(data).to_bytes(8, "little"))
        hasher.update(data)
    return hasher.digest()


def _batch_key(config: SoCConfig, descriptor: MessageDescriptor,
               buffers: list[bytes]) -> tuple:
    # Dataclass repr renders every knob (including the nested memory
    # timing model) deterministically.
    return (repr(config), structural_fingerprint(descriptor),
            buffers_digest(buffers))


@dataclass
class Workload:
    """A pre-populated batch of messages of one type."""

    name: str
    descriptor: MessageDescriptor
    messages: list[Message]
    _buffers: list[bytes] | None = field(default=None, repr=False,
                                         compare=False)

    def wire_buffers(self) -> list[bytes]:
        """Software-serialized form of every message (batch input for
        deserialization benchmarks).  Serialized once; messages are
        treated as immutable after workload construction."""
        if self._buffers is None:
            self._buffers = [message.serialize()
                             for message in self.messages]
        return self._buffers

    def total_wire_bytes(self) -> int:
        return sum(len(buffer) for buffer in self.wire_buffers())


@dataclass
class SystemResult:
    """One system's measurement on one workload.

    The fault counters are zero except on ``riscv-boom-accel`` runs with
    fault injection enabled.
    """

    system: str
    gbits_per_second: float
    cycles: float
    wire_bytes: int
    #: Attach-point cost (RoCC dispatch or PCIe queue-pair mechanics),
    #: reported beside -- never inside -- ``cycles``: the headline
    #: Gbit/s metric stays transport-independent and bit-identical to
    #: pre-transport baselines.  Zero on the software systems.
    transport_cycles: float = 0.0
    faults_injected: int = 0
    transient_retries: int = 0
    cpu_fallbacks: int = 0
    wasted_accel_cycles: float = 0.0
    fallback_cpu_cycles: float = 0.0


@dataclass
class BenchmarkResult:
    """All three systems' results for one workload."""

    workload: str
    operation: str  # "deserialize" | "serialize"
    results: dict[str, SystemResult] = field(default_factory=dict)

    def gbps(self, system: str) -> float:
        return self.results[system].gbits_per_second

    def speedup(self, system: str,
                baseline: str = "riscv-boom") -> float:
        return self.gbps(system) / self.gbps(baseline)


def _software_deser(cpu: SoftwareCpu, workload: Workload,
                    buffers: list[bytes]) -> SystemResult:
    cycles = cpu.deserialize_batch_cycles(workload.descriptor, buffers)
    wire_bytes = sum(len(b) for b in buffers)
    return SystemResult(cpu.name, cpu.gbits_per_second(wire_bytes, cycles),
                        cycles, wire_bytes)


def _software_ser(cpu: SoftwareCpu, workload: Workload) -> SystemResult:
    cycles = cpu.serialize_batch_cycles(workload.messages,
                                        keys=workload.wire_buffers())
    wire_bytes = workload.total_wire_bytes()
    return SystemResult(cpu.name, cpu.gbits_per_second(wire_bytes, cycles),
                        cycles, wire_bytes)


def _fault_counters(accel: ProtoAccelerator) -> dict:
    fs = accel.fault_stats
    return {
        "faults_injected": fs.faults_injected,
        "transient_retries": fs.transient_retries,
        "cpu_fallbacks": fs.cpu_fallbacks,
        "wasted_accel_cycles": fs.wasted_accel_cycles,
        "fallback_cpu_cycles": fs.fallback_cpu_cycles,
    }


def _device(config: SoCConfig, faults, inject: bool,
            fast_path: str) -> ProtoAccelerator:
    """A fresh accelerator for one benchmark batch.

    Without an armed fault plan no hang can be injected, so the FSM
    always makes progress and the device gets an unbounded watchdog:
    the default per-operation budget would otherwise abort valid large
    messages.  The watchdog is a pure comparator, so cycles are
    unchanged either way.
    """
    accel = ProtoAccelerator(config=config, faults=faults,
                             fast_path=fast_path)
    if not inject:
        accel.watchdog.budget_cycles = math.inf
    return accel


def _accel_deser(workload: Workload, buffers: list[bytes],
                 verify: bool, faults=None,
                 fast_path: str = "codegen",
                 transport: str = "rocc") -> SystemResult:
    config = SoCConfig(transport=transport)
    wire_bytes = sum(len(b) for b in buffers)
    inject = faults is not None and faults.enabled()
    if inject:
        # Decorrelate fault streams across workloads (each run builds a
        # fresh injector that replays its seed's RNG from the start).
        faults = faults.derive(workload.name, "deserialize")
    if not inject:
        # The batch cycle cache only memoises deterministic fault-free
        # runs; an injected run's cycles depend on the fault plan.
        key = _batch_key(config, workload.descriptor, buffers)
        cached = DESER_BATCH_CACHE.get(key)
        if cached is not MISS:
            # Replay the verified batch aggregate without re-simulating;
            # the first (mis-)run decoded and checked these exact buffers.
            cycles, transport_cycles = cached
            return SystemResult(
                "riscv-boom-accel",
                config.gbits_per_second(wire_bytes, cycles),
                cycles, wire_bytes, transport_cycles=transport_cycles)
    # fast_path only changes host wall-clock (modeled cycles are
    # bit-identical on both tiers), so batch-cache keys ignore it.
    accel = _device(config, faults, inject, fast_path)
    accel.register_types([workload.descriptor])
    addresses, stats = accel.deserialize_batch(workload.descriptor, buffers)
    if verify:
        for addr, expected in zip(addresses, workload.messages):
            observed = accel.read_message(workload.descriptor, addr)
            if observed != expected:
                raise AssertionError(
                    f"{workload.name}: accelerator deserialization mismatch")
        if not inject:
            DESER_BATCH_CACHE.put(key, (stats.cycles,
                                        stats.transport_cycles))
    return SystemResult(
        "riscv-boom-accel",
        accel.throughput_gbps(wire_bytes, stats.cycles),
        stats.cycles, wire_bytes,
        transport_cycles=stats.transport_cycles,
        **_fault_counters(accel))


def _accel_ser(workload: Workload, verify: bool, faults=None,
               fast_path: str = "codegen",
               transport: str = "rocc") -> SystemResult:
    config = SoCConfig(transport=transport)
    buffers = workload.wire_buffers()
    inject = faults is not None and faults.enabled()
    if inject:
        faults = faults.derive(workload.name, "serialize")
    if not inject:
        key = _batch_key(config, workload.descriptor, buffers)
        cached = SER_BATCH_CACHE.get(key)
        if cached is not MISS:
            cycles, transport_cycles, wire_bytes = cached
            return SystemResult(
                "riscv-boom-accel",
                config.gbits_per_second(wire_bytes, cycles),
                cycles, wire_bytes, transport_cycles=transport_cycles)
    accel = _device(config, faults, inject, fast_path)
    accel.register_types([workload.descriptor])
    addresses = [accel.load_object(m) for m in workload.messages]
    outputs, stats = accel.serialize_batch(workload.descriptor, addresses)
    if verify:
        for output, message in zip(outputs, buffers):
            if output != message:
                raise AssertionError(
                    f"{workload.name}: accelerator output not wire-identical")
    wire_bytes = sum(len(o) for o in outputs)
    if verify and not inject:
        SER_BATCH_CACHE.put(key, (stats.cycles, stats.transport_cycles,
                                  wire_bytes))
    return SystemResult(
        "riscv-boom-accel",
        accel.throughput_gbps(wire_bytes, stats.cycles),
        stats.cycles, wire_bytes,
        transport_cycles=stats.transport_cycles,
        **_fault_counters(accel))


def run_deserialization(workload: Workload, verify: bool = True,
                        faults=None,
                        fast_path: str = "codegen",
                        transport: str = "rocc") -> BenchmarkResult:
    """Deserialize the workload's batch on all three systems.

    ``faults`` (a :class:`~repro.faults.FaultPlan` or ``None``) only
    affects the accelerated system; the software baselines model fault-
    free CPUs either way.  ``fast_path`` selects the accelerator's host
    execution tier (``"codegen"`` or ``"interp"``); modeled cycles are
    identical on both tiers, so results do not depend on it.
    ``transport`` selects the accelerator's attach point (``"rocc"`` or
    ``"pcie"``); it changes only the reported ``transport_cycles``,
    never the unit cycles or Gbit/s.
    """
    buffers = workload.wire_buffers()
    result = BenchmarkResult(workload.name, "deserialize")
    result.results["riscv-boom"] = _software_deser(boom_cpu(), workload,
                                                   buffers)
    result.results["Xeon"] = _software_deser(xeon_cpu(), workload, buffers)
    result.results["riscv-boom-accel"] = _accel_deser(
        workload, buffers, verify, faults=faults, fast_path=fast_path,
        transport=transport)
    return result


def run_serialization(workload: Workload, verify: bool = True,
                      faults=None,
                      fast_path: str = "codegen",
                      transport: str = "rocc") -> BenchmarkResult:
    """Serialize the workload's batch on all three systems."""
    result = BenchmarkResult(workload.name, "serialize")
    result.results["riscv-boom"] = _software_ser(boom_cpu(), workload)
    result.results["Xeon"] = _software_ser(xeon_cpu(), workload)
    result.results["riscv-boom-accel"] = _accel_ser(
        workload, verify, faults=faults, fast_path=fast_path,
        transport=transport)
    return result
