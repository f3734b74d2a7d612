"""Accelerator performance-counter aggregation.

Real deployments watch hardware counters; our units each keep their own
(varint decodes, ADT cache hits, UTF-8 validations, TLB hit rates,
memory traffic).  :class:`PerfReport` gathers them from a
:class:`~repro.accel.driver.ProtoAccelerator` into one snapshot with a
printable rendering -- the observability surface an SRE would consult
when a service adopts the offload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import memo


@dataclass(frozen=True)
class PerfReport:
    """A point-in-time snapshot of the device's counters."""

    rocc_instructions: int
    varint_decodes: int
    varint_encodes: int
    zigzag_ops: int
    utf8_strings_validated: int
    utf8_faults: int
    deser_tlb_hit_rate: float
    ser_tlb_hit_rate: float
    adt_cache_hits: int
    adt_cache_misses: int
    deser_arena_bytes_used: int
    ser_outputs: int
    #: Host-simulator traffic, not modeled traffic: bytes the Python
    #: simulator moved through ``SimMemory``.  Tier-dependent -- the
    #: interpretive FSMs re-read what a codegen kernel bakes in -- so
    #: a fault run's figure depends on which operations were armed.
    memory_read_bytes: int
    #: Host-simulator bytes written through ``SimMemory`` (see above).
    memory_written_bytes: int
    # Fault/recovery counters (zero on a fault-free device).
    faults_injected: int = 0
    fault_interrupts: int = 0
    transient_retries: int = 0
    cpu_fallbacks: int = 0
    wasted_accel_cycles: float = 0.0
    fallback_cpu_cycles: float = 0.0
    bus_stalls: int = 0
    watchdog_aborts: int = 0

    @property
    def adt_cache_hit_rate(self) -> float:
        total = self.adt_cache_hits + self.adt_cache_misses
        return self.adt_cache_hits / total if total else 1.0

    def render(self) -> str:
        """Human-readable counter dump."""
        rows = (
            ("RoCC instructions issued", f"{self.rocc_instructions:,}"),
            ("varint decodes / encodes",
             f"{self.varint_decodes:,} / {self.varint_encodes:,}"),
            ("zig-zag operations", f"{self.zigzag_ops:,}"),
            ("UTF-8 strings validated / faults",
             f"{self.utf8_strings_validated:,} / {self.utf8_faults:,}"),
            ("ADT entry cache hit rate",
             f"{self.adt_cache_hit_rate:.1%}"),
            ("deser / ser TLB hit rate",
             f"{self.deser_tlb_hit_rate:.1%} / "
             f"{self.ser_tlb_hit_rate:.1%}"),
            ("deser arena bytes in use",
             f"{self.deser_arena_bytes_used:,}"),
            ("serialized outputs in arena", f"{self.ser_outputs:,}"),
            ("host-simulator memory read / written (tier-dependent)",
             f"{self.memory_read_bytes:,} / "
             f"{self.memory_written_bytes:,} B"),
            ("faults injected / interrupts raised",
             f"{self.faults_injected:,} / {self.fault_interrupts:,}"),
            ("transient retries / CPU fallbacks",
             f"{self.transient_retries:,} / {self.cpu_fallbacks:,}"),
            ("wasted accel / fallback CPU cycles",
             f"{self.wasted_accel_cycles:,.0f} / "
             f"{self.fallback_cpu_cycles:,.0f}"),
            ("bus stalls observed", f"{self.bus_stalls:,}"),
            ("watchdog aborts (hung FSMs)", f"{self.watchdog_aborts:,}"),
        )
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}"
                         for label, value in rows)


#: The memos :func:`memoization_counters` reports, in its order.
_REPORTED_MEMOS = ("cpu-deser", "cpu-ser", "accel-deser", "accel-ser",
                   "codegen")


def memoization_counters() -> dict[str, tuple[int, int]]:
    """Hit/miss pairs of the software-CPU per-operation cycle memos, the
    accelerator whole-batch memos and the kernel code cache (a memo
    whose module was never imported has seen no lookups)."""
    counters = memo.counters()
    return {name: counters.get(name, (0, 0)) for name in _REPORTED_MEMOS}


def render_memoization_line() -> str:
    """One perf-counter line summarising memoisation-cache hit rates."""
    parts = []
    for name, (hits, misses) in memoization_counters().items():
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "n/a"
        parts.append(f"{name} {rate} ({hits:,}/{total:,})")
    return "memo caches: " + "  ".join(parts)


def tier_counters() -> dict[str, dict[str, int]]:
    """Per-op execution-tier run counts (see :mod:`repro.accel.tiers`)."""
    from repro.accel import tiers
    return tiers.counters()


def render_codegen_line() -> str:
    """The execution-tier observability surface: code-cache hit rate
    plus a per-tier run table (one line per op)."""
    from repro.accel.codegen import CODE_CACHE
    hits, misses = CODE_CACHE.hits, CODE_CACHE.misses
    total = hits + misses
    rate = f"{hits / total:.1%}" if total else "n/a"
    lines = [f"codegen cache: {rate} ({hits:,}/{total:,})  "
             f"entries {len(CODE_CACHE)}/{CODE_CACHE.capacity}"]
    for op, runs in tier_counters().items():
        lines.append(f"{op} tiers: interp {runs['interp']:,}  "
                     f"codegen {runs['codegen']:,}")
    return "\n".join(lines)


def collect(accel) -> PerfReport:
    """Snapshot every counter on ``accel`` (a ProtoAccelerator)."""
    deser = accel.deserializer
    ser = accel.serializer
    return PerfReport(
        rocc_instructions=accel.transport.instructions_issued,
        varint_decodes=(deser.varint_unit.decodes
                        + ser.varint_unit.decodes),
        varint_encodes=(deser.varint_unit.encodes
                        + ser.varint_unit.encodes),
        zigzag_ops=(deser.varint_unit.zigzag_ops
                    + ser.varint_unit.zigzag_ops),
        utf8_strings_validated=deser.utf8_unit.strings_validated,
        utf8_faults=deser.utf8_unit.faults,
        deser_tlb_hit_rate=deser._tlb.stats.hit_rate,
        ser_tlb_hit_rate=ser._tlb.stats.hit_rate,
        adt_cache_hits=deser._adt_cache.hits,
        adt_cache_misses=deser._adt_cache.misses,
        deser_arena_bytes_used=accel._deser_arena.bytes_used,
        ser_outputs=accel._ser_arena.output_count,
        memory_read_bytes=accel.memory.stats.read_bytes,
        memory_written_bytes=accel.memory.stats.written_bytes,
        faults_injected=(accel.faults.injected
                         if accel.faults is not None else 0),
        fault_interrupts=accel.transport.faults_raised,
        transient_retries=accel.fault_stats.transient_retries,
        cpu_fallbacks=accel.fault_stats.cpu_fallbacks,
        wasted_accel_cycles=accel.fault_stats.wasted_accel_cycles,
        fallback_cpu_cycles=accel.fault_stats.fallback_cpu_cycles,
        bus_stalls=accel.bus.stalls,
        watchdog_aborts=(accel.watchdog.aborts
                         if accel.watchdog is not None else 0),
    )
