"""The RoCC custom-instruction interface (Sections 4.1, 4.4.1, 4.5.2).

The CPU dispatches custom RISC-V instructions carrying two 64-bit register
operands to the accelerator with ones-of-cycles latency.  This module
defines the instruction set the paper describes and a small dispatch queue
that models in-flight operation tracking and the ``block_for_*_completion``
fences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RoccFunct(enum.IntEnum):
    """funct7 values of the accelerator's custom instructions."""

    DESER_ASSIGN_ARENA = 0
    DESER_INFO = 1
    DO_PROTO_DESER = 2
    BLOCK_FOR_DESER_COMPLETION = 3
    SER_ASSIGN_ARENA = 4
    SER_INFO = 5
    DO_PROTO_SER = 6
    BLOCK_FOR_SER_COMPLETION = 7
    # Section 7 extension ops: reuse the ser/deser hardware blocks to
    # offload clear, copy and merge (another 17.1% of C++ protobuf
    # cycles fleet-wide).
    DO_PROTO_CLEAR = 8
    DO_PROTO_COPY = 9
    DO_PROTO_MERGE = 10


@dataclass(frozen=True)
class RoccInstruction:
    """One custom instruction: a funct plus two 64-bit register operands."""

    funct: RoccFunct
    rs1: int = 0
    rs2: int = 0

    def __post_init__(self) -> None:
        for name, value in (("rs1", self.rs1), ("rs2", self.rs2)):
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in 64 bits, got {value:#x}")


@dataclass
class RoccInterface:
    """Command router between the core and the accelerator units.

    Tracks dispatch-cycle accounting and the number of in-flight operations
    so `block_for_*_completion` can be modelled as committing only once all
    in-flight work retires (Section 4.4.1's "flexible middle ground").

    This class is also the reference implementation of the
    :class:`~repro.soc.transport.AccelTransport` protocol -- the seam
    that lets :class:`~repro.soc.pcie.PcieTransport` slot in as a second
    attach point.  For RoCC the transport surface is nearly free: the
    per-instruction core dispatch cost accrues into an uncollected-cycle
    ledger the driver drains into ``transport_cycles`` stats, and the
    batch-window / payload hooks are no-ops (there are no rings,
    doorbells, or DMA staging to amortise).
    """

    #: Transport identity ("rocc" here, "pcie" for PcieTransport).
    name = "rocc"

    dispatch_cycles_each: int = 4
    instructions_issued: int = 0
    dispatch_cycles_total: int = 0
    _inflight_deser: int = 0
    _inflight_ser: int = 0
    #: Fault interrupts the accelerator raised to the core (Section 4.3's
    #: interrupt line carries arena exhaustion and unit faults alike).
    faults_raised: int = 0
    fault_sites: dict = field(default_factory=dict)
    #: Transport cycles charged but not yet drained via take_cycles().
    _uncollected: float = 0.0

    def record_fault(self, site: str | None) -> None:
        """The accelerator signalled a fault interrupt from ``site``."""
        self.faults_raised += 1
        key = site or "unknown"
        self.fault_sites[key] = self.fault_sites.get(key, 0) + 1

    def issue(self, instruction: RoccInstruction) -> None:
        self.instructions_issued += 1
        self.dispatch_cycles_total += self.dispatch_cycles_each
        self._uncollected += self.dispatch_cycles_each
        if instruction.funct is RoccFunct.DO_PROTO_DESER:
            self._inflight_deser += 1
        elif instruction.funct is RoccFunct.DO_PROTO_SER:
            self._inflight_ser += 1

    # -- AccelTransport surface -------------------------------------------------

    def take_cycles(self) -> float:
        """Drain the transport cycles charged since the last drain.

        The driver calls this after each operation (and after window
        close) to attribute attach-point cost to ``transport_cycles``
        stats.  For RoCC this is the custom-instruction dispatch cost:
        ``dispatch_cycles_each`` per issued instruction.
        """
        cycles = self._uncollected
        self._uncollected = 0.0
        return cycles

    def begin_batch(self) -> None:
        """Open a batch window (no-op on RoCC: dispatch cost is flat
        per instruction; nothing amortises)."""

    def end_batch(self) -> None:
        """Close a batch window (no-op on RoCC)."""

    def note_payload(self, nbytes: int) -> None:
        """Register produced output bytes (no-op on RoCC: results land
        in the shared arena over the system bus, already charged by the
        unit's memwriter model)."""

    def counters(self) -> dict:
        """Observability snapshot for perf reports and probes."""
        return {
            "transport": self.name,
            "instructions_issued": self.instructions_issued,
            "transport_cycles_total": float(self.dispatch_cycles_total),
            "faults_raised": self.faults_raised,
        }

    def retire_deser(self, count: int = 1) -> None:
        if count > self._inflight_deser:
            raise RuntimeError("retiring more deserializations than in flight")
        self._inflight_deser -= count

    def retire_ser(self, count: int = 1) -> None:
        if count > self._inflight_ser:
            raise RuntimeError("retiring more serializations than in flight")
        self._inflight_ser -= count

    @property
    def inflight_deserializations(self) -> int:
        return self._inflight_deser

    @property
    def inflight_serializations(self) -> int:
        return self._inflight_ser

    def block_for_deser_completion(self) -> bool:
        """True if the fence commits immediately (nothing in flight)."""
        self.issue(RoccInstruction(RoccFunct.BLOCK_FOR_DESER_COMPLETION))
        return self._inflight_deser == 0

    def block_for_ser_completion(self) -> bool:
        self.issue(RoccInstruction(RoccFunct.BLOCK_FOR_SER_COMPLETION))
        return self._inflight_ser == 0
