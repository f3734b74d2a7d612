"""Declarative, seeded fault plans: what to break, where, and how often.

A :class:`FaultPlan` names the hardware *sites* at which faults may fire
and a per-operation probability.  Plans are frozen and picklable so the
benchmark harness can ship them to worker processes.

Site semantics (docs/FAULTS.md has the full taxonomy):

* Transient sites model soft errors and contention -- retrying the same
  operation is expected to succeed once the condition clears.
* Persistent sites model conditions a retry cannot fix (the hardware
  keeps detecting the same corruption); the driver goes straight to the
  CPU fallback for those.

Data-corrupting sites (bit flips, ADT entry corruption) are modelled as
*detected* faults: the unit's ECC/parity check raises instead of letting
corrupt data flow downstream.  That keeps recovery semantics exact --
the retried or fallback decode always runs over pristine bytes, which is
what lets the test suite demand bit-identical results under fault load.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass, field


class FaultSite(enum.Enum):
    """Named injection points threaded through the pipeline."""

    MEMLOADER_BITFLIP = "memloader.bitflip"    # ECC error in a window
    MEMLOADER_TRUNCATE = "memloader.truncate"  # stream ended short (beat count mismatch)
    VARINT_OVERLONG = "varint.overlong"        # decoder saw > 10 continuation bytes
    UTF8_CORRUPT = "utf8.corrupt"              # validator DFA hit a bad sequence
    ADT_ENTRY = "adt.entry"                    # ADT entry parity failure
    BUS_STALL = "bus.stall"                    # TileLink channel timed out
    TLB_FAULT = "tlb.fault"                    # PTW returned an invalid PTE
    DESER_ABORT = "deser.abort"                # field handler died mid-message
    SER_ABORT = "ser.abort"                    # serializer pipeline died mid-message
    DESER_HANG = "deser.hang"                  # field handler stopped progressing
    SER_HANG = "ser.hang"                      # serializer pipeline stopped progressing
    PCIE_DMA = "pcie.dma"                      # payload/descriptor DMA failed (link CRC)
    PCIE_DOORBELL = "pcie.doorbell"            # doorbell MMIO write lost/rejected


#: Sites where a bounded retry of the same operation may succeed.
TRANSIENT_SITES = frozenset({
    FaultSite.MEMLOADER_BITFLIP,
    FaultSite.ADT_ENTRY,
    FaultSite.BUS_STALL,
    FaultSite.TLB_FAULT,
    # Link-level CRC retries and doorbell re-posts succeed once the
    # condition clears; the driver resubmits the descriptor.
    FaultSite.PCIE_DMA,
    FaultSite.PCIE_DOORBELL,
})

#: Sites that deterministically recur on retry (driver falls back).
PERSISTENT_SITES = frozenset(FaultSite) - TRANSIENT_SITES

#: Sites reachable during a deserialization operation.
DESER_SITES = (
    FaultSite.MEMLOADER_BITFLIP,
    FaultSite.MEMLOADER_TRUNCATE,
    FaultSite.VARINT_OVERLONG,
    FaultSite.UTF8_CORRUPT,
    FaultSite.ADT_ENTRY,
    FaultSite.BUS_STALL,
    FaultSite.TLB_FAULT,
    FaultSite.DESER_ABORT,
    FaultSite.DESER_HANG,
)

#: Sites reachable during a serialization operation.
SER_SITES = (
    FaultSite.ADT_ENTRY,
    FaultSite.BUS_STALL,
    FaultSite.TLB_FAULT,
    FaultSite.SER_ABORT,
    FaultSite.SER_HANG,
)

#: Sites reachable only over the PCIe attach point (polled by the
#: *driver* at submission, before any unit runs).  Deliberately NOT
#: folded into DESER_SITES/SER_SITES: the RoCC-path site draw must stay
#: bit-identical to pre-transport releases, so PCIe operations announce
#: themselves with a ``"pcie."``-prefixed kind instead (``sites_for``).
PCIE_SITES = (
    FaultSite.PCIE_DMA,
    FaultSite.PCIE_DOORBELL,
)

#: Sites that model a hung FSM: the unit stops making forward progress
#: and burns cycles until the watchdog's per-operation budget expires
#: (docs/SERVING.md).  Hangs are persistent -- the aborted operation is
#: never retried on the same tile; recovery is fallback or failover.
HANG_SITES = frozenset({FaultSite.DESER_HANG, FaultSite.SER_HANG})

#: Sites polled once, at the start of an attempt; their armed fault fires
#: on the first poll regardless of ``max_trigger`` (the condition exists
#: before the operation touches any data).
IMMEDIATE_SITES = frozenset({
    FaultSite.MEMLOADER_BITFLIP,
    FaultSite.MEMLOADER_TRUNCATE,
    FaultSite.BUS_STALL,
    FaultSite.TLB_FAULT,
    # Submission-time conditions: they exist before the units touch any
    # data, and the driver polls them first, so they fire on poll one.
    FaultSite.PCIE_DMA,
    FaultSite.PCIE_DOORBELL,
})


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of a fault-injection campaign.

    ``rate`` is the per-operation probability that one fault is armed for
    that operation; the armed site is drawn uniformly from ``sites``
    (restricted to the sites the operation kind can reach).
    ``transient_duration`` is how many attempts a transient fault keeps
    firing before it clears -- 1 means the first retry succeeds.
    ``max_trigger`` bounds how many polls into the operation a non-
    immediate fault waits before firing (tests pin it to 1 to make the
    fault land on the first reachable poll).
    """

    seed: int = 0
    rate: float = 0.0
    sites: tuple[FaultSite, ...] = field(default=tuple(FaultSite))
    transient_duration: int = 1
    max_trigger: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.transient_duration < 1:
            raise ValueError("transient_duration must be >= 1")
        if self.max_trigger < 1:
            raise ValueError("max_trigger must be >= 1")
        # Accept site names ("tlb.fault") as well as FaultSite members.
        object.__setattr__(self, "sites",
                           tuple(FaultSite(s) for s in self.sites))
        if not self.sites:
            raise ValueError("a FaultPlan needs at least one site")

    def enabled(self) -> bool:
        return self.rate > 0.0

    def sites_for(self, kind: str) -> tuple[FaultSite, ...]:
        """The plan's sites reachable by one operation ``kind``.

        ``"deser"``/``"ser"`` are the RoCC-path kinds (unchanged since
        the fault subsystem landed, so seeded site draws replay
        bit-identically); ``"pcie.deser"``/``"pcie.ser"`` additionally
        reach the transport's own submission sites.
        """
        base = kind.removeprefix("pcie.")
        reachable = DESER_SITES if base == "deser" else SER_SITES
        if kind.startswith("pcie."):
            reachable = reachable + PCIE_SITES
        return tuple(s for s in self.sites if s in reachable)

    def derive(self, *labels: str) -> "FaultPlan":
        """A copy of this plan with a seed mixed from ``labels``.

        Every fresh :class:`~repro.faults.injector.FaultInjector` replays
        the plan seed's RNG stream from the start, so independent runs
        (one benchmark workload each, say) would otherwise fault at
        *identical* operation indices.  Deriving a per-workload seed
        decorrelates them while staying fully deterministic.
        """
        material = "|".join((str(self.seed),) + labels)
        digest = hashlib.sha256(material.encode()).digest()
        return dataclasses.replace(
            self, seed=int.from_bytes(digest[:8], "big"))
