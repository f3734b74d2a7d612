"""TLB and page-table-walker model for the memory interface wrappers.

The accelerator uses virtual addresses; each memory interface wrapper keeps
a private TLB and falls back to the shared page-table walker on a miss
(Section 4.1).  Our simulated memory is identity-mapped, so the TLB exists
purely for cycle accounting -- but it is a real LRU TLB so workloads with
poor locality pay realistic PTW penalties.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

PAGE_BYTES = 4096


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses


class Tlb:
    """A fully-associative LRU TLB."""

    def __init__(self, entries: int = 32, ptw_cycles: int = 80):
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.entries = entries
        self.ptw_cycles = ptw_cycles
        self._map: OrderedDict[int, int] = OrderedDict()
        self.stats = TlbStats()
        #: FaultInjector hook; when set, translate_range models the PTW
        #: returning an invalid PTE (a transient fault to software).
        self.faults = None

    def flush(self) -> None:
        """Drop every cached translation (cumulative stats survive).

        Used by the serving layer's pure-charging call discipline: a
        flushed TLB makes the next operation's PTW penalties a pure
        function of the addresses it touches, with no dependence on
        prior traffic.
        """
        self._map.clear()

    def translate(self, vaddr: int) -> tuple[int, int]:
        """Translate ``vaddr``; returns (paddr, penalty_cycles).

        Identity mapping: paddr == vaddr.  The interesting output is the
        penalty, 0 on a hit or ``ptw_cycles`` on a miss.
        """
        vpn = vaddr // PAGE_BYTES
        if vpn in self._map:
            self._map.move_to_end(vpn)
            self.stats.hits += 1
            return vaddr, 0
        self.stats.misses += 1
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
        self._map[vpn] = vpn
        return vaddr, self.ptw_cycles

    def translate_range(self, vaddr: int, length: int) -> int:
        """Translate every page a [vaddr, vaddr+length) access touches.

        Returns the total PTW penalty in cycles.
        """
        if length <= 0:
            return 0
        if self.faults is not None:
            from repro.faults.plan import FaultSite
            self.faults.poll(FaultSite.TLB_FAULT)
        penalty = 0
        first = vaddr // PAGE_BYTES
        last = (vaddr + length - 1) // PAGE_BYTES
        for vpn in range(first, last + 1):
            _, cost = self.translate(vpn * PAGE_BYTES)
            penalty += cost
        return penalty
