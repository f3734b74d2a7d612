"""TileLink system bus accounting (128-bit data path, Section 4.1).

Tracks beats moved by the accelerator so benchmarks can report bus
utilisation alongside throughput.  The cycle *cost* of traffic is charged
by :class:`repro.memory.timing.MemoryTimingModel`; this class is the
occupancy ledger.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SystemBus:
    """Occupancy counters for the shared system bus."""

    bytes_per_beat: int = 16
    read_beats: int = 0
    write_beats: int = 0
    #: Stall ledger: transactions that timed out (fault injection or a
    #: busy bus) and the dead cycles the requester spent waiting.
    stalls: int = 0
    stall_cycles: float = 0.0

    def record_stall(self, cycles: float) -> None:
        """A transaction timed out; ``cycles`` were spent waiting."""
        self.stalls += 1
        self.stall_cycles += cycles

    def record_read(self, nbytes: int) -> int:
        beats = self._beats(nbytes)
        self.read_beats += beats
        return beats

    def record_write(self, nbytes: int) -> int:
        beats = self._beats(nbytes)
        self.write_beats += beats
        return beats

    def _beats(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.bytes_per_beat)

    @property
    def total_beats(self) -> int:
        return self.read_beats + self.write_beats

    def utilization(self, cycles: float) -> float:
        """Fraction of ``cycles`` the bus spent moving accelerator data."""
        if cycles <= 0:
            return 0.0
        return min(1.0, self.total_beats / cycles)
