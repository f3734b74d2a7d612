"""Multi-tile scaling model (Appendix A.7.1: "multi-core systems").

The Chipyard SoC generator can instantiate the accelerator per tile; the
tiles share the system bus, L2 banks and DRAM (Figure 8).  This model
answers the scaling question analytically: given one tile's measured
cycles and bus traffic, how does aggregate throughput grow with tile
count before the shared uncore saturates?

Per tile, an operation moves ``beats`` bus beats over ``cycles`` cycles.
N tiles demand ``N x beats/cycles`` beats per cycle; the shared bus
delivers at most ``bus_beats_per_cycle`` (1.0 for the single 128-bit
TileLink system bus; banked configurations raise it).  Below saturation
tiles scale linearly; above it, the bus caps aggregate throughput.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TileWorkProfile:
    """One tile's measured behaviour on a workload."""

    payload_bytes: int
    cycles: float
    bus_beats: float

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if self.payload_bytes < 0 or self.bus_beats < 0:
            raise ValueError("bytes and beats must be non-negative")

    @property
    def beats_per_cycle(self) -> float:
        return self.bus_beats / self.cycles


@dataclass
class MultiTileModel:
    """Aggregate throughput of N accelerator tiles on a shared uncore.

    ``transport`` names the shared resource the tiles contend on:
    ``"rocc"`` tiles share the on-chip system bus (beats per cycle);
    ``"pcie"`` tiles share the link's payload bandwidth
    (``link_bytes_per_cycle``, matching
    :class:`~repro.soc.pcie.PcieParams`).  The scaling algebra is
    identical -- only the capacity/demand units change.
    """

    profile: TileWorkProfile
    #: Deliverable beats per cycle of the shared bus/LLC path.
    bus_beats_per_cycle: float = 1.0
    clock_hz: float = 2.0e9
    #: Shared medium: "rocc" (system bus) or "pcie" (link bandwidth).
    transport: str = "rocc"
    #: Link payload bandwidth when transport="pcie", bytes per cycle.
    link_bytes_per_cycle: float = 64.0

    def __post_init__(self) -> None:
        if self.transport not in ("rocc", "pcie"):
            raise ValueError(f"unknown transport {self.transport!r}; "
                             "expected 'rocc' or 'pcie'")
        if self.link_bytes_per_cycle <= 0:
            raise ValueError("link bandwidth must be positive")

    def bus_demand(self, tiles: int) -> float:
        """Shared-medium units per cycle N tiles would like to consume
        (bus beats on RoCC, payload bytes on PCIe)."""
        if tiles < 1:
            raise ValueError("need at least one tile")
        if self.transport == "pcie":
            return tiles * self.profile.payload_bytes / self.profile.cycles
        return tiles * self.profile.beats_per_cycle

    def _capacity(self) -> float:
        """Deliverable shared-medium units per cycle."""
        if self.transport == "pcie":
            return self.link_bytes_per_cycle
        return self.bus_beats_per_cycle

    def saturation_tiles(self) -> float:
        """Tile count at which the shared medium saturates."""
        demand = self.bus_demand(1)
        if demand == 0:
            return float("inf")
        return self._capacity() / demand

    def speedup(self, tiles: int) -> float:
        """Aggregate throughput of N tiles relative to one tile.

        The single-tile profile already reflects whatever bandwidth it
        achieved, so one tile is the unit by definition; additional
        tiles add linearly until aggregate demand hits the bus cap.
        """
        if tiles < 1:
            raise ValueError("need at least one tile")
        cap = max(1.0, self.saturation_tiles())
        return float(min(tiles, cap))

    def aggregate_gbps(self, tiles: int) -> float:
        """Aggregate payload throughput of N tiles in Gbit/s."""
        single = (self.profile.payload_bytes * 8
                  / (self.profile.cycles / self.clock_hz) / 1e9)
        return single * self.speedup(tiles)

    def per_tile_efficiency(self, tiles: int) -> float:
        """Fraction of a lone tile's throughput each tile retains."""
        return self.speedup(tiles) / tiles
