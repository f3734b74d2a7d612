"""A flat, byte-addressable simulated memory.

Addresses are plain integers starting at :data:`BASE_ADDRESS` (so that 0
can serve as a null pointer).  The memory records read/write statistics
used by the timing models.

The backing store is one anonymous private mapping of the whole address
space.  The OS zero-fills each page on first touch, so untouched
memory -- an arena parked at a high address, say -- costs no RSS, and
every access is one bounds check and one slice, whatever it straddles.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass

#: First usable address; address 0 is reserved as the null pointer.
BASE_ADDRESS = 0x1000

_ALIGNMENT = 8


@dataclass
class MemoryStats:
    """Aggregate access counters for one :class:`SimMemory`."""

    reads: int = 0
    read_bytes: int = 0
    writes: int = 0
    written_bytes: int = 0

    def snapshot(self) -> "MemoryStats":
        return MemoryStats(self.reads, self.read_bytes,
                           self.writes, self.written_bytes)


class SimMemory:
    """A contiguous simulated memory with a bump heap.

    The heap allocator hands out *software-owned* regions (top-level message
    objects, serialized input buffers); the accelerator's own allocations go
    through :class:`~repro.memory.arena.AcceleratorArena` regions carved out
    of this memory.

    The bytes live in ``mmap.mmap(-1, size, flags=MAP_PRIVATE)``: address
    ``a`` is offset ``a - BASE_ADDRESS`` of the mapping.  ``MAP_PRIVATE``
    matters: Python maps an anonymous region ``MAP_SHARED`` by default,
    and a forked worker would then write into its parent's memory; a
    private mapping is copy-on-write across ``fork``.
    """

    def __init__(self, size: int = 64 << 20):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self._bytes = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self._brk = BASE_ADDRESS
        self.stats = MemoryStats()

    # -- allocation ---------------------------------------------------------

    def allocate(self, size: int, alignment: int = _ALIGNMENT) -> int:
        """Reserve ``size`` bytes on the software heap; returns the address."""
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        addr = -(-self._brk // alignment) * alignment
        if addr + size - BASE_ADDRESS > self.size:
            raise MemoryError(
                f"simulated memory exhausted ({self.size} bytes)")
        self._brk = addr + size
        return addr

    @property
    def heap_top(self) -> int:
        return self._brk

    def heap_release(self, mark: int) -> None:
        """Roll the bump heap back to ``mark`` (a prior ``heap_top``).

        Regions handed out after the mark are forgotten and their
        addresses re-issued to later allocations.  Callers own the
        lifetime argument: nothing may still reference the released
        regions.
        """
        if not BASE_ADDRESS <= mark <= self._brk:
            raise ValueError(
                f"heap mark {mark:#x} outside [{BASE_ADDRESS:#x}, "
                f"{self._brk:#x}]")
        self._brk = mark

    # -- raw access -----------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        start = addr - BASE_ADDRESS
        if start < 0 or start + length > self.size:
            raise IndexError(
                f"access [{addr:#x}, {addr + length:#x}) out of bounds")
        stats = self.stats
        stats.reads += 1
        stats.read_bytes += length
        return self._bytes[start:start + length]

    def write(self, addr: int, data) -> None:
        length = len(data)
        start = addr - BASE_ADDRESS
        if start < 0 or start + length > self.size:
            raise IndexError(
                f"access [{addr:#x}, {addr + length:#x}) out of bounds")
        stats = self.stats
        stats.writes += 1
        stats.written_bytes += length
        self._bytes[start:start + length] = data

    # -- typed helpers ---------------------------------------------------------

    def read_u8(self, addr: int) -> int:
        return self.read(addr, 1)[0]

    def read_u32(self, addr: int) -> int:
        return struct.unpack("<I", self.read(addr, 4))[0]

    def read_u64(self, addr: int) -> int:
        return struct.unpack("<Q", self.read(addr, 8))[0]

    def read_i64(self, addr: int) -> int:
        return struct.unpack("<q", self.read(addr, 8))[0]

    def write_u8(self, addr: int, value: int) -> None:
        self.write(addr, bytes((value & 0xFF,)))

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<I", value & 0xFFFFFFFF))

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<Q", value & (2**64 - 1)))

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        self.write(addr, bytes([byte]) * length)
