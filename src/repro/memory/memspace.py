"""A flat, byte-addressable simulated memory.

Addresses are plain integers starting at :data:`BASE_ADDRESS` (so that 0
can serve as a null pointer).  The memory records read/write statistics
used by the timing models.
"""

from __future__ import annotations

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
    """

    #: Backing-store page size.  Pages materialise (zeroed) on first
    #: write, so zeroing cost tracks bytes actually touched rather than
    #: the address-space high-water mark -- arenas parked at high
    #: addresses cost nothing until used.
    _PAGE_SHIFT = 16
    _PAGE = 1 << _PAGE_SHIFT

    def __init__(self, size: int = 64 << 20):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self._pages: dict[int, bytearray] = {}
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

    def _check(self, addr: int, length: int) -> None:
        if addr < BASE_ADDRESS or addr + length - BASE_ADDRESS > self.size:
            raise IndexError(
                f"access [{addr:#x}, {addr + length:#x}) out of bounds")

    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        self.stats.reads += 1
        self.stats.read_bytes += length
        start = addr - BASE_ADDRESS
        page = start >> self._PAGE_SHIFT
        offset = start & self._PAGE - 1
        if offset + length <= self._PAGE:
            backing = self._pages.get(page)
            if backing is None:
                # Never-written page: zeros, without materialising it.
                return bytes(length)
            return bytes(backing[offset:offset + length])
        pieces = bytearray()
        remaining = length
        while remaining:
            take = min(self._PAGE - offset, remaining)
            backing = self._pages.get(page)
            if backing is None:
                pieces += bytes(take)
            else:
                pieces += backing[offset:offset + take]
            remaining -= take
            page += 1
            offset = 0
        return bytes(pieces)

    def write(self, addr: int, data) -> None:
        length = len(data)
        self._check(addr, length)
        self.stats.writes += 1
        self.stats.written_bytes += length
        start = addr - BASE_ADDRESS
        page = start >> self._PAGE_SHIFT
        offset = start & self._PAGE - 1
        if offset + length <= self._PAGE:
            backing = self._pages.get(page)
            if backing is None:
                backing = self._pages[page] = bytearray(self._PAGE)
            backing[offset:offset + length] = data
            return
        view = memoryview(data)
        position = 0
        while position < length:
            take = min(self._PAGE - offset, length - position)
            backing = self._pages.get(page)
            if backing is None:
                backing = self._pages[page] = bytearray(self._PAGE)
            backing[offset:offset + take] = view[position:position + take]
            position += take
            page += 1
            offset = 0

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
