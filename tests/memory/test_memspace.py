"""Tests for the flat simulated memory."""

import multiprocessing

import pytest

from repro.memory.memspace import BASE_ADDRESS, SimMemory


class TestAllocation:
    def test_first_allocation_at_base(self):
        memory = SimMemory()
        assert memory.allocate(16) == BASE_ADDRESS

    def test_alignment(self):
        memory = SimMemory()
        memory.allocate(3)
        addr = memory.allocate(8, alignment=64)
        assert addr % 64 == 0

    def test_exhaustion(self):
        memory = SimMemory(size=4096)
        with pytest.raises(MemoryError):
            memory.allocate(1 << 20)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimMemory().allocate(-1)


class TestAccess:
    def test_write_read(self):
        memory = SimMemory()
        addr = memory.allocate(16)
        memory.write(addr, b"hello")
        assert memory.read(addr, 5) == b"hello"

    def test_typed_helpers(self):
        memory = SimMemory()
        addr = memory.allocate(32)
        memory.write_u64(addr, 2**63 + 5)
        assert memory.read_u64(addr) == 2**63 + 5
        memory.write_u32(addr + 8, 0xDEADBEEF)
        assert memory.read_u32(addr + 8) == 0xDEADBEEF
        memory.write_u8(addr + 12, 0x7F)
        assert memory.read_u8(addr + 12) == 0x7F

    def test_signed_read(self):
        memory = SimMemory()
        addr = memory.allocate(8)
        memory.write_u64(addr, (1 << 64) - 1)
        assert memory.read_i64(addr) == -1

    def test_fill(self):
        memory = SimMemory()
        addr = memory.allocate(8)
        memory.fill(addr, 8, 0xAB)
        assert memory.read(addr, 8) == b"\xab" * 8

    def test_out_of_bounds_rejected(self):
        memory = SimMemory(size=4096)
        with pytest.raises(IndexError):
            memory.read(0, 1)  # below BASE_ADDRESS (null page)
        with pytest.raises(IndexError):
            memory.read(BASE_ADDRESS + 4096, 1)

    def test_stats(self):
        memory = SimMemory()
        addr = memory.allocate(16)
        memory.write(addr, b"abcd")
        memory.read(addr, 4)
        assert memory.stats.writes == 1
        assert memory.stats.written_bytes == 4
        assert memory.stats.reads == 1
        assert memory.stats.read_bytes == 4


def _write_in_child(memory, addr, data, done):
    memory.write(addr, data)
    done.send(memory.read(addr, len(data)))


class TestFlatBacking:
    def test_access_straddling_64k_boundary(self):
        # The old backing store split memory into 64 KiB pages.
        memory = SimMemory()
        addr = BASE_ADDRESS + (1 << 16) - 3
        memory.write(addr, b"straddle")
        assert memory.read(addr, 8) == b"straddle"
        assert memory.read(addr - 2, 12) == b"\0\0straddle\0\0"
        assert memory.stats.writes == 1
        assert memory.stats.reads == 2

    def test_unwritten_memory_reads_zero(self):
        memory = SimMemory(size=1 << 20)
        assert memory.read(BASE_ADDRESS, 16) == bytes(16)
        assert memory.read(BASE_ADDRESS + (1 << 20) - 100, 100) == bytes(100)
        assert memory.read_u64(BASE_ADDRESS + (1 << 19)) == 0

    @pytest.mark.parametrize("access", ["read", "write"])
    def test_out_of_bounds_message_at_both_ends(self, access):
        memory = SimMemory(size=4096)

        def touch(addr, length):
            if access == "read":
                memory.read(addr, length)
            else:
                memory.write(addr, bytes(length))

        with pytest.raises(IndexError,
                           match=r"^access \[0xffe, 0x1002\) out of bounds$"):
            touch(BASE_ADDRESS - 2, 4)
        with pytest.raises(IndexError,
                           match=r"^access \[0x1ffc, 0x2004\) out of bounds$"):
            touch(BASE_ADDRESS + 4096 - 4, 8)
        touch(BASE_ADDRESS + 4096 - 8, 8)  # the last 8 bytes are in bounds
        assert memory.stats.reads + memory.stats.writes == 1

    def test_bytes_bytearray_and_memoryview_writes(self):
        memory = SimMemory()
        addr = memory.allocate(24)
        memory.write(addr, b"bytes---")
        memory.write(addr + 8, bytearray(b"bytearr-"))
        memory.write(addr + 16, memoryview(b"xxmemview")[2:])
        assert memory.read(addr, 23) == b"bytes---bytearr-memview"
        assert memory.stats.written_bytes == 23

    def test_forked_child_writes_stay_private(self):
        # A shared anonymous mapping would carry the child's write back
        # into the parent; the simulated memory must be copy-on-write.
        memory = SimMemory()
        addr = memory.allocate(8)
        memory.write(addr, b"parent!!")
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_write_in_child,
                                args=(memory, addr, b"child!!!", send))
        child.start()
        assert receive.poll(60)
        assert receive.recv() == b"child!!!"
        child.join(60)
        assert not child.is_alive()
        assert child.exitcode == 0
        assert memory.read(addr, 8) == b"parent!!"
