"""Tests for the memloader's decoupled streaming window."""

import pytest

from repro.accel.memloader import WINDOW_BYTES, Memloader
from repro.memory.memspace import SimMemory
from repro.memory.timing import MemoryTimingModel


def _loader(payload: bytes):
    memory = SimMemory()
    addr = memory.allocate(max(len(payload), 1))
    memory.write(addr, payload) if payload else None
    return Memloader(memory, MemoryTimingModel(), addr, len(payload))


class TestWindow:
    def test_window_exposes_up_to_16_bytes(self):
        loader = _loader(bytes(range(32)))
        assert loader.peek() == bytes(range(WINDOW_BYTES))

    def test_window_shrinks_at_end_of_stream(self):
        loader = _loader(b"abc")
        assert loader.peek() == b"abc"
        loader.consume(2)
        assert loader.peek() == b"c"

    def test_consumer_dictated_consumption(self):
        loader = _loader(bytes(range(20)))
        loader.consume(3)
        assert loader.peek(4) == bytes([3, 4, 5, 6])
        assert loader.consumed == 3
        assert loader.remaining == 17

    def test_overconsume_is_decode_error(self):
        from repro.proto.errors import DecodeError

        loader = _loader(b"ab")
        with pytest.raises(DecodeError):
            loader.consume(3)

    def test_negative_consume_rejected(self):
        with pytest.raises(ValueError):
            _loader(b"ab").consume(-1)

    def test_empty_stream(self):
        loader = _loader(b"")
        assert loader.peek() == b""
        assert loader.remaining == 0
        assert loader.startup_cycles == 0


class TestBulkConsume:
    def test_bulk_returns_data(self):
        loader = _loader(b"x" * 64)
        assert loader.consume_bulk(48) == b"x" * 48
        assert loader.remaining == 16

    def test_bulk_past_end_is_decode_error(self):
        from repro.proto.errors import DecodeError

        loader = _loader(b"x" * 8)
        with pytest.raises(DecodeError):
            loader.consume_bulk(9)

    def test_startup_latency_charged_once(self):
        loader = _loader(b"x" * 100)
        assert loader.startup_cycles == \
            MemoryTimingModel().average_latency
