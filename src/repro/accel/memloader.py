"""The memloader unit (Section 4.4.2).

Streams the serialized input buffer from memory and exposes a decoupled
consumer interface: a full window of up to 16 buffered bytes is always
visible (the consumer's appetite is data-dependent -- it may take 1 byte of
a bool or 16 bytes of a string), and the consumer names how many bytes to
discard at the end of each cycle.

Cycle accounting: the memloader issues pipelined sequential reads, so input
bandwidth is one 16 B beat per cycle after a single startup latency charged
when the stream opens.
"""

from __future__ import annotations

from repro.faults.plan import FaultSite
from repro.memory.memspace import SimMemory
from repro.proto.errors import DecodeError
from repro.memory.timing import MemoryTimingModel

WINDOW_BYTES = 16


class Memloader:
    """A streaming window over one serialized input buffer."""

    def __init__(self, memory: SimMemory, timing: MemoryTimingModel,
                 addr: int, length: int, faults=None):
        if length < 0:
            raise ValueError("stream length must be non-negative")
        self.memory = memory
        self.timing = timing
        self._base = addr
        self._length = length
        self._pos = 0
        #: Startup latency of opening the stream (hidden thereafter).
        self.startup_cycles = timing.average_latency if length else 0.0
        self.bytes_loaded = 0
        # The pipelined sequential prefetch: one read of the stream at
        # open, exposed thereafter as zero-copy window views (no bytes
        # allocation per cycle).
        self._raw = memory.read(addr, length) if length else b""
        self._stream = memoryview(self._raw)
        self._window: memoryview | bytes = b""
        self._window_pos = -1
        self._window_len = -1
        # Stream-open checks: ECC over the prefetched lines, the beat
        # counter against the announced length, and the bus transaction
        # itself.  Any of these can raise an AccelFault under injection.
        if faults is not None:
            faults.poll(FaultSite.BUS_STALL)
            faults.poll(FaultSite.MEMLOADER_BITFLIP)
            faults.poll(FaultSite.MEMLOADER_TRUNCATE)

    def prefetched(self) -> bytes:
        """The whole prefetched stream as one bytes object.

        Next-window prefetch for the specialized codegen kernels: the
        entire input was loaded at stream open (the same single read the
        windowed interface uses), so a kernel indexes it directly and
        never stalls refilling the 16 B window.
        """
        return self._raw

    @property
    def remaining(self) -> int:
        return self._length - self._pos

    @property
    def consumed(self) -> int:
        return self._pos

    def peek(self, nbytes: int = WINDOW_BYTES) -> memoryview | bytes:
        """Look at up to ``nbytes`` of buffered data without consuming.

        Hardware always exposes a full window; at end-of-stream the window
        simply contains fewer valid bytes.  The returned window is a
        zero-copy view over the prefetched stream, cached across repeated
        peeks at the same position.
        """
        nbytes = min(nbytes, self.remaining)
        if nbytes <= 0:
            return b""
        if self._window_pos != self._pos or self._window_len != nbytes:
            self._window = self._stream[self._pos:self._pos + nbytes]
            self._window_pos = self._pos
            self._window_len = nbytes
        return self._window

    def consume(self, nbytes: int) -> None:
        """Discard ``nbytes`` from the head of the window."""
        if nbytes < 0:
            raise ValueError("cannot consume a negative byte count")
        if nbytes > self.remaining:
            raise DecodeError(
                f"consume({nbytes}) exceeds remaining {self.remaining} "
                "(truncated input stream)")
        self._pos += nbytes
        self.bytes_loaded += nbytes

    def consume_bulk(self, nbytes: int) -> bytes:
        """Consume ``nbytes`` as a bulk copy and return them.

        Used by the string-copy states, which charge the copy at the
        stream's sustained rate (``stream_bytes_per_cycle`` in the
        deserializer's charge schedule).
        """
        data = self.peek(nbytes)
        if len(data) < nbytes:
            raise DecodeError("bulk consume ran past end of stream "
                              "(truncated input)")
        self.consume(nbytes)
        return data
