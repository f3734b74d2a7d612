"""The 24-slice bytes-to-cycles attribution model (Section 3.6.4).

The fleet profilers report *bytes* per field type, not cycles.  The paper
bridges the gap by:

1. classifying fleet protobuf bytes into 24 ``[field-type-like, size]``
   slices -- ten bytes-like size buckets (Figure 4c's bounds, midpoint
   interpolation), ten varint sizes (1-10 encoded bytes, exact bins from
   protobufz), and the four fixed-width types;
2. measuring per-byte serialization/deserialization time for each slice
   with a microbenchmark on a production-class host (we use the Xeon cost
   model); and
3. multiplying bytes by time-per-byte to estimate fleet-wide time per
   slice -- Figures 5 (deserialization) and 6 (serialization).

Reproduced headline claims: no single slice dominates (no silver bullet);
only ~14% of deserialization time handles data at over 1 GB/s; and large
bytes-like fields are 100-500x faster per byte than small fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cpu.model import SoftwareCpu
from repro.cpu.xeon import xeon_cpu
from repro.fleet.distributions import (
    BYTES_FIELD_SIZE_BUCKETS,
    FIELD_BYTES_SHARES,
    VARINT_SIZE_SHARES,
)
from repro.proto.descriptor import FieldDescriptor, MessageDescriptor
from repro.proto.message import Message
from repro.proto.types import FieldType

#: How the Figure 4b byte shares map onto slice groups.
_BYTES_LIKE_SHARE = (FIELD_BYTES_SHARES["string"]
                     + FIELD_BYTES_SHARES["bytes"]
                     + FIELD_BYTES_SHARES["repeated string"]
                     + FIELD_BYTES_SHARES["repeated bytes"])
_VARINT_SHARE = FIELD_BYTES_SHARES["varint-like"]
_DOUBLE_SHARE = FIELD_BYTES_SHARES["double"]
_FLOAT_SHARE = FIELD_BYTES_SHARES["float"]
_FIXED32_SHARE = FIELD_BYTES_SHARES["fixed"] * 0.4
_FIXED64_SHARE = FIELD_BYTES_SHARES["fixed"] * 0.6


@dataclass(frozen=True)
class Slice:
    """One [field-type-like, size] slice of fleet protobuf bytes."""

    name: str
    kind: str                      # "bytes-like" | "varint" | fixed kinds
    byte_share: float              # fraction of fleet protobuf bytes
    build_message: Callable[[], Message]

    def build_batch(self, count: int = 4) -> list[Message]:
        return [self.build_message() for _ in range(count)]


def _bytes_like_message(size: int) -> Message:
    descriptor = MessageDescriptor(
        f"BytesSlice{size}",
        [FieldDescriptor(name="payload", number=1,
                         field_type=FieldType.BYTES)])
    message = descriptor.new_message()
    message["payload"] = bytes((i * 31 + 7) & 0xFF for i in range(size))
    return message


def _varint_message(encoded_bytes: int) -> Message:
    from repro.bench.microbench import varint_value

    descriptor = MessageDescriptor(
        f"VarintSlice{encoded_bytes}",
        [FieldDescriptor(name=f"f{i}", number=i,
                         field_type=FieldType.UINT64)
         for i in range(1, 6)])
    message = descriptor.new_message()
    for fd in descriptor.fields:
        message[fd.name] = varint_value(encoded_bytes)
    return message


def _fixed_message(field_type: FieldType) -> Message:
    descriptor = MessageDescriptor(
        f"FixedSlice{field_type.value}",
        [FieldDescriptor(name=f"f{i}", number=i, field_type=field_type)
         for i in range(1, 6)])
    message = descriptor.new_message()
    for index, fd in enumerate(descriptor.fields):
        if field_type in (FieldType.FLOAT, FieldType.DOUBLE):
            message[fd.name] = 1.5 + index
        else:
            message[fd.name] = 1000 + index
    return message


def build_slices() -> list[Slice]:
    """The 24 slices with their fleet byte shares."""
    slices: list[Slice] = []
    # Bytes-like: distribute the group's bytes across size buckets by
    # *byte volume* (count share x midpoint size).
    volumes = [bucket.share * bucket.midpoint
               for bucket in BYTES_FIELD_SIZE_BUCKETS]
    total_volume = sum(volumes)
    for bucket, volume in zip(BYTES_FIELD_SIZE_BUCKETS, volumes):
        size = max(1, int(bucket.midpoint))
        slices.append(Slice(
            name=f"bytes {bucket.label}",
            kind="bytes-like",
            byte_share=_BYTES_LIKE_SHARE * volume / total_volume,
            build_message=lambda size=size: _bytes_like_message(size)))
    # Varint-like: protobufz labels size bins exactly; weight by bytes.
    varint_volumes = {n: share * n
                      for n, share in VARINT_SIZE_SHARES.items()}
    total_varint = sum(varint_volumes.values())
    for encoded_bytes, volume in varint_volumes.items():
        slices.append(Slice(
            name=f"varint {encoded_bytes}B",
            kind="varint",
            byte_share=_VARINT_SHARE * volume / total_varint,
            build_message=(lambda n=encoded_bytes: _varint_message(n))))
    for name, kind, share, field_type in (
            ("double", "double-like", _DOUBLE_SHARE, FieldType.DOUBLE),
            ("float", "float-like", _FLOAT_SHARE, FieldType.FLOAT),
            ("fixed32", "fixed32-like", _FIXED32_SHARE, FieldType.FIXED32),
            ("fixed64", "fixed64-like", _FIXED64_SHARE, FieldType.FIXED64)):
        slices.append(Slice(
            name=name, kind=kind, byte_share=share,
            build_message=(lambda ft=field_type: _fixed_message(ft))))
    return slices


class CycleAttributionModel:
    """Estimates fleet ser/deser time per slice (Figures 5 and 6)."""

    def __init__(self, cpu: SoftwareCpu | None = None):
        self.cpu = cpu or xeon_cpu()
        self.slices = build_slices()
        #: Per operation, each slice's measured seconds per byte.
        self._per_byte: dict[str, dict[Slice, float]] = {}

    def _measure(self, slice_: Slice, operation: str) -> float:
        messages = slice_.build_batch()
        total_cycles = 0.0
        total_bytes = 0
        for message in messages:
            data, result = self.cpu.serialize(message)
            if operation == "serialize":
                total_cycles += result.cycles
            else:
                _, deser = self.cpu.deserialize(message.descriptor, data)
                total_cycles += deser.cycles
            total_bytes += len(data)
        return total_cycles / self.cpu.params.clock_hz / total_bytes

    def _seconds_per_byte(self, operation: str) -> dict[Slice, float]:
        """Every slice's seconds per byte, measured on first use."""
        table = self._per_byte.get(operation)
        if table is None:
            if operation not in ("serialize", "deserialize"):
                raise ValueError(
                    "operation must be serialize or deserialize")
            table = self._per_byte[operation] = {
                slice_: self._measure(slice_, operation)
                for slice_ in self.slices}
        return table

    def throughput_gbps(self, slice_: Slice, operation: str) -> float:
        """Per-slice throughput in Gbit/s on the modelled host."""
        return 8 / self._seconds_per_byte(operation)[slice_] / 1e9

    def time_shares(self, operation: str) -> dict[str, float]:
        """Figure 5 (deserialize) / Figure 6 (serialize): the estimated
        share of fleet ser/deser time spent per slice."""
        costs = self._seconds_per_byte(operation)
        weighted = {slice_.name: slice_.byte_share * costs[slice_]
                    for slice_ in self.slices}
        total = sum(weighted.values())
        return {name: value / total for name, value in weighted.items()}

    def share_of_time_above(self, gbps: float, operation: str) -> float:
        """Fraction of fleet time spent on slices handled faster than
        ``gbps`` (the paper's "only 14% of deserialization time runs at
        over 1 GB/s" claim uses gbps = 8)."""
        shares = self.time_shares(operation)
        total = 0.0
        for slice_ in self.slices:
            if self.throughput_gbps(slice_, operation) > gbps:
                total += shares[slice_.name]
        return total

    def per_byte_speed_ratio(self, operation: str) -> float:
        """Fastest vs slowest slice in per-byte terms (the paper: large
        bytes-like fields are 100-500x faster per byte)."""
        costs = self._seconds_per_byte(operation).values()
        return max(costs) / min(costs)
