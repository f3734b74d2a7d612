"""A protobufz-style message-shape sampler (Section 3.1.2).

protobufz visits random machines and samples top-level messages as they
are serialized/deserialized, recording complete shape information: the
encoded size, the types and sizes of all present fields, and the message
hierarchy.  Our Monte Carlo counterpart draws shapes from the published
distributions; :class:`SampleAnalysis` then re-derives the Figure 3/4/7
histograms from raw samples, validating the analysis pipeline end-to-end
(the tests check convergence back to the inputs).

The joint structure mirrors reality: a message's encoded size is drawn
first (Figure 3), then its field population fills that budget, so large
bytes fields only occur inside large messages.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from repro.fleet.distributions import (
    BYTES_FIELD_SIZE_BUCKETS,
    DENSITY_HISTOGRAM,
    DEPTH_CDF_POINTS,
    FIELD_COUNT_SHARES,
    MESSAGE_SIZE_BUCKETS,
    SizeBucket,
    VARINT_SIZE_SHARES,
)

_BYTES_LIKE = ("string", "bytes")
_VARINT_LIKE = ("int32", "int64", "enum", "bool", "uint64", "other_varint")

#: Largest size a bucket without an upper bound draws.
_OPEN_BUCKET_HI = 131072


class FieldShape(NamedTuple):
    """One sampled field occurrence: its primitive type and wire bytes
    (value only, excluding the key)."""

    type_name: str
    wire_bytes: int


@dataclass
class ShapeSample:
    """One sampled top-level message shape."""

    encoded_size: int
    fields: list[FieldShape] = field(default_factory=list)
    density: float = 0.0
    max_depth: int = 1

    @property
    def field_bytes(self) -> int:
        return sum(f.wire_bytes for f in self.fields)


class _Choice:
    """``rng.choices(population, weights)[0]`` with the table built once.

    :meth:`random.Random.choices` with ``k=1`` accumulates the weights,
    then returns ``population[bisect(cum, random() * total, 0, hi)]``;
    :meth:`draw` takes exactly those steps on the same floats, so it
    consumes the same random stream and returns the same values.
    """

    __slots__ = ("population", "cum", "total", "hi")

    def __init__(self, population, weights):
        self.population = tuple(population)
        self.cum = list(accumulate(weights))
        self.total = self.cum[-1] + 0.0
        self.hi = len(self.cum) - 1

    def draw(self, rng: random.Random):
        return self.population[
            bisect_right(self.cum, rng.random() * self.total, 0, self.hi)]


class SizeTable:
    """Log-uniform sizes inside share-weighted buckets (sizes are
    scale-free).

    A draw takes one ``random()`` to pick the bucket -- the first whose
    running share exceeds it, else the last -- and one more for
    ``exp(uniform(log(lo), log(hi)))`` unless the bucket holds one size.
    The running shares and the logs are computed once;
    ``uniform(a, b)`` is ``a + (b - a) * random()``, so every draw is
    the float it would be if recomputed.
    """

    __slots__ = ("cum", "ranges")

    def __init__(self, buckets: tuple[SizeBucket, ...]):
        self.cum = list(accumulate(bucket.share for bucket in buckets))
        self.ranges = []
        for bucket in buckets:
            lo = max(bucket.lo, 1)
            hi = bucket.hi if bucket.hi is not None else _OPEN_BUCKET_HI
            if hi <= lo:
                self.ranges.append((lo, 0.0, None))
            else:
                log_lo = math.log(lo)
                self.ranges.append((lo, log_lo, math.log(hi) - log_lo))

    def draw(self, rng: random.Random) -> int:
        ranges = self.ranges
        index = bisect_right(self.cum, rng.random())
        lo, log_lo, span = ranges[index if index < len(ranges) else -1]
        if span is None:
            return lo
        return int(round(math.exp(log_lo + span * rng.random())))


#: Figure 3's top-level message sizes and Figure 4c's bytes-field sizes.
MESSAGE_SIZES = SizeTable(MESSAGE_SIZE_BUCKETS)
BYTES_FIELD_SIZES = SizeTable(BYTES_FIELD_SIZE_BUCKETS)


def _depth_pmf() -> list[tuple[int, float]]:
    """Per-depth probability mass from the paper's byte-CDF anchors."""
    pmf = []
    previous = 0.0
    for depth, cdf in DEPTH_CDF_POINTS:
        pmf.append((depth, cdf - previous))
        previous = cdf
    return pmf


def _field_kinds() -> tuple[object, ...]:
    """Per field type, in :data:`FIELD_COUNT_SHARES` order: the type name
    for a bytes-like type (its size is drawn), the shape for each varint
    size (in :data:`VARINT_SIZE_SHARES` order) for a varint-like type,
    and the one shape of a fixed-width type."""
    kinds: list[object] = []
    for type_name in FIELD_COUNT_SHARES:
        if type_name in _BYTES_LIKE:
            kinds.append(type_name)
        elif type_name in _VARINT_LIKE:
            kinds.append(tuple(FieldShape(type_name, size)
                               for size in VARINT_SIZE_SHARES))
        elif type_name in ("double", "fixed64"):
            kinds.append(FieldShape(type_name, 8))
        else:
            kinds.append(FieldShape(type_name, 4))  # float, fixed32
    return tuple(kinds)


class FleetSampler:
    """Draws synthetic protobufz shape samples."""

    def __init__(self, seed: int = 11):
        self._rng = random.Random(seed)
        self._field_types = _Choice(_field_kinds(),
                                    FIELD_COUNT_SHARES.values())
        #: Draws an index into a varint-like kind's shapes.
        self._varint_sizes = _Choice(range(len(VARINT_SIZE_SHARES)),
                                     VARINT_SIZE_SHARES.values())
        self._density_edges = _Choice(DENSITY_HISTOGRAM,
                                      DENSITY_HISTOGRAM.values())
        depths, weights = zip(*_depth_pmf())
        self._depths = _Choice(depths, weights)

    def sample(self) -> ShapeSample:
        """Draw one top-level message shape."""
        rng = self._rng
        roll = rng.random
        size = MESSAGE_SIZES.draw(rng)
        fields: list[FieldShape] = []
        budget = size
        # The two per-field draws are _Choice.draw, inlined.
        types, varints = self._field_types, self._varint_sizes
        kinds, kind_cum, kind_total, kind_hi = (
            types.population, types.cum, types.total, types.hi)
        varint_cum, varint_total, varint_hi = (
            varints.cum, varints.total, varints.hi)
        bytes_size = BYTES_FIELD_SIZES.draw
        while budget > 0:
            kind = kinds[bisect_right(kind_cum, roll() * kind_total,
                                      0, kind_hi)]
            if kind.__class__ is tuple:  # varint-like: one shape per size
                shape = kind[bisect_right(varint_cum,
                                          roll() * varint_total,
                                          0, varint_hi)]
            elif kind.__class__ is str:  # bytes-like
                shape = FieldShape(kind, min(bytes_size(rng),
                                             max(budget, 1)))
            else:
                shape = kind
            fields.append(shape)
            # Field numbers are overwhelmingly single-byte keys.
            budget -= shape.wire_bytes + 1
            if len(fields) > 4096:
                break
        edge = self._density_edges.draw(rng)
        density = (rng.uniform(0.0, 1 / 64) if edge == 0.0
                   else rng.uniform(edge, min(edge + 0.05, 1.0)))
        return ShapeSample(size, fields, density, self._depths.draw(rng))

    def sample_many(self, count: int) -> list[ShapeSample]:
        return [self.sample() for _ in range(count)]


class SampleAnalysis:
    """Re-derives the paper's Figure 3/4/7 views from raw shape samples."""

    def __init__(self, samples: list[ShapeSample]):
        if not samples:
            raise ValueError("no samples to analyse")
        self.samples = samples

    def message_size_histogram(self) -> dict[str, float]:
        """Figure 3: fraction of messages per size bucket."""
        counts = {bucket.label: 0 for bucket in MESSAGE_SIZE_BUCKETS}
        for sample in self.samples:
            for bucket in MESSAGE_SIZE_BUCKETS:
                if bucket.contains(sample.encoded_size):
                    counts[bucket.label] += 1
                    break
        total = len(self.samples)
        return {label: count / total for label, count in counts.items()}

    def field_count_shares(self) -> dict[str, float]:
        """Figure 4a: fraction of observed fields by type."""
        counts: dict[str, int] = {}
        for sample in self.samples:
            for field_shape in sample.fields:
                counts[field_shape.type_name] = (
                    counts.get(field_shape.type_name, 0) + 1)
        total = sum(counts.values())
        return {name: count / total for name, count in counts.items()}

    def field_bytes_shares(self) -> dict[str, float]:
        """Figure 4b: fraction of message bytes by field type."""
        volumes: dict[str, float] = {}
        for sample in self.samples:
            for field_shape in sample.fields:
                volumes[field_shape.type_name] = (
                    volumes.get(field_shape.type_name, 0)
                    + field_shape.wire_bytes)
        total = sum(volumes.values())
        return {name: volume / total for name, volume in volumes.items()}

    def bytes_like_byte_share(self) -> float:
        """The paper's >92% headline: share of bytes in bytes-like fields."""
        shares = self.field_bytes_shares()
        return sum(shares.get(name, 0.0) for name in _BYTES_LIKE)

    def varint_like_count_share(self) -> float:
        """The paper's >56% headline: share of fields that are varint-like."""
        shares = self.field_count_shares()
        return sum(shares.get(name, 0.0) for name in _VARINT_LIKE)

    def bytes_field_size_histogram(self) -> dict[str, float]:
        """Figure 4c: size distribution of bytes-like fields."""
        counts = {bucket.label: 0 for bucket in BYTES_FIELD_SIZE_BUCKETS}
        total = 0
        for sample in self.samples:
            for field_shape in sample.fields:
                if field_shape.type_name not in _BYTES_LIKE:
                    continue
                total += 1
                for bucket in BYTES_FIELD_SIZE_BUCKETS:
                    if bucket.contains(field_shape.wire_bytes):
                        counts[bucket.label] += 1
                        break
        if total == 0:
            return {label: 0.0 for label in counts}
        return {label: count / total for label, count in counts.items()}

    def density_share_above(self, threshold: float) -> float:
        """Figure 7's comparison: messages with density above threshold."""
        above = sum(1 for s in self.samples if s.density > threshold)
        return above / len(self.samples)

    def byte_share_at_depth(self, depth: int) -> float:
        """Section 3.8: fraction of bytes at sub-message depth <= depth."""
        total = sum(s.encoded_size for s in self.samples)
        covered = sum(s.encoded_size for s in self.samples
                      if s.max_depth <= depth)
        return covered / total if total else 1.0
