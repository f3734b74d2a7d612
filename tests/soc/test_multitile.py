"""Tests for the multi-tile scaling model."""

import pytest

from repro.soc.multitile import MultiTileModel, TileWorkProfile


@pytest.fixture()
def light_profile():
    # 10% bus utilisation per tile -> saturates at 10 tiles.
    return TileWorkProfile(payload_bytes=1000, cycles=1000.0,
                           bus_beats=100.0)


class TestProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            TileWorkProfile(100, 0.0, 10.0)
        with pytest.raises(ValueError):
            TileWorkProfile(-1, 10.0, 10.0)

    def test_beats_per_cycle(self, light_profile):
        assert light_profile.beats_per_cycle == pytest.approx(0.1)


class TestScaling:
    def test_linear_below_saturation(self, light_profile):
        model = MultiTileModel(light_profile)
        assert model.speedup(1) == 1.0
        assert model.speedup(4) == 4.0
        assert model.speedup(10) == pytest.approx(10.0)

    def test_capped_above_saturation(self, light_profile):
        model = MultiTileModel(light_profile)
        assert model.saturation_tiles() == pytest.approx(10.0)
        assert model.speedup(20) == pytest.approx(10.0)
        assert model.per_tile_efficiency(20) == pytest.approx(0.5)

    def test_wider_bus_raises_cap(self, light_profile):
        narrow = MultiTileModel(light_profile, bus_beats_per_cycle=1.0)
        wide = MultiTileModel(light_profile, bus_beats_per_cycle=2.0)
        assert wide.speedup(20) == pytest.approx(2 * narrow.speedup(20))

    def test_aggregate_gbps(self, light_profile):
        model = MultiTileModel(light_profile)
        # One tile: 1000 B in 500 ns = 16 Gbit/s.
        assert model.aggregate_gbps(1) == pytest.approx(16.0)
        assert model.aggregate_gbps(2) == pytest.approx(32.0)

    def test_zero_traffic_never_saturates(self):
        model = MultiTileModel(TileWorkProfile(100, 100.0, 0.0))
        assert model.saturation_tiles() == float("inf")
        assert model.speedup(64) == 64.0

    def test_invalid_tile_count(self, light_profile):
        with pytest.raises(ValueError):
            MultiTileModel(light_profile).speedup(0)


class TestFromMeasurement:
    def test_integrates_with_accelerator_stats(self):
        from repro.accel.driver import ProtoAccelerator
        from repro.bench.microbench import build_microbench

        def measured_profile(name):
            workload = build_microbench(name, batch=8)
            accel = ProtoAccelerator()
            accel.register_types([workload.descriptor])
            buffers = [m.serialize() for m in workload.messages]
            before = accel.memory.stats.snapshot()
            _, stats = accel.deserialize_batch(workload.descriptor,
                                               buffers)
            moved = (accel.memory.stats.read_bytes - before.read_bytes
                     + accel.memory.stats.written_bytes
                     - before.written_bytes)
            return TileWorkProfile(payload_bytes=stats.wire_bytes,
                                   cycles=stats.cycles,
                                   bus_beats=moved / 16)

        # Small varints are compute-bound: several tiles fit on one bus.
        light = MultiTileModel(measured_profile("varint-5"))
        assert light.saturation_tiles() > 1.5
        assert light.speedup(2) == pytest.approx(2.0)
        # Long strings run at memcpy rate: one tile already consumes the
        # bus, so a second tile cannot double throughput.
        heavy = MultiTileModel(measured_profile("string_long"))
        assert heavy.saturation_tiles() < 2.0
        assert heavy.speedup(2) < 2.0
