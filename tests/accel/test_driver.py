"""Tests for the device driver / modified-library API."""

import gc
import weakref

import pytest

from repro.accel.driver import ProtoAccelerator
from repro.faults import FaultPlan
from repro.proto import parse_schema
from repro.soc.config import SoCConfig
from repro.soc.rocc import RoccFunct


@pytest.fixture()
def schema():
    return parse_schema("""
        message M { optional int64 x = 1; optional string s = 2; }
    """)


class TestRoccProtocol:
    def test_arena_assignment_on_construction(self, schema):
        accel = ProtoAccelerator()
        functs = [inst.funct for inst in accel.transport.log]
        assert RoccFunct.DESER_ASSIGN_ARENA in functs
        assert RoccFunct.SER_ASSIGN_ARENA in functs

    def test_deser_issues_info_then_do(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["x"] = 1
        accel.deserialize(schema["M"], m.serialize())
        functs = [inst.funct for inst in accel.transport.log]
        info = functs.index(RoccFunct.DESER_INFO)
        assert functs[info + 1] is RoccFunct.DO_PROTO_DESER

    def test_batch_ends_with_completion_fence(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["x"] = 1
        accel.deserialize_batch(schema["M"], [m.serialize()] * 3)
        assert accel.transport.log[-1].funct is \
            RoccFunct.BLOCK_FOR_DESER_COMPLETION
        assert accel.transport.inflight_deserializations == 0

    def test_ser_instruction_order(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["x"] = 1
        accel.serialize(schema["M"], accel.load_object(m))
        functs = [inst.funct for inst in accel.transport.log]
        info = functs.index(RoccFunct.SER_INFO)
        assert functs[info + 1] is RoccFunct.DO_PROTO_SER


class TestBatching:
    def test_deserialize_batch_returns_all(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        messages = []
        for index in range(5):
            m = schema["M"].new_message()
            m["x"] = index
            messages.append(m)
        addresses, stats = accel.deserialize_batch(
            schema["M"], [m.serialize() for m in messages])
        assert len(addresses) == 5
        for addr, message in zip(addresses, messages):
            assert accel.read_message(schema["M"], addr) == message
        assert stats.wire_bytes == sum(len(m.serialize())
                                       for m in messages)

    def test_serialize_batch_round_trip(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["s"] = "payload"
        outputs, stats = accel.serialize_batch(
            schema["M"], [accel.load_object(m)] * 4)
        assert all(output == m.serialize() for output in outputs)
        assert stats.output_bytes == 4 * len(m.serialize())

    @pytest.mark.parametrize("fast_path", ["interp", "codegen"])
    def test_batch_adt_cache_stats_are_per_operation(self, schema,
                                                     fast_path):
        """A batch reports the lookups it made, not the unit's lifetime
        counters, even after earlier operations on the same device."""
        accel = ProtoAccelerator(fast_path=fast_path)
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["x"] = 7
        m["s"] = "abc"
        wire = m.serialize()
        for _ in range(3):
            accel.deserialize(schema["M"], wire)
        cache = accel.deserializer._adt_cache
        hits, misses = cache.hits, cache.misses
        _, stats = accel.deserialize_batch(schema["M"], [wire] * 4)
        assert stats.adt_cache_hits == cache.hits - hits
        assert stats.adt_cache_misses == cache.misses - misses
        assert stats.adt_cache_hits + stats.adt_cache_misses > 0

    def test_empty_batch_charges_only_the_fence(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        addresses, stats = accel.deserialize_batch(schema["M"], [])
        assert addresses == []
        assert stats.cycles == accel.config.fence_cycles
        outputs, stats = accel.serialize_batch(schema["M"], [])
        assert outputs == []
        assert stats.cycles == accel.config.fence_cycles

    def test_batch_is_per_message_loop_plus_one_fence(self, schema):
        """Section 4.4.1 batching: N info/do pairs, then one fence.  The
        batch total is the per-message cycles of the same calls on an
        identical device, in order, plus the fence."""
        messages = []
        for index in range(6):
            m = schema["M"].new_message()
            m["x"] = 1 << (7 * index)
            m["s"] = "s" * index
            messages.append(m)
        wires = [m.serialize() for m in messages]
        devices = []
        for _ in range(2):
            accel = ProtoAccelerator()
            accel.register_schema(schema)
            devices.append(accel)
        batched, single = devices
        _, stats = batched.deserialize_batch(schema["M"], wires)
        cycles = 0.0
        for wire in wires:
            cycles += single.deserialize(schema["M"], wire).stats.cycles
        assert stats.cycles == cycles + single.config.fence_cycles
        addresses = [batched.load_object(m) for m in messages]
        _, stats = batched.serialize_batch(schema["M"], addresses)
        cycles = 0.0
        for m in messages:
            cycles += single.serialize(
                schema["M"], single.load_object(m)).stats.cycles
        assert stats.cycles == cycles + single.config.fence_cycles


class TestMaintenance:
    def test_reset_arenas_allows_reuse(self, schema):
        accel = ProtoAccelerator(deser_arena_bytes=4096,
                                 ser_arena_bytes=4096)
        accel.register_schema(schema)
        m = schema["M"].new_message()
        m["s"] = "x" * 500
        for _ in range(8):
            accel.deserialize(schema["M"], m.serialize())
            accel.serialize(schema["M"], accel.load_object(m))
            accel.reset_arenas()

    def test_throughput_helper(self, schema):
        accel = ProtoAccelerator()
        assert accel.throughput_gbps(250, 1000) == pytest.approx(4.0)

    @pytest.mark.parametrize("plan", [None, FaultPlan(seed=1, rate=0.5)],
                             ids=["no-plan", "plan"])
    @pytest.mark.parametrize("fast_path", ["codegen", "interp"])
    @pytest.mark.parametrize("transport", ["rocc", "pcie"])
    def test_dead_device_is_freed_by_reference_counting(self, schema,
                                                        transport,
                                                        fast_path, plan):
        """No reference cycle keeps a dropped accelerator (and its
        simulated DRAM) alive until the next garbage collection."""
        gc.disable()
        try:
            accel = ProtoAccelerator(config=SoCConfig(transport=transport),
                                     faults=plan, fast_path=fast_path)
            accel.register_schema(schema)
            m = schema["M"].new_message()
            m["x"] = 7
            m["s"] = "payload"
            for _ in range(4):
                accel.deserialize(schema["M"], m.serialize())
                accel.serialize(schema["M"], accel.load_object(m))
            memory = weakref.ref(accel.memory)
            del accel
            assert memory() is None
        finally:
            gc.enable()
