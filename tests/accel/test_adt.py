"""Tests for Accelerator Descriptor Tables (Section 4.2)."""

import pytest

from repro.accel.adt import (
    ADT_ENTRY_BYTES,
    ADT_HEADER_BYTES,
    AdtBuilder,
    AdtView,
    adt_size_bytes,
)
from repro.accel.driver import ProtoAccelerator
from repro.faults import FaultPlan
from repro.memory.layout import LayoutCache
from repro.memory.memspace import SimMemory
from repro.proto import parse_schema
from repro.proto.types import FieldType
from repro.soc.config import SoCConfig


@pytest.fixture()
def schema():
    return parse_schema("""
        message Inner { optional int32 a = 1; }
        message M {
          optional int64 x = 3;
          optional string s = 4;
          repeated int32 packed_nums = 6 [packed = true];
          optional sint64 z = 7;
          optional Inner inner = 9;
          repeated Inner kids = 10;
        }
        message Node { optional Node next = 1; optional int32 v = 2; }
    """)


def _build(schema):
    memory = SimMemory()
    cache = LayoutCache()
    builder = AdtBuilder(memory, cache)
    builder.build(schema.messages())
    return memory, cache, builder


class TestHeader:
    def test_header_contents(self, schema):
        memory, cache, builder = _build(schema)
        view = AdtView(memory, builder.adt_address(schema["M"]))
        layout = cache.layout(schema["M"])
        assert view.default_vptr == layout.vptr
        assert view.object_size == layout.object_size
        assert view.hasbits_offset == layout.hasbits_offset
        assert view.min_field_number == 3
        assert view.max_field_number == 10
        assert view.span == 8

    def test_one_adt_per_type_not_instance(self, schema):
        _, _, builder = _build(schema)
        # Building again must not allocate a second table.
        first = builder.adt_address(schema["M"])
        builder.build([schema["M"]])
        assert builder.adt_address(schema["M"]) == first

    def test_size_accounts_for_regions(self, schema):
        size = adt_size_bytes(schema["M"])
        assert size == ADT_HEADER_BYTES + 8 * ADT_ENTRY_BYTES + 8


class TestEntries:
    def test_entry_indexed_by_field_number(self, schema):
        memory, cache, builder = _build(schema)
        view = AdtView(memory, builder.adt_address(schema["M"]))
        entry = view.entry(4)
        assert entry is not None and entry.defined
        assert entry.field_type is FieldType.STRING
        layout = cache.layout(schema["M"])
        assert entry.field_offset == layout.field_offsets[4]

    def test_hole_entries_undefined(self, schema):
        memory, _, builder = _build(schema)
        view = AdtView(memory, builder.adt_address(schema["M"]))
        entry = view.entry(5)
        assert entry is not None and not entry.defined
        entry8 = view.entry(8)
        assert entry8 is not None and not entry8.defined

    def test_out_of_range_is_none(self, schema):
        memory, _, builder = _build(schema)
        view = AdtView(memory, builder.adt_address(schema["M"]))
        assert view.entry(2) is None
        assert view.entry(11) is None

    def test_flags(self, schema):
        memory, _, builder = _build(schema)
        view = AdtView(memory, builder.adt_address(schema["M"]))
        packed = view.entry(6)
        assert packed.repeated and packed.packed
        zigzag = view.entry(7)
        assert zigzag.zigzag and not zigzag.repeated
        sub = view.entry(9)
        assert sub.is_message and not sub.repeated
        kids = view.entry(10)
        assert kids.is_message and kids.repeated

    def test_sub_adt_pointer(self, schema):
        memory, _, builder = _build(schema)
        view = AdtView(memory, builder.adt_address(schema["M"]))
        assert view.entry(9).sub_adt_ptr == \
            builder.adt_address(schema["Inner"])

    def test_recursive_type_points_to_itself(self, schema):
        memory, _, builder = _build(schema)
        addr = builder.adt_address(schema["Node"])
        view = AdtView(memory, addr)
        assert view.entry(1).sub_adt_ptr == addr


class TestIsSubmessageBits:
    def test_bits_set_for_message_fields(self, schema):
        memory, _, builder = _build(schema)
        view = AdtView(memory, builder.adt_address(schema["M"]))
        assert view.is_submessage_bit(9)
        assert view.is_submessage_bit(10)
        assert not view.is_submessage_bit(4)
        assert not view.is_submessage_bit(5)
        assert not view.is_submessage_bit(99)


class TestBuilder:
    def test_reachable_types_built_automatically(self, schema):
        memory = SimMemory()
        builder = AdtBuilder(memory, LayoutCache())
        builder.build([schema["M"]])  # Inner reachable via fields
        assert builder.adt_address(schema["Inner"]) > 0

    def test_unknown_type_raises(self, schema):
        builder = AdtBuilder(SimMemory(), LayoutCache())
        with pytest.raises(KeyError):
            builder.adt_address(schema["M"])

    def test_descriptor_for_reverse_lookup(self, schema):
        _, _, builder = _build(schema)
        addr = builder.adt_address(schema["M"])
        assert builder.descriptor_for(addr) is schema["M"]


def _sample(schema):
    m = schema["M"].new_message()
    m["x"] = -5
    m["s"] = "hello"
    m["packed_nums"].extend([1, 2, 300])
    m["z"] = -7
    m.mutable("inner")["a"] = 11
    m["kids"].add()["a"] = 12
    node = schema["Node"].new_message()
    node["v"] = 1
    node.mutable("next")["v"] = 2
    return [m, node]


def _adt_blocks(accel, schema):
    return {d.full_name: accel.memory.read(accel.adts.adt_address(d),
                                           adt_size_bytes(d))
            for d in schema.messages()}


class TestRegistrationIsTheOnlyWriter:
    @pytest.mark.parametrize("fast_path, transport, plan", [
        ("interp", "rocc", None),
        ("codegen", "rocc", None),
        ("codegen", "pcie", FaultPlan(seed=5, rate=0.5)),
    ], ids=["interp", "codegen", "pcie-faults"])
    def test_operations_leave_every_adt_block_untouched(
            self, schema, fast_path, transport, plan):
        accel = ProtoAccelerator(config=SoCConfig(transport=transport),
                                 faults=plan, fast_path=fast_path)
        accel.register_schema(schema)
        before = _adt_blocks(accel, schema)
        for _ in range(4):
            for message in _sample(schema):
                descriptor = message.descriptor
                data = accel.serialize(descriptor,
                                       accel.load_object(message)).data
                assert data == message.serialize()
                result = accel.deserialize(descriptor, data)
                assert accel.read_message(descriptor,
                                          result.dest_addr) == message
            accel.reset_arenas()
        if plan is not None:
            assert accel.fault_stats.faults_injected > 0
        assert _adt_blocks(accel, schema) == before

    def test_reregistering_writes_nothing(self, schema):
        accel = ProtoAccelerator()
        accel.register_schema(schema)
        writes = accel.memory.stats.writes
        accel.register_schema(schema)
        accel.register_types([schema["M"]])
        assert accel.memory.stats.writes == writes

    def test_unregistered_type_fails_at_serialize(self, schema):
        accel = ProtoAccelerator()
        message = _sample(schema)[0]
        with pytest.raises(KeyError, match="no ADT built for M"):
            accel.serialize(message.descriptor, accel.load_object(message))


class TestAdtLifetime:
    def test_adt_registered_in_a_pure_call_window_survives_it(self):
        first = parse_schema("message A { optional string s = 1; }")
        second = parse_schema("""
            message B { optional int32 v = 1; optional string t = 2; }
        """)
        accel = ProtoAccelerator()
        accel.register_schema(first)
        mark = accel.begin_pure_call()
        accel.register_schema(second)
        accel.end_pure_call(mark)
        # The next window's wire buffer must land above B's ADT, not
        # over it.
        a = first["A"].new_message()
        a["s"] = "q" * 400
        mark = accel.begin_pure_call()
        accel.deserialize(first["A"], a.serialize())
        accel.end_pure_call(mark)
        b = second["B"].new_message()
        b["v"] = 3
        b["t"] = "tee"
        result = accel.deserialize(second["B"], b.serialize())
        assert accel.read_message(second["B"], result.dest_addr) == b
        b_adt = accel.adts.adt_address(second["B"])
        assert accel.memory.heap_top >= b_adt + adt_size_bytes(second["B"])
