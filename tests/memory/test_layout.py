"""Tests for C++ object images: layout, SSO strings, round trips."""

import hashlib

import pytest

from repro.memory.layout import (
    LayoutCache,
    SSO_CAPACITY,
    STRING_OBJECT_BYTES,
    read_message_image,
    read_string_object,
    write_message_image,
)
from repro.memory.memspace import SimMemory
from repro.proto import parse_schema


@pytest.fixture()
def schema():
    return parse_schema("""
        message Inner { optional int32 a = 1; }
        message M {
          optional int64 x = 1;
          optional bool b = 2;
          optional int32 y = 3;
          optional string s = 4;
          optional Inner inner = 5;
          repeated double ds = 6;
          optional int32 sparse = 40;
        }
    """)


class TestLayoutComputation:
    def test_vptr_at_offset_zero_and_hasbits_after(self, schema):
        cache = LayoutCache()
        layout = cache.layout(schema["M"])
        assert layout.hasbits_offset == 8
        assert layout.vptr != 0

    def test_hasbits_sized_by_span(self, schema):
        cache = LayoutCache()
        layout = cache.layout(schema["M"])
        # span 1..40 = 40 bits -> one 64-bit word
        assert layout.hasbits_words == 1

    def test_wide_span_multiple_words(self):
        schema = parse_schema("""
            message W { optional int32 a = 1; optional int32 b = 200; }
        """)
        layout = LayoutCache().layout(schema["W"])
        assert layout.hasbits_words == 4  # span 200 -> ceil(200/64)

    def test_field_slots_aligned(self, schema):
        layout = LayoutCache().layout(schema["M"])
        assert layout.field_offsets[1] % 8 == 0   # int64
        assert layout.field_offsets[4] % 8 == 0   # string pointer
        assert layout.field_offsets[3] % 4 == 0   # int32

    def test_object_size_covers_all_slots(self, schema):
        layout = LayoutCache().layout(schema["M"])
        assert layout.object_size >= max(layout.field_offsets.values()) + 4
        assert layout.object_size % 8 == 0

    def test_hasbit_position_relative_to_min(self):
        schema = parse_schema("""
            message S { optional int32 a = 100; optional int32 b = 103; }
        """)
        layout = LayoutCache().layout(schema["S"])
        assert layout.hasbit_position(100) == (0, 0)
        assert layout.hasbit_position(103) == (0, 3)

    def test_layouts_memoised(self, schema):
        cache = LayoutCache()
        assert cache.layout(schema["M"]) is cache.layout(schema["M"])

    def test_image_plan_shared_across_caches(self, schema):
        # One LayoutCache per accelerator: a fleet has dozens per type.
        first = LayoutCache().layout(schema["M"])
        second = LayoutCache().layout(schema["M"])
        assert first.plan is second.plan
        assert first.field_offsets is second.field_offsets

    def test_distinct_vptrs_per_type(self, schema):
        cache = LayoutCache()
        assert cache.vptr_for(schema["M"]) != cache.vptr_for(schema["Inner"])
        assert cache.type_for_vptr(cache.vptr_for(schema["M"])) is \
            schema["M"]


class TestStringObjects:
    def test_sso_string(self, schema):
        memory = SimMemory()
        cache = LayoutCache()
        m = schema["M"].new_message()
        m["s"] = "short"
        addr = write_message_image(memory, memory.allocate, m, cache)
        layout = cache.layout(schema["M"])
        string_addr = memory.read_u64(addr + layout.field_offsets[4])
        view = read_string_object(memory, string_addr)
        assert view.is_sso
        assert view.payload == b"short"
        assert view.data_ptr == string_addr + 16

    def test_heap_string(self, schema):
        memory = SimMemory()
        cache = LayoutCache()
        m = schema["M"].new_message()
        m["s"] = "x" * (SSO_CAPACITY + 1)
        addr = write_message_image(memory, memory.allocate, m, cache)
        layout = cache.layout(schema["M"])
        view = read_string_object(
            memory, memory.read_u64(addr + layout.field_offsets[4]))
        assert not view.is_sso
        assert view.size == SSO_CAPACITY + 1

    def test_sso_boundary(self, schema):
        memory = SimMemory()
        cache = LayoutCache()
        m = schema["M"].new_message()
        m["s"] = "y" * SSO_CAPACITY
        addr = write_message_image(memory, memory.allocate, m, cache)
        layout = cache.layout(schema["M"])
        view = read_string_object(
            memory, memory.read_u64(addr + layout.field_offsets[4]))
        assert view.is_sso

    def test_string_object_is_32_bytes(self):
        assert STRING_OBJECT_BYTES == 32


class TestImageRoundTrip:
    def test_full_round_trip(self, kitchen_schema, kitchen_message):
        memory = SimMemory()
        cache = LayoutCache()
        addr = write_message_image(memory, memory.allocate,
                                   kitchen_message, cache)
        back = read_message_image(memory, kitchen_schema["Outer"], addr,
                                  cache)
        assert back == kitchen_message

    def test_hasbits_reflect_presence(self, schema):
        memory = SimMemory()
        cache = LayoutCache()
        m = schema["M"].new_message()
        m["b"] = True
        m["sparse"] = 9
        addr = write_message_image(memory, memory.allocate, m, cache)
        layout = cache.layout(schema["M"])
        word = memory.read_u64(addr + layout.hasbits_offset)
        assert word >> (2 - 1) & 1   # field 2, min=1
        assert word >> (40 - 1) & 1
        assert not word >> (1 - 1) & 1

    def test_empty_message_round_trip(self, schema):
        memory = SimMemory()
        cache = LayoutCache()
        m = schema["M"].new_message()
        addr = write_message_image(memory, memory.allocate, m, cache)
        assert read_message_image(memory, schema["M"], addr, cache) == m

    def test_repeated_submessages(self, schema):
        memory = SimMemory()
        cache = LayoutCache()
        m = schema["M"].new_message()
        m["ds"] = [1.0, 2.5, -3.25]
        inner = m.mutable("inner")
        inner["a"] = -1
        addr = write_message_image(memory, memory.allocate, m, cache)
        back = read_message_image(memory, schema["M"], addr, cache)
        assert list(back["ds"]) == [1.0, 2.5, -3.25]
        assert back["inner"]["a"] == -1


# -- pinned images -----------------------------------------------------------
#
# The golden constants below were recorded from the field-at-a-time walks
# that preceded the plan-driven ones.  Each case writes one message into a
# fresh memory with a fresh LayoutCache; a changed byte, allocation order or
# allocation size anywhere in the image moves the sha256 or ``heap_top``,
# and the vptr order pins when each type's layout is first derived.

CORPUS_PROTO = """
enum Color { RED = 0; GREEN = 1; BLUE = 2; }
message Leaf { optional int32 id = 1; optional string note = 2; }
message Scalars {
  optional double d = 1;
  optional float f = 2;
  optional int32 i32 = 3;
  optional int64 i64 = 4;
  optional uint32 u32 = 5;
  optional uint64 u64 = 6;
  optional sint32 s32 = 7;
  optional sint64 s64 = 8;
  optional fixed32 f32 = 9;
  optional fixed64 f64 = 10;
  optional sfixed32 sf32 = 11;
  optional sfixed64 sf64 = 12;
  optional bool flag = 13;
  optional Color color = 14;
}
message Texts {
  optional string s0 = 1;
  optional string s15 = 2;
  optional bytes b16 = 3;
  optional bytes b40 = 4;
  optional string s40 = 5;
  optional bytes b0 = 6;
  repeated string ss = 7;
  repeated bytes bs = 8;
}
message Repeats {
  repeated double d = 1;
  repeated float f = 2;
  repeated int32 i32 = 3;
  repeated int64 i64 = 4;
  repeated uint32 u32 = 5;
  repeated uint64 u64 = 6;
  repeated sint32 s32 = 7;
  repeated sint64 s64 = 8;
  repeated fixed32 f32 = 9;
  repeated fixed64 f64 = 10;
  repeated sfixed32 sf32 = 11;
  repeated sfixed64 sf64 = 12;
  repeated bool flags = 13;
  repeated Color colors = 14;
  repeated int32 empty = 15;
  repeated Leaf leaves = 16;
}
message Tree {
  optional int32 depth = 1;
  optional Tree child = 2;
  repeated Tree kids = 3;
  optional Leaf leaf = 4;
}
message Choice {
  optional int32 before = 1;
  oneof pick { int32 pick_int = 2; string pick_str = 3; Leaf pick_leaf = 4; }
  optional int32 after = 5;
}
message Wide {
  optional int32 lo = 3;
  optional string mid = 70;
  optional bool edge = 131;
  optional Leaf hi = 200;
}
"""


@pytest.fixture(scope="module")
def corpus_schema():
    return parse_schema(CORPUS_PROTO)


def _scalars(schema, sign):
    m = schema["Scalars"].new_message()
    m["d"] = sign * 3.141592653589793
    m["f"] = sign * 1.5
    m["i32"] = sign * (2**31 - 1)
    m["i64"] = sign * (2**63 - 1)
    m["u32"] = 2**32 - 1
    m["u64"] = 2**64 - 1
    m["s32"] = sign * 77
    m["s64"] = sign * 2**40
    m["f32"] = 0xDEADBEEF
    m["f64"] = 2**63 + 5
    m["sf32"] = sign * 12345
    m["sf64"] = sign * 2**50
    m["flag"] = sign < 0
    m["color"] = 2 if sign > 0 else -3
    return m


def _texts(schema):
    m = schema["Texts"].new_message()
    m["s0"] = ""
    m["s15"] = "f" * 15
    m["b16"] = bytes(range(16))
    m["b40"] = bytes(range(200, 240))
    m["s40"] = "é" * 20
    m["b0"] = b""
    m["ss"] = ["", "a" * 15, "b" * 16, "c" * 40]
    m["bs"] = [b"\x00", bytes(40)]
    return m


def _repeats(schema):
    m = schema["Repeats"].new_message()
    m["d"] = [0.0, -1.25, 1e300]
    m["f"] = [0.5, -2.0]
    m["i32"] = [-1, 0, 2**31 - 1]
    m["i64"] = [-(2**63), 7]
    m["u32"] = [2**32 - 1]
    m["u64"] = [2**64 - 1, 0]
    m["s32"] = [-5, 5]
    m["s64"] = [-(2**40)]
    m["f32"] = [1, 2, 3]
    m["f64"] = [2**64 - 2]
    m["sf32"] = [-(2**31)]
    m["sf64"] = [-1, 1]
    m["flags"] = [True, False, True]
    m["colors"] = [0, 1, 2, -7]
    m["empty"] = []
    for index in range(3):
        leaf = m["leaves"].add()
        leaf["id"] = index
        if index:
            leaf["note"] = "n" * (8 * index)
    return m


def _tree(schema):
    root = schema["Tree"].new_message()
    root["depth"] = 0
    node = root
    for depth in range(1, 4):
        node = node.mutable("child")
        node["depth"] = depth
    for index in range(2):
        kid = root["kids"].add()
        kid["depth"] = -index
        kid.mutable("leaf")["note"] = "kid leaf note, heap-allocated"
    root.mutable("leaf")["id"] = 9
    return root


def _choice(schema, member):
    m = schema["Choice"].new_message()
    m["before"] = 1
    m["after"] = 2
    if member == "pick_int":
        m["pick_int"] = -4
    elif member == "pick_str":
        m["pick_str"] = "the chosen one, on the heap"
    else:
        m.mutable("pick_leaf")["id"] = 11
    return m


def _wide(schema):
    m = schema["Wide"].new_message()
    m["lo"] = -1
    m["mid"] = "mid"
    m["edge"] = True
    m.mutable("hi")["note"] = "hi"
    return m


CORPUS = {
    "scalars_positive": lambda s: _scalars(s, 1),
    "scalars_negative": lambda s: _scalars(s, -1),
    "scalars_empty": lambda s: s["Scalars"].new_message(),
    "texts": _texts,
    "repeats": _repeats,
    "tree": _tree,
    "choice_int": lambda s: _choice(s, "pick_int"),
    "choice_str": lambda s: _choice(s, "pick_str"),
    "choice_leaf": lambda s: _choice(s, "pick_leaf"),
    "wide": _wide,
}

#: name -> (sha256 of [first allocation, heap_top), heap_top, vptr order).
GOLDEN_IMAGES = {
    'choice_int': (
        'e9cf6be17e4f3dc8bba57d8cada455e9'
        '098c4e9b763b804869ce7aafddfdc260',
        0x1030, ['Choice']),
    'choice_leaf': (
        'b961288686303155befa5759cb04aea7'
        '5edc2dbea52656ed67b8d6be7e17f461',
        0x1050, ['Choice', 'Leaf']),
    'choice_str': (
        'ccb24ac8def816b8a62c26d63b52caee'
        '225a02f488980be3d44017cc06d38463',
        0x106b, ['Choice']),
    'repeats': (
        '47e83d95c508f324c9b4e69c6ab264ed'
        'a5c30d7238d6f53f4850e170b3cf2648',
        0x1370, ['Repeats', 'Leaf']),
    'scalars_empty': (
        '742454250f9bf83c8a53d031432f623a'
        'd69086f4001a1727665fa896a27638b0',
        0x1070, ['Scalars']),
    'scalars_negative': (
        'e4e83a0292554e4f55b73f02a9ba809d'
        '674437fb6fe9581df55aba431c713bcb',
        0x1070, ['Scalars']),
    'scalars_positive': (
        '6469b207fa5acbc45b67a1c1608aac92'
        'b56b632ee59109f32e6f40dc27f94fb1',
        0x1070, ['Scalars']),
    'texts': (
        'ac77cd5e851713bc3d80d91658ce505b'
        'b74dbe4ebb128a9b2b6f04b4c1ea2155',
        0x12f0, ['Texts']),
    'tree': (
        '50a9250ccae1edfc15a3b2aa0d654e78'
        'bfbb3161a3baa8cac290e1c45220b6ee',
        0x1228, ['Tree', 'Leaf']),
    'wide': (
        'c87c898f8602eb6252559d6843ada8ff'
        '6c08729c9ec85944af0d022b00eed871',
        0x10a8, ['Wide', 'Leaf']),
    '<shared>': (
        'a0867d0539feaaec866467288a20cb6a'
        '811ac946036fb6710f44642b482c4b2c',
        0x1b70,
        ['Choice', 'Leaf', 'Repeats', 'Scalars', 'Texts', 'Tree',
         'Wide']),
}


def _image_record(memory, cache, start):
    digest = hashlib.sha256(
        memory.read(start, memory.heap_top - start)).hexdigest()
    order = [descriptor.name for _, descriptor
             in sorted(cache._type_by_vptr.items())]
    return digest, memory.heap_top, order


def _assert_same_presence(original, back):
    """``back`` marks presence exactly where ``original`` has a value."""
    present = {fd.number for fd in original.descriptor.fields
               if original.has(fd.name)}
    assert back._hasbits == present
    for fd in original.descriptor.fields:
        if fd.message_type is None or fd.number not in present:
            continue
        if fd.is_repeated:
            for ours, theirs in zip(original[fd.name], back[fd.name]):
                _assert_same_presence(ours, theirs)
        else:
            _assert_same_presence(original[fd.name], back[fd.name])


class TestPinnedImages:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_image_bytes_allocations_and_vptrs(self, corpus_schema, name):
        memory = SimMemory()
        cache = LayoutCache()
        start = memory.heap_top
        write_message_image(memory, memory.allocate,
                            CORPUS[name](corpus_schema), cache)
        assert _image_record(memory, cache, start) == GOLDEN_IMAGES[name]

    def test_shared_memory_and_cache(self, corpus_schema):
        memory = SimMemory()
        cache = LayoutCache()
        start = memory.heap_top
        for name in sorted(CORPUS):
            write_message_image(memory, memory.allocate,
                                CORPUS[name](corpus_schema), cache)
        assert _image_record(memory, cache, start) == \
            GOLDEN_IMAGES["<shared>"]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_reads_back_equal(self, corpus_schema, name):
        memory = SimMemory()
        cache = LayoutCache()
        message = CORPUS[name](corpus_schema)
        addr = write_message_image(memory, memory.allocate, message, cache)
        back = read_message_image(memory, message.descriptor, addr, cache)
        assert back == message
        _assert_same_presence(message, back)

    def test_corpus_covers_multi_word_hasbits(self, corpus_schema):
        assert LayoutCache().layout(corpus_schema["Wide"]).hasbits_words == 4


# -- reader edge semantics on hand-written images ----------------------------


def _raw_image(memory, cache, descriptor, slots):
    """Hand-build an object image: ``slots`` maps field number -> raw slot
    bytes; each named field also gets its hasbit."""
    layout = cache.layout(descriptor)
    addr = memory.allocate(layout.object_size, 8)
    memory.fill(addr, layout.object_size, 0)
    memory.write_u64(addr, layout.vptr)
    words = [0] * layout.hasbits_words
    for number, raw in slots.items():
        word, bit = layout.hasbit_position(number)
        words[word] |= 1 << bit
        memory.write(addr + layout.field_offsets[number], raw)
    for index, word in enumerate(words):
        memory.write_u64(addr + layout.hasbits_offset + 8 * index, word)
    return addr


def _raw_string(memory, payload):
    """A std::string object holding ``payload``; returns its pointer bytes."""
    addr = memory.allocate(STRING_OBJECT_BYTES, 8)
    if len(payload) <= SSO_CAPACITY:
        data = addr + 16
    else:
        data = memory.allocate(len(payload), 8)
    memory.write(data, payload)
    memory.write_u64(addr, data)
    memory.write_u64(addr + 8, len(payload))
    return addr.to_bytes(8, "little")


class TestReaderEdgeSemantics:
    def test_two_oneof_hasbits_last_declared_member_wins(self, corpus_schema):
        memory = SimMemory()
        cache = LayoutCache()
        descriptor = corpus_schema["Choice"]
        addr = _raw_image(memory, cache, descriptor, {
            2: (-4).to_bytes(4, "little", signed=True),
            3: _raw_string(memory, b"later"),
        })
        back = read_message_image(memory, descriptor, addr, cache)
        assert back.which_oneof("pick") == "pick_str"
        assert back["pick_str"] == "later"
        assert not back.has("pick_int")
        assert back._hasbits == {3}

    @pytest.mark.parametrize("payload", [b"\xff\xfe", b"ok\xc3(" * 5])
    def test_invalid_utf8_string_decodes_as_latin1(self, corpus_schema,
                                                   payload):
        memory = SimMemory()
        cache = LayoutCache()
        descriptor = corpus_schema["Texts"]
        addr = _raw_image(memory, cache, descriptor,
                          {1: _raw_string(memory, payload)})
        back = read_message_image(memory, descriptor, addr, cache)
        assert back["s0"] == payload.decode("latin-1")

    def test_repeated_hasbit_with_zero_count(self, corpus_schema):
        memory = SimMemory()
        cache = LayoutCache()
        descriptor = corpus_schema["Repeats"]
        header = memory.allocate(24, 8)
        array = memory.allocate(8, 8)
        memory.write_u64(header, array)
        memory.write_u64(header + 8, 0)
        memory.write_u64(header + 16, 0)
        addr = _raw_image(memory, cache, descriptor,
                          {3: header.to_bytes(8, "little")})
        back = read_message_image(memory, descriptor, addr, cache)
        assert not back.has("i32")
        assert list(back["i32"]) == []
        assert back == descriptor.new_message()
        assert back._hasbits == {3}   # the image's hasbit, kept as read

    def test_bool_byte_two_reads_true(self, corpus_schema):
        memory = SimMemory()
        cache = LayoutCache()
        descriptor = corpus_schema["Scalars"]
        addr = _raw_image(memory, cache, descriptor, {13: b"\x02"})
        back = read_message_image(memory, descriptor, addr, cache)
        assert back["flag"] is True

    def test_out_of_bounds_object_raises_index_error(self, corpus_schema):
        memory = SimMemory(size=1 << 16)
        cache = LayoutCache()
        with pytest.raises(IndexError):
            read_message_image(memory, corpus_schema["Scalars"],
                               0x1000 + (1 << 16), cache)

    def test_out_of_bounds_pointer_raises_index_error(self, corpus_schema):
        memory = SimMemory(size=1 << 16)
        cache = LayoutCache()
        descriptor = corpus_schema["Tree"]
        addr = _raw_image(memory, cache, descriptor,
                          {2: (0x1000 + (1 << 20)).to_bytes(8, "little")})
        with pytest.raises(IndexError):
            read_message_image(memory, descriptor, addr, cache)
