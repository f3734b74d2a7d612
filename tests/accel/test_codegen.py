"""Unit tests for the schema-specialized kernel tier (repro.accel.codegen).

Covers the pieces the differential suite does not: the bounded LRU code
cache and its counters, the driver's fast-path validation, the
per-operation tier choice under a fault plan (the bindings stay
installed, an operation with a fault armed runs the interpretive FSM so
its injection site still fires, and an unarmed one runs the kernel),
and lazy compilation: a type's function compiles only once a message
reaches it, and every function either generator emits compiles.  The
reachable-type walk behind the fingerprint and both kernel generators
leaves no reference cycle behind.
"""

import gc
from collections import Counter

import pytest

from repro import memo
from repro.accel import codegen, perf, tiers
from repro.accel.deserializer import DeserTimingParams
from repro.accel.driver import ProtoAccelerator
from repro.faults import FaultPlan, FaultSite
from repro.memory.timing import MemoryTimingModel
from repro.proto import parse_schema
from repro.proto.decoder import parse_message
from repro.proto.descriptor import (
    FieldDescriptor,
    MessageDescriptor,
    reachable_types,
    structural_fingerprint,
)
from repro.proto.lazy import Stub
from repro.soc.config import SoCConfig
from repro.soc.pcie import PcieParams

_SCHEMA = parse_schema("""
    message Inner { optional int64 v = 1; optional string tag = 2; }
    message Probe {
      optional int32 a = 1;
      optional string s = 2;
      optional Inner child = 3;
      repeated int32 packed = 4 [packed = true];
      repeated Inner kids = 5;
      optional sint64 z = 6;
      optional double d = 7;
      optional bytes raw = 8;
    }
""")


def _probe_message():
    message = _SCHEMA["Probe"].new_message()
    message["a"] = 150
    message["s"] = "héllo wörld"
    message["z"] = -7
    message["d"] = 2.5
    message["raw"] = b"\x00\xff\x7f"
    message["packed"] = [3, 270, 86942]
    child = message.mutable("child")
    child["v"] = -(2**40)
    for tag in ("x", "y"):
        kid = message["kids"].add()
        kid["tag"] = tag
    return message


def _accel(**kwargs):
    device = ProtoAccelerator(deser_arena_bytes=1 << 20,
                              ser_arena_bytes=1 << 20, **kwargs)
    device.register_schema(_SCHEMA)
    return device


@pytest.fixture(autouse=True)
def _clean_codegen_state():
    codegen.CODE_CACHE.clear()
    yield
    codegen.CODE_CACHE.clear()


def _code_counters() -> tuple[int, int]:
    return memo.counters()["codegen"]


def test_driver_rejects_unknown_fast_path():
    # "batch" once selected a vectorized tier; it must not be accepted
    # silently now.
    for fast_path in ("vectorized", "batch"):
        with pytest.raises(ValueError, match="fast_path"):
            ProtoAccelerator(fast_path=fast_path)


def test_interp_mode_installs_no_bindings():
    accel = _accel(fast_path="interp")
    assert accel.deserializer.codegen is None
    assert accel.serializer.codegen is None


def test_codegen_mode_installs_bindings_and_matches_software():
    message = _probe_message()
    wire = message.serialize()
    accel = _accel(fast_path="codegen")
    assert accel.deserializer.codegen is not None
    assert accel.serializer.codegen is not None
    result = accel.deserialize(_SCHEMA["Probe"], wire)
    observed = accel.read_message(_SCHEMA["Probe"], result.dest_addr)
    assert observed == parse_message(_SCHEMA["Probe"], wire)
    addr = accel.load_object(message)
    assert accel.serialize(_SCHEMA["Probe"], addr).data == wire


def test_modeled_cycles_bit_identical_across_tiers():
    """The tier only changes host wall-clock; every modeled quantity --
    cycles and the full stats breakdown -- must match the interpreter
    exactly (the ISSUE's cycle-identity acceptance criterion)."""
    message = _probe_message()
    wire = message.serialize()
    by_tier = {}
    for fast_path in ("interp", "codegen"):
        accel = _accel(fast_path=fast_path)
        deser = accel.deserialize(_SCHEMA["Probe"], wire)
        addr = accel.load_object(message)
        ser = accel.serialize(_SCHEMA["Probe"], addr)
        by_tier[fast_path] = (deser.stats, ser.stats, ser.data)
    interp_deser, interp_ser, interp_data = by_tier["interp"]
    codegen_deser, codegen_ser, codegen_data = by_tier["codegen"]
    assert codegen_deser == interp_deser
    assert codegen_ser == interp_ser
    assert codegen_data == interp_data


def test_fault_plan_runs_armed_ops_on_interp_and_the_rest_on_codegen():
    # Over RoCC, memloader.bitflip is a deser-only site: the rate-1.0
    # plan arms every deserialization and never a serialization.
    plan = FaultPlan(seed=1, rate=1.0,
                     sites=(FaultSite.MEMLOADER_BITFLIP,), max_trigger=1)
    accel = _accel(faults=plan, fast_path="codegen")
    assert accel.deserializer.codegen is not None
    assert accel.serializer.codegen is not None
    message = _probe_message()
    wire = message.serialize()
    before = tiers.counters()
    result = accel.deserialize(_SCHEMA["Probe"], wire)
    assert result.stats.faults_injected == 1
    observed = accel.read_message(_SCHEMA["Probe"], result.dest_addr)
    assert observed == message
    addr = accel.load_object(message)
    assert accel.serialize(_SCHEMA["Probe"], addr).data == wire
    after = tiers.counters()
    landed = {op: {tier: after[op][tier] - before[op][tier]
                   for tier in after[op]} for op in after}
    # The armed deserialization and its retry ran the FSM; the unarmed
    # serialization ran its kernel.
    assert landed == {"deser": {"interp": 2, "codegen": 0},
                      "ser": {"interp": 0, "codegen": 1}}


def test_code_cache_hits_across_accelerator_instances():
    wire = _probe_message().serialize()
    first = _accel(fast_path="codegen")
    first.deserialize(_SCHEMA["Probe"], wire)
    _, misses_after_first = _code_counters()
    second = _accel(fast_path="codegen")
    second.deserialize(_SCHEMA["Probe"], wire)
    hits, misses = _code_counters()
    assert hits > 0, "second accelerator should reuse compiled kernels"
    assert misses == misses_after_first
    # The key is the charge schedule: a PCIe device that also differs in
    # every knob no kernel bakes in reuses the RoCC device's kernel.
    pcie = _accel(fast_path="codegen", config=SoCConfig(
        transport="pcie", pcie=PcieParams(ring_depth=512),
        tlb_entries=8, ptw_cycles=120, clock_hz=1.0e9, fence_cycles=20,
        rocc_dispatch_cycles=6))
    pcie.deserializer.params = DeserTimingParams(adt_cache_entries=16)
    pcie.deserialize(_SCHEMA["Probe"], wire)
    assert _code_counters() == (hits + 1, misses)
    # A knob the kernels do bake in compiles a kernel of its own.
    narrow = _accel(fast_path="codegen", config=SoCConfig(
        memory=MemoryTimingModel(bytes_per_beat=8)))
    narrow.deserialize(_SCHEMA["Probe"], wire)
    assert _code_counters()[1] == misses + 1


def test_code_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(codegen.CODE_CACHE, "capacity", 3)
    wire = b"\x08\x01"  # field 1, varint 1
    for number in range(1, 7):
        descriptor = MessageDescriptor(
            f"Solo{number}",
            [FieldDescriptor(name="v", number=number,
                             field_type=_SCHEMA["Probe"]
                             .field_by_name("a").field_type)])
        accel = ProtoAccelerator(deser_arena_bytes=1 << 20,
                                 fast_path="codegen")
        accel.register_types([descriptor])
        accel.deserialize(descriptor, wire if number == 1 else b"")
    _, misses = _code_counters()
    assert len(codegen.CODE_CACHE) == 3
    assert misses >= 6


def test_perf_surface_exposes_codegen_counters():
    _accel(fast_path="codegen").deserialize(
        _SCHEMA["Probe"], _probe_message().serialize())
    counters = perf.memoization_counters()
    assert "codegen" in counters
    hits, misses = counters["codegen"]
    assert misses > 0
    line = perf.render_codegen_line()
    assert "codegen cache" in line and "deser tiers:" in line


# -- lazy compilation ---------------------------------------------------------

_LAZY_SCHEMA = """
    message Leaf { optional int32 v = 1; }
    message Spare { optional string note = 1; optional Leaf leaf = 2; }
    message Holder {
      optional int32 a = 1;
      optional Spare spare = 2;
      repeated Leaf leaves = 3;
    }
"""


def _holder(schema, with_spare: bool):
    message = schema["Holder"].new_message()
    message["a"] = 7
    message["leaves"].add()["v"] = -3
    if with_spare:
        spare = message.mutable("spare")
        spare["note"] = "reached"
        spare.mutable("leaf")["v"] = 9
    return message


def _round_trip(device, schema, message):
    root = schema["Holder"]
    wire = message.serialize()
    deser = device.deserialize(root, wire)
    ser = device.serialize(root, device.load_object(message))
    return (deser.stats, device.read_message(root, deser.dest_addr),
            ser.stats, ser.data)


_WALK_SCHEMA = """
    syntax = "proto2";
    message WalkTree {
      optional int32 v = 1;
      repeated WalkTree kids = 2;
      optional WalkLeaf leaf = 3;
    }
    message WalkLeaf {
      optional string s = 1;
      optional WalkTree back = 2;
    }
"""


def test_type_walks_leave_no_reference_cycles():
    """Fingerprinting a recursive schema and generating both accelerator
    kernels leaves nothing for the garbage collector: no recursive
    closure's function <-> cell cycle."""
    device = ProtoAccelerator()
    root = parse_schema(_WALK_SCHEMA)["WalkTree"]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        structural_fingerprint(root)
        assert codegen.compiled_kernel(
            "deser", root, device.deserializer.schedule) is not None
        assert codegen.compiled_kernel(
            "ser", root, device.serializer.schedule) is not None
        gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert kinds["function"] == 0, kinds
    assert kinds["cell"] == 0, kinds


def test_kernel_compiles_a_type_only_once_a_message_reaches_it():
    schema = parse_schema(_LAZY_SCHEMA)
    root = schema["Holder"]
    order = reachable_types(root)[0]
    spare = order[id(schema["Spare"])]
    leaf = order[id(schema["Leaf"])]
    device = ProtoAccelerator(deser_arena_bytes=1 << 20,
                              ser_arena_bytes=1 << 20, fast_path="codegen")
    device.register_schema(schema)
    reference = ProtoAccelerator(deser_arena_bytes=1 << 20,
                                 ser_arena_bytes=1 << 20, fast_path="interp")
    reference.register_schema(schema)
    deser_ns, _ = codegen.compiled_kernel("deser", root,
                                          device.deserializer.schedule)
    ser_ns, _ = codegen.compiled_kernel("ser", root,
                                        device.serializer.schedule)

    unreached = _holder(schema, with_spare=False)
    assert (_round_trip(device, schema, unreached)
            == _round_trip(reference, schema, unreached))
    assert isinstance(deser_ns[f"_d{spare}"], Stub)
    assert isinstance(ser_ns[f"_s{spare}"], Stub)
    for name in ("_deser_entry", "_d0", f"_d{leaf}"):
        assert not isinstance(deser_ns[name], Stub), name
    for name in ("_ser_entry", "_s0", f"_s{leaf}"):
        assert not isinstance(ser_ns[name], Stub), name

    reached = _holder(schema, with_spare=True)
    assert (_round_trip(device, schema, reached)
            == _round_trip(reference, schema, reached))
    assert not isinstance(deser_ns[f"_d{spare}"], Stub)
    assert not isinstance(ser_ns[f"_s{spare}"], Stub)


def _guard_roots():
    """Every root type a workload or a test compiles kernels for."""
    from repro.hyperprotobench.workload import bench_names, generate_bench
    from repro.serve.replay import FLEET_TEMPLATES
    from repro.serve.workload import SERVING_SCHEMA
    from tests.accel.test_codegen_diff import (
        _FALLBACK_SCHEMA, _PROBE_SCHEMA, _VICTIM_SCHEMA)

    roots = []
    for seed in (0, 3, 8):  # the published inputs, then the churn seeds
        for name in bench_names():
            roots.append(pytest.param(
                generate_bench(name, seed=seed, batch=1).root,
                id=f"{name}@{seed}"))
    schemas = {f"fleet-{name}": parse_schema(proto)
               for name, proto in FLEET_TEMPLATES.items()}
    schemas.update(serving=parse_schema(SERVING_SCHEMA), codegen=_SCHEMA,
                   lazy=parse_schema(_LAZY_SCHEMA), victim=_VICTIM_SCHEMA,
                   probe=_PROBE_SCHEMA, fallback=_FALLBACK_SCHEMA)
    for label, schema in schemas.items():
        for descriptor in schema.messages():
            roots.append(pytest.param(
                descriptor, id=f"{label}:{descriptor.full_name}"))
    return roots


@pytest.mark.parametrize("root", _guard_roots())
def test_every_generated_function_compiles(root):
    """Compiling only reached types would leave an emitter bug in a type
    no test message reaches unseen, so compile every chunk of both
    generators here, each of which must define exactly its own name."""
    device = ProtoAccelerator()
    chunk_lists = {
        "deser": codegen._gen_deser_source(
            root, device.deserializer.schedule)[0],
        "ser": codegen._gen_ser_source(root, device.serializer.schedule)[0],
    }
    for kind, chunks in chunk_lists.items():
        names = [name for name, _ in chunks]
        assert len(set(names)) == len(names), kind
        for name, source in chunks:
            defined: dict = {}
            exec(compile(source, f"<{kind}:{name}>", "exec"), defined)
            assert [key for key in defined if key != "__builtins__"] \
                == [name], (kind, name)
