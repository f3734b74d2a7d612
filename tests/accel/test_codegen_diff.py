"""Differential suite: codegen kernels vs interpretive FSM vs software.

The specialized tier's contract is total behavioural equivalence -- on
arbitrary valid messages, on adversarially mutated wire, and on the
PR 2 known-bad vector corpus, the two accelerator tiers must produce
identical messages, identical modeled stats (cycles included), and
identical structured errors -- under the default device and under
variants of the knobs the ablations sweep.  Explicit wire cases cover
every branch of the kernels' shared cold path for unexpected keys, on
failure down to the cycle stamp and the state left behind.  A final set
runs fault injection with ``fast_path="codegen"``: every named site
still fires (an operation with a fault armed runs the interpretive FSM,
the next unarmed one a kernel), and a dense seeded plan over every site
gives results identical to an all-interp device on both attach points.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro import memo
from repro.accel import perf, tiers
from repro.accel.deserializer import DeserTimingParams
from repro.accel.driver import ProtoAccelerator
from repro.accel.serializer import SerTimingParams
from repro.faults import FaultPlan, FaultSite, TRANSIENT_SITES
from repro.faults.injector import FaultInjector
from repro.faults.plan import PCIE_SITES
from repro.memory.timing import MemoryTimingModel
from repro.proto import parse_schema
from repro.soc.config import SoCConfig
from repro.proto.decoder import parse_message
from repro.proto.errors import DecodeError

from tests.strategies import schema_and_message, schema_wire_and_mutant

_SETTINGS = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


#: Device setups both tiers must agree under: (SoC config, deserializer
#: params, serializer params).  Besides the defaults, two variants move
#: the knobs the kernels bake in: bus beat width, a shallow context stack
#: with an odd spill cost, packed-varint decode width, FSU count, and
#: non-integer (non-dyadic) FSM costs, so a charge added in a different
#: order or rounded differently on one tier shows up.
_SETUPS = {
    "default": (SoCConfig(), DeserTimingParams(), SerTimingParams()),
    "narrow-beat": (
        SoCConfig(memory=MemoryTimingModel(bytes_per_beat=8),
                  context_stack_depth=1, stack_spill_cycles=7,
                  field_serializer_units=3),
        DeserTimingParams(parse_key=1.1, typeinfo_hit=0.7,
                          string_setup=2.3, submsg_setup=3.3,
                          repeated_open=1.7, repeated_close=0.9,
                          dispatch_overhead=11.5,
                          packed_varints_per_cycle=3.0),
        SerTimingParams(frontend_per_field=1.3, fsu_encode=0.7,
                        frontend_submsg_push=2.1, pipeline_fill=1.9)),
    "wide-beat": (
        SoCConfig(memory=MemoryTimingModel(bytes_per_beat=32),
                  context_stack_depth=2, stack_spill_cycles=13,
                  field_serializer_units=7),
        DeserTimingParams(scalar_write=1.3, skip_field=0.6,
                          message_finish=1.9,
                          packed_varints_per_cycle=0.7),
        SerTimingParams(frontend_init=2.7, frontend_submsg_pop=1.1,
                        fsu_encode=1.3, dispatch_overhead=3.3)),
}


def _accel_pair(schema, setup="default"):
    config, deser_params, ser_params = _SETUPS[setup]
    pair = []
    for fast_path in ("interp", "codegen"):
        device = ProtoAccelerator(config=config,
                                  deser_arena_bytes=1 << 20,
                                  ser_arena_bytes=1 << 20,
                                  fast_path=fast_path)
        # Set after construction, the way benchmarks/bench_ablation.py
        # varies them.
        device.deserializer.params = deser_params
        device.serializer.params = ser_params
        device.register_schema(schema)
        pair.append(device)
    return pair


@pytest.mark.parametrize("setup", _SETUPS)
@_SETTINGS
@given(schema_and_message())
def test_valid_messages_identical_across_tiers(setup, pair):
    schema, message = pair
    from repro.proto.encoder import serialize_message
    wire = serialize_message(message, check_required=False)
    interp, codegen = _accel_pair(schema, setup)
    interp_result = interp.deserialize(schema["Root"], wire)
    codegen_result = codegen.deserialize(schema["Root"], wire)
    assert codegen_result.stats == interp_result.stats
    interp_msg = interp.read_message(schema["Root"],
                                     interp_result.dest_addr)
    codegen_msg = codegen.read_message(schema["Root"],
                                       codegen_result.dest_addr)
    assert codegen_msg == interp_msg
    assert codegen_msg == parse_message(schema["Root"], wire)

    interp_addr = interp.load_object(message)
    codegen_addr = codegen.load_object(message)
    interp_ser = interp.serialize(schema["Root"], interp_addr)
    codegen_ser = codegen.serialize(schema["Root"], codegen_addr)
    assert codegen_ser.data == interp_ser.data == wire
    assert codegen_ser.stats == interp_ser.stats


@pytest.mark.parametrize("setup", _SETUPS)
@_SETTINGS
@given(schema_wire_and_mutant())
def test_mutated_wire_verdicts_identical(setup, triple):
    """Both tiers accept or both reject -- and on rejection the error
    type, message text, and fault site all match."""
    schema, _, mutant = triple
    interp, codegen = _accel_pair(schema, setup)
    outcomes = []
    for device in (interp, codegen):
        try:
            result = device.deserialize(schema["Root"], mutant)
            outcomes.append(("ok", result.stats,
                             device.read_message(schema["Root"],
                                                 result.dest_addr)))
        except DecodeError as error:
            outcomes.append(("err", type(error), str(error),
                             getattr(error, "site", None)))
    assert outcomes[0] == outcomes[1]


# -- PR 2 known-bad vector corpus --------------------------------------------

_VICTIM_SCHEMA = parse_schema("""
    message Inner {
      optional int32 a = 1;
      optional Inner child = 3;
    }
    message Victim {
      optional int32 a = 1;
      optional string s = 2;
      optional Inner child = 3;
      repeated int32 packed = 4 [packed = true];
      optional fixed32 fx = 5;
    }
""")
_VICTIM_SCHEMA["Victim"].field_by_name("s").validate_utf8 = True

_VECTORS_DIR = Path(__file__).parent.parent / "proto" / "vectors"


def _load_bad_vectors():
    vectors = []
    for path in sorted(_VECTORS_DIR.glob("*.hex")):
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, hexbytes = line.partition(":")
            vectors.append(pytest.param(
                bytes.fromhex(hexbytes.strip()),
                id=f"{path.stem}/{name.strip()}"))
    assert vectors, f"no vectors found under {_VECTORS_DIR}"
    return vectors


@pytest.mark.parametrize("data", _load_bad_vectors())
def test_known_bad_vectors_rejected_identically(data):
    interp, codegen = _accel_pair(_VICTIM_SCHEMA)
    rejections = []
    for device in (interp, codegen):
        with pytest.raises(DecodeError) as excinfo:
            device.deserialize(_VICTIM_SCHEMA["Victim"], data)
        rejections.append(excinfo.value)
    interp_error, codegen_error = rejections
    assert type(codegen_error) is type(interp_error)
    assert str(codegen_error) == str(interp_error)
    assert codegen_error.site == interp_error.site
    assert codegen_error.cycle == interp_error.cycle
    assert not codegen_error.injected


# -- the kernels' shared cold path --------------------------------------------

#: Field numbers 2..10 with holes at 5 and 8; 1 and 11+ are out of range.
_FALLBACK_SCHEMA = parse_schema("""
    message Sub { optional int32 v = 1; }
    message Empty { }
    message Gappy {
      optional int32 a = 2;
      repeated string names = 3;
      optional Sub sub = 4;
      repeated int32 nums = 6;
      repeated Sub subs = 7;
      optional fixed64 f = 9;
      optional Empty none = 10;
    }
""")

_NUM = "3001"      # nums = 1: opens field 6's repeated region
_NAME = "1a0178"   # names = "x": opens field 3's repeated region
_FIXED64 = "00" * 8
_FIXED32 = "00" * 4

#: Keys no branch of a type's kernel function expects, each after a valid
#: prefix so an open repeated region gets closed or reopened first.
_FALLBACK_CASES = {
    # A wrong wire type on a defined field.
    "scalar-wrong-wire": "1002" + _NUM + "11" + _FIXED64,
    "fixed-wrong-wire": _NAME + "4801",
    "repeated-scalar-wrong-wire-opens": _NAME + "35" + _FIXED32,
    "repeated-scalar-wrong-wire-reopens": _NUM + _NAME + "35" + _FIXED32,
    "repeated-scalar-wrong-wire-same-region": _NUM + "35" + _FIXED32,
    "repeated-string-wrong-wire": _NUM + "1801",
    "repeated-message-wrong-wire": _NAME + "3801",
    "submessage-wrong-wire": _NUM + "2001",
    "nested-wrong-wire": _NUM + "22050d" + _FIXED32,
    # In-range holes, every wire type.
    "hole-varint": _NUM + "2801" + "4096 01",
    "hole-fixed64": _NAME + "29" + _FIXED64,
    "hole-length-delimited": "2a02abcd" + _NUM,
    "hole-fixed32": "2d" + _FIXED32 + _NAME,
    "hole-start-group": _NUM + "2b",
    "hole-end-group": "2c",
    "hole-truncated-varint": _NUM + "28",
    "hole-truncated-fixed64": "29" + "00" * 3,
    "hole-truncated-fixed32": _NAME + "2d00",
    "hole-truncated-length": "2a05ab",
    # Out-of-range unknowns, every wire type, below and above the range.
    "below-varint": "0801" + _NUM,
    "below-fixed64": "09" + _FIXED64,
    "below-length-delimited": _NAME + "0a01ff",
    "below-fixed32": "0d" + _FIXED32,
    "below-start-group": "0b",
    "above-varint": _NUM + "6001",
    "above-fixed64": "61" + _FIXED64 + _NAME,
    "above-length-delimited": "6202abcd",
    "above-fixed32": "65" + _FIXED32,
    "above-end-group": _NUM + "64",
    "above-two-byte-key": "c03e01" + _NUM,
    "empty-type-unknown": "52020801" + _NUM,
    "nested-unknown": "220310" + "9601",
    # Invalid keys.
    "invalid-wire-type-6": _NUM + "0e",
    "invalid-wire-type-7": "0f00",
    "invalid-wire-type-defined-number": "16",
    "invalid-field-number": _NAME + "0001",
    "empty-type-invalid-wire-type": "52010f",
}

#: A valid message run after each case, so state the case left behind
#: (arena fill, ADT entry cache) shows up in its stats.
_FOLLOW_UP = bytes.fromhex(_NUM + _NAME + "22020801" + "3a020802" + "1005")


@pytest.mark.parametrize("setup", _SETUPS)
@pytest.mark.parametrize("hexdata", _FALLBACK_CASES.values(),
                         ids=_FALLBACK_CASES.keys())
def test_fallback_paths_identical_across_tiers(setup, hexdata):
    """Success or failure, both tiers leave the same verdict, cycle
    stamp, varint-unit and ADT-cache counters and arena fill, and a
    valid message decoded next gets the same stats."""
    root = _FALLBACK_SCHEMA["Gappy"]
    data = bytes.fromhex(hexdata.replace(" ", ""))
    outcomes = []
    for device in _accel_pair(_FALLBACK_SCHEMA, setup):
        unit = device.deserializer
        before = tiers.counters()
        try:
            result = device.deserialize(root, data)
            verdict = ("ok", result.stats,
                       device.read_message(root, result.dest_addr))
        except DecodeError as error:
            verdict = ("err", type(error), str(error), error.site,
                       error.cycle)
        landed = _tier_delta(before, "deser")
        state = (unit.varint_unit.decodes, unit.varint_unit.zigzag_ops,
                 unit._adt_cache.hits, unit._adt_cache.misses,
                 unit._arena.bytes_used)
        after = device.deserialize(root, _FOLLOW_UP)
        outcomes.append((landed, verdict, state, after.stats,
                         device.read_message(root, after.dest_addr)))
    (interp_landed, *interp), (codegen_landed, *codegen) = outcomes
    assert interp_landed == {"interp": 1, "codegen": 0}
    assert codegen_landed == {"interp": 0, "codegen": 1}
    assert codegen == interp


# -- fault-plan interaction ---------------------------------------------------

_PROBE_SCHEMA = parse_schema("""
    message Inner { optional int32 v = 1; optional string tag = 2; }
    message Probe {
      optional int32 a = 1;
      optional string s = 2;
      optional Inner child = 3;
      repeated int32 packed = 4 [packed = true];
      repeated Inner kids = 5;
      optional sint64 z = 6;
      optional double d = 7;
    }
""")
# utf8.corrupt only fires inside the validator, which only runs on
# strings with proto3-style validation enabled.
_PROBE_SCHEMA["Probe"].field_by_name("s").validate_utf8 = True

_DESER_SITES = [s for s in FaultSite
                if s not in (FaultSite.SER_ABORT, FaultSite.SER_HANG)]
_SER_SITES = [FaultSite.SER_ABORT, FaultSite.SER_HANG]


def _probe_message():
    message = _PROBE_SCHEMA["Probe"].new_message()
    message["a"] = 150
    message["s"] = "héllo wörld"
    message["z"] = -7
    message["d"] = 2.5
    message["packed"] = [3, 270, 86942]
    message.mutable("child")["v"] = 99
    for tag in ("x", "y"):
        message["kids"].add()["tag"] = tag
    return message


def _plan_arming_first_only(site, kind):
    """A plan on ``site`` that arms the first of two ``kind`` operations
    and not the second (found by replaying its injector)."""
    for seed in range(100):
        plan = FaultPlan(seed=seed, rate=0.5, sites=(site,), max_trigger=1)
        injector = FaultInjector(plan)
        armed = []
        for _ in range(2):
            injector.begin_operation(kind)
            armed.append(injector.armed)
            injector.end_operation()
        if armed == [True, False]:
            return plan
    raise AssertionError(f"no seed arms only the first {kind} op")


def _fault_accel(site, base):
    """A codegen device whose plan arms its first ``base`` operation
    ("deser"/"ser") with ``site`` and leaves the second unarmed."""
    # The transport's own sites are only reachable over PCIe (the RoCC
    # path draws from the historical site set, bit-identically).
    transport = "pcie" if site in PCIE_SITES else "rocc"
    kind = base if transport == "rocc" else f"pcie.{base}"
    device = ProtoAccelerator(config=SoCConfig(transport=transport),
                              deser_arena_bytes=1 << 20,
                              ser_arena_bytes=1 << 20,
                              faults=_plan_arming_first_only(site, kind),
                              fast_path="codegen")
    device.register_schema(_PROBE_SCHEMA)
    assert device.deserializer.codegen is not None
    assert device.serializer.codegen is not None
    return device


def _tier_delta(before, op):
    after = tiers.counters()[op]
    return {tier: after[tier] - before[op][tier] for tier in after}


@pytest.mark.parametrize("site", _DESER_SITES,
                         ids=[s.value for s in _DESER_SITES])
def test_every_deser_fault_site_fires_despite_codegen(site):
    """Installed kernels must not shadow a single injection site: the
    operation with a fault armed runs the interpretive FSM, and the
    next, unarmed one on the same device runs its kernel."""
    accel = _fault_accel(site, "deser")
    message = _probe_message()
    wire = message.serialize()
    before = tiers.counters()
    result = accel.deserialize(_PROBE_SCHEMA["Probe"], wire)
    assert result.stats.faults_injected == 1
    if site in TRANSIENT_SITES:
        assert result.stats.fault_retries == 1
    else:
        assert result.stats.cpu_fallbacks == 1
    observed = accel.read_message(_PROBE_SCHEMA["Probe"], result.dest_addr)
    assert observed == message
    armed = _tier_delta(before, "deser")
    assert armed["interp"] >= 1 and armed["codegen"] == 0

    before = tiers.counters()
    result = accel.deserialize(_PROBE_SCHEMA["Probe"], wire)
    assert result.stats.faults_injected == 0
    assert accel.read_message(_PROBE_SCHEMA["Probe"],
                              result.dest_addr) == message
    assert _tier_delta(before, "deser") == {"interp": 0, "codegen": 1}


@pytest.mark.parametrize("site", _SER_SITES,
                         ids=[s.value for s in _SER_SITES])
def test_every_ser_fault_site_fires_despite_codegen(site):
    accel = _fault_accel(site, "ser")
    message = _probe_message()
    addr = accel.load_object(message)
    before = tiers.counters()
    result = accel.serialize(_PROBE_SCHEMA["Probe"], addr)
    assert result.stats.faults_injected == 1
    assert result.data == message.serialize()
    armed = _tier_delta(before, "ser")
    assert armed["interp"] >= 1 and armed["codegen"] == 0

    before = tiers.counters()
    result = accel.serialize(_PROBE_SCHEMA["Probe"], addr)
    assert result.stats.faults_injected == 0
    assert result.data == message.serialize()
    assert _tier_delta(before, "ser") == {"interp": 0, "codegen": 1}


#: ``PerfReport`` fields that count host-simulator traffic through
#: ``SimMemory``: the FSMs re-read what a kernel bakes in, so these
#: legitimately differ by tier.  Every other field is modeled.
_HOST_TRAFFIC_FIELDS = {"memory_read_bytes": 0, "memory_written_bytes": 0}

_INJECTION_ROUND_TRIPS = 200


def _injection_messages():
    """Varied probe messages, so armed faults land at different depths."""
    messages = []
    for index in range(_INJECTION_ROUND_TRIPS):
        message = _probe_message()
        message["a"] = index * 7919 - 50_000
        message["s"] = "héllo wörld"[:index % 12]
        message["packed"] = [index * k for k in range(index % 5)]
        for tag in range(index % 3):
            message["kids"].add()["v"] = tag - index
        messages.append(message)
    return messages


def _injected_run(transport, fast_path, messages):
    device = ProtoAccelerator(config=SoCConfig(transport=transport),
                              deser_arena_bytes=1 << 20,
                              ser_arena_bytes=1 << 20,
                              faults=FaultPlan(seed=3, rate=0.3),
                              fast_path=fast_path)
    device.register_schema(_PROBE_SCHEMA)
    probe = _PROBE_SCHEMA["Probe"]
    before = tiers.counters()
    ops = []
    for message in messages:
        deser = device.deserialize(probe, message.serialize())
        decoded = device.read_message(probe, deser.dest_addr)
        ser = device.serialize(probe, device.load_object(message))
        ops.append((deser.stats, decoded, ser.stats, ser.data))
    landed = {op: _tier_delta(before, op) for op in ("deser", "ser")}
    report = dataclasses.replace(perf.collect(device),
                                 **_HOST_TRAFFIC_FIELDS)
    return (ops, device.faults.log, device.fault_stats,
            device.watchdog.aborts, report), landed


@pytest.mark.parametrize("transport", ["rocc", "pcie"])
def test_tiers_identical_under_seeded_fault_injection(transport):
    """A dense seeded plan over every site: the codegen device runs
    unarmed operations on kernels and armed ones on the FSM, and must
    reproduce the all-interp device's stats, objects, wire bytes, fault
    log, recovery counters, watchdog aborts and modeled perf counters."""
    messages = _injection_messages()
    interp, interp_landed = _injected_run(transport, "interp", messages)
    codegen, codegen_landed = _injected_run(transport, "codegen", messages)
    for index, (expected, observed) in enumerate(zip(interp[0],
                                                     codegen[0])):
        assert observed == expected, f"round trip {index} diverged"
        assert observed[1] == messages[index]
        assert observed[3] == messages[index].serialize()
    assert codegen[1], "the plan injected no faults"
    assert codegen[1:] == interp[1:]
    for op in ("deser", "ser"):
        assert interp_landed[op]["codegen"] == 0
        assert codegen_landed[op]["interp"] > 0
        assert codegen_landed[op]["codegen"] > 0


# -- benchmark-suite cycle identity ------------------------------------------

def test_bench_results_identical_across_tiers():
    """Figure-level regression: a sample of the Fig-11 microbenchmarks
    produces byte-identical BenchmarkResults on both tiers (gbps, cycles,
    wire bytes), with the memos disabled so both actually run."""
    from repro.bench.microbench import build_microbench
    from repro.bench.runner import run_deserialization, run_serialization

    with memo.disabled():
        for name in ("varint-3", "string_15", "double-R", "string-SUB"):
            workload = build_microbench(name, batch=4)
            for run in (run_deserialization, run_serialization):
                interp_result = run(workload, fast_path="interp")
                codegen_result = run(workload, fast_path="codegen")
                assert codegen_result == interp_result, (
                    f"{name}: {run.__name__} diverged across tiers")
