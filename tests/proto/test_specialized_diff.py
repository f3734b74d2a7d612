"""Differential suite: specialized CPU kernels vs the interpretive path.

``parse_message``/``serialize_message`` run the per-descriptor kernels of
:mod:`repro.proto.specialized` when no trace is attached and the
interpretive decoder/encoder when one is.  The kernels' contract is
observational identity: on valid and adversarially mutated wire, both
paths return equal messages and equal bytes, or raise the same exception
type with the same text.  A type's kernel functions compile only once a
message reaches that type, and then still match the interpretive path.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.proto import parse_schema, specialized
from repro.proto.decoder import parse_message
from repro.proto.descriptor import reachable_types
from repro.proto.encoder import serialize_message
from repro.proto.lazy import Stub
from repro.proto.trace import Trace

from tests.strategies import schema_wire_and_mutant

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as error:  # noqa: BLE001 - the verdict is the point
        return ("err", type(error), str(error))


@_SETTINGS
@given(schema_wire_and_mutant(), st.booleans())
def test_kernels_match_interpretive_path(triple, keep_unknown):
    schema, wire, mutant = triple
    root = schema["Root"]
    for data in (wire, mutant):
        kernel = _outcome(lambda: parse_message(
            root, data, keep_unknown=keep_unknown))
        interp = _outcome(lambda: parse_message(
            root, data, trace=Trace(), keep_unknown=keep_unknown))
        assert kernel == interp
        if kernel[0] != "ok":
            continue
        message = interp[1]
        encoded = _outcome(lambda: serialize_message(
            message, check_required=False))
        traced = _outcome(lambda: serialize_message(
            message, trace=Trace(), check_required=False))
        assert encoded == traced


_LAZY_SCHEMA = """
    message Leaf { optional int32 v = 1; }
    message Spare { optional string note = 1; optional Leaf leaf = 2; }
    message Holder {
      optional int32 a = 1;
      optional Spare spare = 2;
      repeated Leaf leaves = 3;
    }
"""


def test_kernels_compile_a_type_only_once_a_message_reaches_it():
    schema = parse_schema(_LAZY_SCHEMA)
    root = schema["Holder"]
    order = reachable_types(root)[0]
    spare = order[id(schema["Spare"])]
    leaf = order[id(schema["Leaf"])]
    namespace = specialized.parser_for(root).__globals__
    stubs = (f"_p{spare}", f"_sz{spare}", f"_e{spare}")

    def round_trip(message):
        wire = serialize_message(message)
        assert wire == serialize_message(message, trace=Trace())
        parsed = parse_message(root, wire)
        assert parsed == parse_message(root, wire, trace=Trace())
        assert serialize_message(parsed) == wire

    message = root.new_message()
    message["a"] = 7
    message["leaves"].add()["v"] = -3
    round_trip(message)
    for name in stubs:
        assert isinstance(namespace[name], Stub), name
    for name in ("_p0", "_sz0", "_e0", "_encode_entry",
                 f"_p{leaf}", f"_sz{leaf}", f"_e{leaf}"):
        assert not isinstance(namespace[name], Stub), name

    spare_message = message.mutable("spare")
    spare_message["note"] = "reached"
    spare_message.mutable("leaf")["v"] = 9
    round_trip(message)
    for name in stubs:
        assert not isinstance(namespace[name], Stub), name
