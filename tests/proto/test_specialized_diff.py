"""Differential suite: specialized CPU kernels vs the interpretive path.

``parse_message``/``serialize_message`` run the per-descriptor kernels of
:mod:`repro.proto.specialized` when no trace is attached and the
interpretive decoder/encoder when one is.  The kernels' contract is
observational identity: on valid and adversarially mutated wire, both
paths return equal messages and equal bytes, or raise the same exception
type with the same text.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.proto.decoder import parse_message
from repro.proto.encoder import serialize_message
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
