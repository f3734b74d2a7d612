"""A dropped schema frees without a garbage collection.

A schema owns its message descriptors, and each descriptor carries what
is derived from it and stored on it: its structural fingerprint and its
object-image plan.  None of these may point back at the schema, or
every parsed schema -- the fleet replays parse one per tenant -- would
be a reference cycle that waits for the collector.  With the collector
off and every collected object saved, parsing, using and dropping the
fleet templates must leave nothing behind.
"""

import gc

from repro.memory.layout import LayoutCache
from repro.proto import parse_schema
from repro.proto.decoder import parse_message
from repro.proto.descriptor import structural_fingerprint
from repro.proto.encoder import serialize_message
from repro.serve.replay import FLEET_TEMPLATES


def _use_templates() -> int:
    """Parse every fleet template and put each of its types through a
    fingerprint, an image plan and an empty round trip; returns the
    number of types used.  Its own frame, so that everything it made is
    dropped when it returns."""
    used = 0
    for proto in FLEET_TEMPLATES.values():
        schema = parse_schema(proto)
        layouts = LayoutCache()
        for descriptor in schema.messages():
            structural_fingerprint(descriptor)
            layouts.layout(descriptor)
            wire = serialize_message(descriptor.new_message())
            assert parse_message(descriptor, wire) == descriptor.new_message()
            used += 1
    return used


def test_dropped_fleet_schemas_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert _use_templates() == 2 * len(FLEET_TEMPLATES)
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == [], sorted(set(garbage))
