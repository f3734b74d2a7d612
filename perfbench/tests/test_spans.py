"""Span recording and self-time arithmetic."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
# Tracer.start() reads the program's own counters.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spans  # noqa: E402


def test_self_time_of_a_nested_tree():
    tree = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("a", 11.0, 12.0, -1, 1),
    ]
    totals, counts, top = spans.self_times(tree)
    # a: 10 - (3 + 4) from its first span, plus all of its second.
    assert totals == {"a": 4.0, "b": 6.0, "c": 1.0}
    assert counts == {"a": 2, "b": 2, "c": 1}
    assert top == 11.0


def test_self_times_add_up_to_the_top_level_time():
    tree = [
        ("outer", 0.0, 8.0, -1, 0),
        ("inner", 0.5, 6.5, 0, 0),
        ("leaf", 1.0, 2.0, 1, 0),
        ("leaf", 3.0, 5.0, 1, 0),
    ]
    totals, _, top = spans.self_times(tree)
    assert sum(totals.values()) == top == 8.0


class _Layer:
    def __init__(self, tracer):
        self.inner = tracer.wrap(lambda x: x + 1, "inner")
        self.outer = tracer.wrap(lambda x: self.inner(x) * 2, "outer")
        self.fails = tracer.wrap(self._fail, "fails")

    @staticmethod
    def _fail():
        raise ValueError("boom")


def test_wrapped_calls_record_parents_and_call_ids():
    tracer = spans.Tracer()
    layer = _Layer(tracer)
    assert layer.outer(1) == 4
    assert tracer.spans == []  # nothing recorded before start()
    tracer.start()
    tracer.call = 7
    assert layer.outer(1) == 4
    tracer.call = 8
    with pytest.raises(ValueError):
        layer.fails()
    tracer.stop()
    layer.outer(1)
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("fails", -1, 8)]
    for _, start, end, _, _ in tracer.spans:
        assert end >= start


def test_install_refuses_a_missing_entry_point(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", (
        ("collections", "Counter", "no_such_method", "x", None),))
    with pytest.raises(LookupError, match="no_such_method"):
        spans.install(spans.Tracer())


def test_span_metrics_report_time_outside_every_span():
    tracer = spans.Tracer()
    tracer.spans = [("accel.deser", 1.0, 3.0, -1, 0),
                    ("cpu", 1.5, 2.0, 0, 0)]
    metrics = spans.span_metrics(tracer, wall_s=5.0)
    assert metrics["accel.deser.self_s"] == 1.5
    assert metrics["cpu.self_s"] == 0.5
    assert metrics["accel.deser.calls"] == 1
    assert metrics["trace.other.self_s"] == 3.0
