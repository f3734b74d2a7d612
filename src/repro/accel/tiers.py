"""Process-wide execution-tier run counters.

Every deserialize/serialize call lands on exactly one tier: the
interpretive FSM (``interp``) or a schema-specialized kernel
(``codegen``).  The units bump these so tier selection is observable
through :func:`repro.accel.perf.render_codegen_line`; nothing in the
cycle model reads them.

This module is deliberately dependency-free -- the FSM units cannot
import codegen (layering), yet both tiers need to report here.
"""

from __future__ import annotations

_OPS = ("deser", "ser")
_TIERS = ("interp", "codegen")

_runs: dict[str, dict[str, int]] = {
    op: {tier: 0 for tier in _TIERS} for op in _OPS
}


def note(op: str, tier: str) -> None:
    """Record one message processed by ``tier`` for ``op``."""
    _runs[op][tier] += 1


def counters() -> dict[str, dict[str, int]]:
    """A snapshot copy of the per-op, per-tier run counts."""
    return {op: dict(tiers) for op, tiers in _runs.items()}


def reset() -> None:
    """Zero every counter (tests and fresh perf collections)."""
    for tiers in _runs.values():
        for tier in tiers:
            tiers[tier] = 0
