"""Host-side memoisation: one bounded-LRU class, one registry, one switch.

The simulator memoises pure functions so figures regenerate quickly:
per-operation CPU cycles, per-batch accelerator stats, compiled codegen
kernels, built workloads and compiled ADT templates.  Each value is a
function of its key alone, so a hit returns exactly what recomputation
would -- memos change host wall-clock, never a modeled number (see
docs/PERF.md).

Every such layer is a :class:`Memo`.  Memos register here by name,
report through :func:`counters`, and obey one process-wide switch:
inside :func:`disabled` every :meth:`Memo.get` misses and every
:meth:`Memo.put` stores nothing (the counters do not move).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Optional

#: What :meth:`Memo.get` returns on a miss (``None`` is a storable value).
MISS = object()

#: The process-wide switch.  Read it as ``memo.ENABLED`` (never import
#: the name, which would copy it); change it only through :func:`disabled`.
ENABLED = True

_REGISTRY: dict[str, "Memo"] = {}


class Memo:
    """A named LRU memo holding at most ``capacity`` entries.

    ``capacity=None`` never evicts; use it only where a run produces few
    distinct keys (one per schema, config or verified batch).
    """

    def __init__(self, name: str, capacity: Optional[int] = None):
        if name in _REGISTRY:
            raise ValueError(f"a memo named {name!r} already exists")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        _REGISTRY[name] = self

    def get(self, key):
        """The value stored under ``key``, or :data:`MISS`."""
        if not ENABLED:
            return MISS
        value = self._entries.get(key, MISS)
        if value is MISS:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        if not ENABLED:
            return
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if self.capacity is not None and len(entries) > self.capacity:
            entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


@contextmanager
def disabled() -> Iterator[None]:
    """Bypass every memo for the duration of the block."""
    global ENABLED
    previous, ENABLED = ENABLED, False
    try:
        yield
    finally:
        ENABLED = previous


def counters() -> dict[str, tuple[int, int]]:
    """``{name: (hits, misses)}`` for every memo."""
    return {name: (m.hits, m.misses) for name, m in _REGISTRY.items()}


def clear_all() -> None:
    """Empty every memo and zero its counters."""
    for m in _REGISTRY.values():
        m.clear()
