"""The host-side memo (repro.memo): LRU bound and order, stored ``None``,
the process-wide switch, and per-name counters."""

import pytest

from repro import memo
from repro.memo import MISS, Memo


@pytest.fixture(autouse=True)
def _private_registry(monkeypatch):
    # Test memos register in a throwaway registry, not the process's.
    monkeypatch.setattr(memo, "_REGISTRY", {})


def test_lru_evicts_least_recently_used_beyond_capacity():
    m = Memo("lru", capacity=2)
    m.put("a", 1)
    m.put("b", 2)
    assert m.get("a") == 1          # "b" is now least recently used
    m.put("c", 3)
    assert len(m) == 2
    assert m.get("b") is MISS
    assert (m.get("a"), m.get("c")) == (1, 3)


def test_put_refreshes_recency():
    m = Memo("refresh", capacity=2)
    m.put("a", 1)
    m.put("b", 2)
    m.put("a", 10)                  # overwrite makes "a" most recent
    m.put("c", 3)
    assert m.get("a") == 10
    assert m.get("b") is MISS


def test_unbounded_memo_never_evicts():
    m = Memo("unbounded")
    for key in range(1000):
        m.put(key, key)
    assert len(m) == 1000


def test_none_is_a_storable_value():
    m = Memo("negative")
    assert m.get("declined") is MISS
    m.put("declined", None)
    assert m.get("declined") is None
    assert (m.hits, m.misses) == (1, 1)


def test_switch_off_bypasses_every_memo():
    first, second = Memo("first"), Memo("second")
    first.put("k", 1)
    with memo.disabled():
        assert first.get("k") is MISS
        second.put("k", 2)
        assert second.get("k") is MISS
    assert len(second) == 0
    # Bypassed lookups are not counted; the stored entry survives.
    assert memo.counters() == {"first": (0, 0), "second": (0, 0)}
    assert first.get("k") == 1


def test_disabled_restores_the_switch_on_error():
    with pytest.raises(RuntimeError):
        with memo.disabled():
            raise RuntimeError
    assert memo.ENABLED


def test_counters_are_per_name_and_clear_all_resets_them():
    cycles, kernels = Memo("cycles"), Memo("kernels", capacity=4)
    cycles.put("op", 1.5)
    cycles.get("op")
    cycles.get("op")
    kernels.get("schema")
    assert memo.counters() == {"cycles": (2, 0), "kernels": (0, 1)}
    memo.clear_all()
    assert memo.counters() == {"cycles": (0, 0), "kernels": (0, 0)}
    assert cycles.get("op") is MISS


def test_names_are_unique():
    Memo("dup")
    with pytest.raises(ValueError, match="dup"):
        Memo("dup")
