"""Differential tests: every fast path reproduces the serial figures.

The zero-copy wire layer, the cycle/batch memoisation caches, and the
process-pool fan-out must all be invisible in the numbers: cycles and
Gbit/s identical to the last ULP against a serial run with every cache
disabled.
"""

import math

import pytest

from repro.accel.adt import set_adt_caches_enabled
from repro.accel.driver import (
    DESER_BATCH_CACHE,
    SER_BATCH_CACHE,
    set_batch_cache_enabled,
)
from repro.bench.harness import (
    WorkloadSpec,
    get_options,
    run_many,
    run_spec,
    set_options,
)
from repro.bench.runner import SYSTEMS
from repro.cpu.model import (
    DESER_CYCLE_CACHE,
    SER_CYCLE_CACHE,
    set_cycle_cache_enabled,
)


@pytest.fixture
def fresh_caches():
    """Clear every in-process memo cache; restore enablement after."""
    for cache in (DESER_CYCLE_CACHE, SER_CYCLE_CACHE,
                  DESER_BATCH_CACHE, SER_BATCH_CACHE):
        cache.clear()
    yield
    set_cycle_cache_enabled(True)
    set_batch_cache_enabled(True)
    for cache in (DESER_CYCLE_CACHE, SER_CYCLE_CACHE,
                  DESER_BATCH_CACHE, SER_BATCH_CACHE):
        cache.clear()


def _run_uncached(spec):
    set_cycle_cache_enabled(False)
    set_batch_cache_enabled(False)
    set_adt_caches_enabled(False)
    try:
        return run_spec(spec)
    finally:
        set_cycle_cache_enabled(True)
        set_batch_cache_enabled(True)
        set_adt_caches_enabled(True)


def assert_identical(reference, observed):
    assert observed.workload == reference.workload
    assert observed.operation == reference.operation
    for system in SYSTEMS:
        want, got = reference.results[system], observed.results[system]
        assert got.cycles == want.cycles, system
        assert got.gbits_per_second == want.gbits_per_second, system
        assert got.wire_bytes == want.wire_bytes, system
        assert math.ulp(got.gbits_per_second) > 0  # sanity: finite


@pytest.mark.parametrize("spec", [
    WorkloadSpec("micro", "varint-5", "deserialize", 8),
    WorkloadSpec("micro", "string_15", "serialize", 8),
    WorkloadSpec("hyper", "bench0", "deserialize", 2),
])
def test_memo_caches_reproduce_uncached_run(fresh_caches, spec):
    reference = _run_uncached(spec)
    cold = run_spec(spec)   # populates memo caches
    warm = run_spec(spec)   # served from memo caches
    assert_identical(reference, cold)
    assert_identical(reference, warm)
    # The warm run must actually have hit a cache, or this test proves
    # nothing about the replay path.
    hits = (DESER_CYCLE_CACHE.hits + SER_CYCLE_CACHE.hits
            + DESER_BATCH_CACHE.hits + SER_BATCH_CACHE.hits)
    assert hits > 0


def test_parallel_cached_matches_serial_uncached(fresh_caches):
    """The acceptance-criteria differential: one Fig-11 workload run
    serial-uncached vs parallel-with-caches, bit-for-bit equal."""
    specs = [WorkloadSpec("micro", "varint-5", "deserialize", 8),
             WorkloadSpec("micro", "varint-5", "serialize", 8)]
    references = [_run_uncached(spec) for spec in specs]
    observed = run_many(specs, jobs=2)
    for reference, result in zip(references, observed):
        assert_identical(reference, result)


def test_disk_cache_cannot_be_enabled():
    # The on-disk result cache is gone; the keyword survives only so
    # callers passing ``disk_cache=False`` keep working.
    before = get_options()
    with pytest.raises(ValueError, match="removed"):
        set_options(disk_cache=True)
    assert get_options() is before
    with pytest.raises(ValueError, match="removed"):
        run_many([], disk_cache=True)
    assert run_many([], disk_cache=False) == []
