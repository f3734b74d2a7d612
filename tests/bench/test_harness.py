"""Differential tests: every fast path reproduces the serial figures.

The zero-copy wire layer, the memos (:mod:`repro.memo`), and the
process-pool fan-out must all be invisible in the numbers: cycles and
Gbit/s identical to the last ULP against a serial run with every memo
disabled.
"""

import math

import pytest

from repro import memo
from repro.bench import runner
from repro.bench.harness import (
    WorkloadSpec,
    get_options,
    run_many,
    run_spec,
    set_options,
)
from repro.bench.runner import SYSTEMS

#: The per-operation memos a spec's run consults: (CPU cycle memo,
#: accelerator batch memo).
_OP_MEMOS = {"deserialize": ("cpu-deser", runner.DESER_BATCH_CACHE),
             "serialize": ("cpu-ser", runner.SER_BATCH_CACHE)}


@pytest.fixture
def fresh_caches():
    """Empty every in-process memo before and after the test."""
    memo.clear_all()
    yield
    memo.clear_all()


def _run_uncached(spec):
    with memo.disabled():
        return run_spec(spec)


def _run_counting_hits(spec):
    """Run ``spec``; return its result and the names of the memos hit."""
    before = memo.counters()
    result = run_spec(spec)
    hit = {name for name, (hits, _) in memo.counters().items()
           if hits > before.get(name, (0, 0))[0]}
    return result, hit


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
    # The switch off bypasses every memo: nothing stored, nothing counted.
    assert set(memo.counters().values()) == {(0, 0)}
    cold = run_spec(spec)   # populates the memos
    warm, warm_hits = _run_counting_hits(spec)
    assert_identical(reference, cold)
    assert_identical(reference, warm)
    # Each memo must actually have been hit, or this test proves nothing
    # about its replay path.
    cpu_memo, batch_memo = _OP_MEMOS[spec.operation]
    for name in ("workload", cpu_memo, batch_memo.name):
        assert name in warm_hits, f"warm run never hit the {name} memo"
    # Without the batch memo the accelerator runs again, on a new device,
    # so the memos behind it must hit too.
    batch_memo.clear()
    rerun, device_hits = _run_counting_hits(spec)
    assert_identical(reference, rerun)
    for name in ("adt-template", "codegen"):
        assert name in device_hits, f"rerun never hit the {name} memo"


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
