"""Parallel benchmark harness.

Figures 11-13 and the Section 5.1.3 sweep all reduce to "run one
workload's batch on the three systems"; this module makes those runs
describable by a small picklable :class:`WorkloadSpec` so they can fan
out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Every result is computed, never replayed from disk: a figure always
reflects the cost models and the code that ran it.  The parallel path
is bit-for-bit equivalent to the serial in-process run because
workload builders take explicit seeds, so a worker process rebuilds
exactly the batch the parent would have (fork-safe, no global RNG).
``tests/bench/test_harness.py`` asserts this.  The in-process memos
(:mod:`repro.memo`: CPU cycles, accelerator batches, codegen kernels,
ADT templates and this module's built workloads) are likewise invisible
in the numbers: a run inside :func:`repro.memo.disabled` gives the same
figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.microbench import build_microbench
from repro.bench.runner import (
    BenchmarkResult,
    Workload,
    run_deserialization,
    run_serialization,
)
from repro.hyperprotobench import build_hyperprotobench
from repro.memo import MISS, Memo


@dataclass(frozen=True)
class HarnessOptions:
    """Process-wide knobs the ``python -m repro.bench`` CLI sets.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan` or ``None``)
    injects faults into every accelerated run; it is picklable, so the
    worker-pool path carries it too.  ``transport`` selects
    the accelerator's attach point (``"rocc"`` or ``"pcie"``); it only
    changes the reported ``transport_cycles``.
    """

    jobs: int = 1
    fault_plan: object = None
    transport: str = "rocc"


_OPTIONS = HarnessOptions()


def _reject_disk_cache(disk_cache: bool) -> None:
    # Callers written while the cache existed pass ``disk_cache=False``;
    # that stays accepted.
    if disk_cache:
        raise ValueError("the on-disk result cache was removed; every "
                         "result is computed (pass disk_cache=False or "
                         "omit it)")


def set_options(jobs: int = 1, disk_cache: bool = False,
                fault_plan=None, transport: str = "rocc") -> None:
    global _OPTIONS
    _reject_disk_cache(disk_cache)
    _OPTIONS = HarnessOptions(jobs=max(1, jobs), fault_plan=fault_plan,
                              transport=transport)


def get_options() -> HarnessOptions:
    return _OPTIONS


#: Built workloads.  Builders are deterministic functions of (kind, name,
#: batch, seed), benchmark code treats the messages as immutable, and the
#: deserialize/serialize specs of one workload share its serialized
#: buffers -- so one build serves every spec that names it.
_WORKLOADS = Memo("workload", 64)


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe for one benchmark run.

    ``kind`` selects the builder family (``"micro"`` for the Figure 11
    protobuf-benchmarks types, ``"hyper"`` for HyperProtoBench);
    ``operation`` is ``"deserialize"`` or ``"serialize"``.
    """

    kind: str
    name: str
    operation: str
    batch: int
    seed: int = 0

    def build(self) -> Workload:
        key = (self.kind, self.name, self.batch, self.seed)
        workload = _WORKLOADS.get(key)
        if workload is not MISS:
            return workload
        if self.kind == "micro":
            workload = build_microbench(self.name, batch=self.batch)
        elif self.kind == "hyper":
            workload = build_hyperprotobench(self.name, seed=self.seed,
                                             batch=self.batch)
        else:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        _WORKLOADS.put(key, workload)
        return workload


_UNSET = object()


def run_spec(spec: WorkloadSpec, verify: bool = True,
             faults=_UNSET, transport: Optional[str] = None
             ) -> BenchmarkResult:
    """Run one spec on the three systems."""
    if faults is _UNSET:
        faults = _OPTIONS.fault_plan
    if transport is None:
        transport = _OPTIONS.transport
    workload = spec.build()
    if spec.operation == "deserialize":
        return run_deserialization(workload, verify=verify, faults=faults,
                                   transport=transport)
    if spec.operation == "serialize":
        return run_serialization(workload, verify=verify, faults=faults,
                                 transport=transport)
    raise ValueError(f"unknown operation {spec.operation!r}")


def _pool_entry(args: tuple) -> BenchmarkResult:
    spec, verify, faults, transport = args
    return run_spec(spec, verify=verify, faults=faults, transport=transport)


def run_many(specs: list[WorkloadSpec], jobs: Optional[int] = None,
             verify: bool = True, disk_cache: bool = False,
             faults=_UNSET,
             transport: Optional[str] = None) -> list[BenchmarkResult]:
    """Run every spec, fanning across processes when ``jobs`` > 1.

    Results come back in spec order regardless of completion order, so
    downstream figure text is identical on every path.
    """
    _reject_disk_cache(disk_cache)
    if jobs is None:
        jobs = _OPTIONS.jobs
    if faults is _UNSET:
        faults = _OPTIONS.fault_plan
    if transport is None:
        transport = _OPTIONS.transport
    if jobs <= 1 or len(specs) <= 1:
        return [run_spec(spec, verify=verify, faults=faults,
                         transport=transport)
                for spec in specs]
    payloads = [(spec, verify, faults, transport) for spec in specs]
    # Shared pool plumbing (repro.bench.pool): every worker runs the
    # common initializer -- harness options installed once, the
    # execution tiers imported, CPU models built -- so tasks never pay a
    # cold start.
    from repro.bench.pool import make_pool
    options = HarnessOptions(jobs=jobs, fault_plan=faults,
                             transport=transport)
    with make_pool(min(jobs, len(specs)), options=options) as pool:
        return list(pool.map(_pool_entry, payloads))
