"""Parallel benchmark harness with a persistent on-disk result cache.

Figures 11-13 and the Section 5.1.3 sweep all reduce to "run one
workload's batch on the three systems"; this module makes those runs
(a) describable by a small picklable :class:`WorkloadSpec` so they can
fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`, and
(b) memoisable across *processes* via JSON result files under
``results/.cache/``.

Both paths are bit-for-bit equivalent to the serial in-process run:

* Workload builders take explicit seeds, so a worker process rebuilds
  exactly the batch the parent would have (fork-safe, no global RNG).
* Disk-cache keys cover everything the result depends on -- the spec,
  the operation, the message type's structural fingerprint, a digest of
  the exact wire buffers, and the cost-model fingerprints of all three
  systems -- and JSON round-trips floats exactly (``repr`` shortest
  form), so a replayed :class:`SystemResult` equals the computed one to
  the last ULP.  ``tests/bench/test_harness.py`` asserts this.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.accel.driver import BatchCycleCache, buffers_digest
from repro.bench.microbench import build_microbench
from repro.bench.runner import (
    BenchmarkResult,
    SystemResult,
    Workload,
    run_deserialization,
    run_serialization,
)
from repro.cpu.boom import boom_cpu
from repro.cpu.xeon import xeon_cpu
from repro.hyperprotobench import build_hyperprotobench
from repro.proto.descriptor import structural_fingerprint
from repro.soc.config import SoCConfig

#: Bump when the cost models or result schema change in ways the key
#: fingerprints cannot see; stale disk entries then miss naturally.
CACHE_VERSION = 1

#: Default persistent result-cache directory (override per call or with
#: the REPRO_BENCH_CACHE environment variable).
DEFAULT_CACHE_DIR = Path("results") / ".cache"


@dataclass(frozen=True)
class HarnessOptions:
    """Process-wide knobs the ``python -m repro.bench`` CLI sets.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan` or ``None``)
    injects faults into every accelerated run; it is picklable, so the
    worker-pool path carries it too.  ``transport`` selects
    the accelerator's attach point (``"rocc"`` or ``"pcie"``); it only
    changes the reported ``transport_cycles``, and joins cache keys
    only when non-default so existing cache entries stay valid.
    """

    jobs: int = 1
    disk_cache: bool = True
    fault_plan: object = None
    transport: str = "rocc"


_OPTIONS = HarnessOptions()


def set_options(jobs: int = 1, disk_cache: bool = True,
                fault_plan=None, transport: str = "rocc") -> None:
    global _OPTIONS
    _OPTIONS = HarnessOptions(jobs=max(1, jobs), disk_cache=disk_cache,
                              fault_plan=fault_plan, transport=transport)


def get_options() -> HarnessOptions:
    return _OPTIONS


#: In-process workload-construction cache.  Builders are deterministic
#: functions of (kind, name, batch, seed), benchmark code treats the
#: messages as immutable, and the deserialize/serialize specs of one
#: workload share its serialized buffers -- so one build serves every
#: spec that names it.
_WORKLOAD_CACHE: dict[tuple, Workload] = {}
_WORKLOAD_CACHE_LIMIT = 64
_WORKLOAD_CACHE_ENABLED = True


def set_workload_cache_enabled(enabled: bool) -> None:
    global _WORKLOAD_CACHE_ENABLED
    _WORKLOAD_CACHE_ENABLED = bool(enabled)
    if not enabled:
        _WORKLOAD_CACHE.clear()


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
        if _WORKLOAD_CACHE_ENABLED:
            workload = _WORKLOAD_CACHE.get(key)
            if workload is not None:
                return workload
        if self.kind == "micro":
            workload = build_microbench(self.name, batch=self.batch)
        elif self.kind == "hyper":
            workload = build_hyperprotobench(self.name, seed=self.seed,
                                             batch=self.batch)
        else:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if _WORKLOAD_CACHE_ENABLED:
            if len(_WORKLOAD_CACHE) >= _WORKLOAD_CACHE_LIMIT:
                _WORKLOAD_CACHE.clear()
            _WORKLOAD_CACHE[key] = workload
        return workload


def _system_fingerprint() -> str:
    """Fingerprint of every cost model a benchmark result depends on."""
    return "|".join((
        repr(boom_cpu().params),
        repr(xeon_cpu().params),
        BatchCycleCache.config_fingerprint(SoCConfig()),
    ))


def cache_key(spec: WorkloadSpec, workload: Workload,
              faults=None, transport: str = "rocc") -> str:
    """Content-addressed key: spec + schema hash + buffers + configs.

    A fault plan's fingerprint joins the material only when injection is
    active, and the transport name only when non-default (the same
    keep-the-default-key-stable rule; RoCC results are unchanged by the
    transport subsystem, so they must not re-key).
    """
    parts = [
        f"v{CACHE_VERSION}",
        spec.kind, spec.name, spec.operation,
        str(spec.batch), str(spec.seed),
        structural_fingerprint(workload.descriptor),
        buffers_digest(workload.wire_buffers()).hex(),
        _system_fingerprint(),
    ]
    if faults is not None and faults.enabled():
        parts.append(faults.fingerprint())
    if transport != "rocc":
        parts.append(f"transport:{transport}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _result_to_json(result: BenchmarkResult) -> dict:
    return {
        "workload": result.workload,
        "operation": result.operation,
        "results": {system: dataclasses.asdict(sr)
                    for system, sr in result.results.items()},
    }


def _result_from_json(payload: dict) -> BenchmarkResult:
    result = BenchmarkResult(payload["workload"], payload["operation"])
    for system, fields in payload["results"].items():
        result.results[system] = SystemResult(**fields)
    return result


def _cache_dir(cache_dir: Optional[Path]) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    return Path(os.environ.get("REPRO_BENCH_CACHE", DEFAULT_CACHE_DIR))


def load_cached(key: str, cache_dir: Optional[Path] = None
                ) -> Optional[BenchmarkResult]:
    path = _cache_dir(cache_dir) / f"{key}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            return _result_from_json(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store_cached(key: str, result: BenchmarkResult,
                 cache_dir: Optional[Path] = None) -> None:
    directory = _cache_dir(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.json"
    # Atomic publish: concurrent writers computing the same key write
    # identical bytes, so last-rename-wins is harmless.  mkstemp (not a
    # pid-suffixed name) keeps the scratch file unique even when two
    # threads of one process -- or a recycled pid -- race on the key.
    fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp",
                               dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_result_to_json(result), indent=0))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_UNSET = object()


def run_spec(spec: WorkloadSpec, verify: bool = True,
             disk_cache: Optional[bool] = None,
             cache_dir: Optional[Path] = None,
             faults=_UNSET, transport: Optional[str] = None
             ) -> BenchmarkResult:
    """Run one spec, consulting/feeding the persistent result cache."""
    if disk_cache is None:
        disk_cache = _OPTIONS.disk_cache
    if faults is _UNSET:
        faults = _OPTIONS.fault_plan
    if transport is None:
        transport = _OPTIONS.transport
    workload = spec.build()
    key = (cache_key(spec, workload, faults=faults, transport=transport)
           if disk_cache else None)
    if key is not None:
        cached = load_cached(key, cache_dir)
        if cached is not None:
            return cached
    if spec.operation == "deserialize":
        result = run_deserialization(workload, verify=verify, faults=faults,
                                     transport=transport)
    elif spec.operation == "serialize":
        result = run_serialization(workload, verify=verify, faults=faults,
                                   transport=transport)
    else:
        raise ValueError(f"unknown operation {spec.operation!r}")
    if key is not None and verify:
        store_cached(key, result, cache_dir)
    return result


def _pool_entry(args: tuple) -> BenchmarkResult:
    spec, verify, disk_cache, cache_dir, faults, transport = args
    return run_spec(spec, verify=verify, disk_cache=disk_cache,
                    cache_dir=cache_dir, faults=faults, transport=transport)


def run_many(specs: list[WorkloadSpec], jobs: Optional[int] = None,
             verify: bool = True, disk_cache: Optional[bool] = None,
             cache_dir: Optional[Path] = None,
             faults=_UNSET,
             transport: Optional[str] = None) -> list[BenchmarkResult]:
    """Run every spec, fanning across processes when ``jobs`` > 1.

    Results come back in spec order regardless of completion order, so
    downstream figure text is identical on every path.
    """
    if jobs is None:
        jobs = _OPTIONS.jobs
    if disk_cache is None:
        disk_cache = _OPTIONS.disk_cache
    if faults is _UNSET:
        faults = _OPTIONS.fault_plan
    if transport is None:
        transport = _OPTIONS.transport
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
    if jobs <= 1 or len(specs) <= 1:
        return [run_spec(spec, verify=verify, disk_cache=disk_cache,
                         cache_dir=cache_dir, faults=faults,
                         transport=transport)
                for spec in specs]
    payloads = [(spec, verify, disk_cache, cache_dir, faults, transport)
                for spec in specs]
    # Shared pool plumbing (repro.bench.pool): every worker runs the
    # common initializer -- harness options installed once, the
    # execution tiers imported, CPU models built -- so tasks never pay a
    # cold start.
    from repro.bench.pool import make_pool
    options = HarnessOptions(jobs=jobs, disk_cache=disk_cache,
                             fault_plan=faults, transport=transport)
    with make_pool(min(jobs, len(specs)), options=options) as pool:
        return list(pool.map(_pool_entry, payloads))
