"""Shared process-pool plumbing for every host-parallel path.

Three callers fan work across processes -- the benchmark harness
(:func:`repro.bench.harness.run_many`), the ``python -m repro.bench``
CLI, and the fleet's host-parallel shard execution
(:mod:`repro.serve.parallel`).  Before this module each grew its own
``ProcessPoolExecutor`` wiring; now they share one entry point so

* every worker runs the same :func:`warm_worker` initializer
  (execution-tier module imports, software-CPU model construction)
  instead of cold-starting on its first task, and
* the harness's process-wide :class:`~repro.bench.harness.
  HarnessOptions` are installed in each worker exactly once, at pool
  construction, rather than smuggled through every task payload.

Pools are cheap to keep alive: the module-global caches the workers
warm (the codegen ``CODE_CACHE``, the memoization caches, parsed-schema
state) live per process, so a pool reused across many fleet replay
points amortises its warm-up across all of them.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional


def effective_cores() -> int:
    """CPUs this process may actually schedule on (affinity-aware).

    Wall-clock speedup from host parallelism is physically bounded by
    this number; the fleet scaling gate uses it to decide whether a
    measured-speedup floor is meaningful on the current machine.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def warm_worker(options=None, extra: Optional[Callable[[], None]] = None
                ) -> None:
    """Process-pool initializer: install harness options and pre-warm.

    Runs once per worker process.  The warm-up covers the imports and
    model singletons every benchmark or fleet task would otherwise pay
    on its first call -- the codegen execution tier and the software
    CPU models -- so per-task latency measures the task, not the cold
    start.  ``extra`` is an optional picklable callable for
    caller-specific warm-up (e.g. the fleet replay pre-parses its
    schema templates).
    """
    if options is not None:
        from repro.bench import harness
        harness._OPTIONS = options
    import repro.accel.codegen  # noqa: F401
    from repro.cpu.boom import boom_cpu
    from repro.cpu.xeon import xeon_cpu
    boom_cpu()
    xeon_cpu()
    if extra is not None:
        extra()


def make_pool(jobs: int, options=None,
              warm: Optional[Callable[[], None]] = None
              ) -> ProcessPoolExecutor:
    """A worker pool with the shared initializer installed.

    ``options`` (a :class:`~repro.bench.harness.HarnessOptions`) is
    installed as the workers' process-wide harness options; ``warm`` is
    forwarded to :func:`warm_worker` as the caller-specific extra.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return ProcessPoolExecutor(max_workers=jobs,
                               initializer=warm_worker,
                               initargs=(options, warm))
