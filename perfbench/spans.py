"""Spans recorded from outside the program, around each layer's entry points.

A traced pass wraps the public entry points of every layer (see
``LAYERS``) before the workload sets up.  Each call through a wrapped
entry point records one span ``(name, start, end, parent, call)``:
``parent`` is the index of the enclosing span (-1 at top level) and
``call`` the workload operation the span belongs to (fleet call index,
spec index, figure index).  Spans stay in memory until the pass ends.

A layer's *self time* is the duration of its spans minus the part of
them covered by their child spans.  The pass is single-threaded, so a
span's children never overlap and that part is the sum of their
durations.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: Spans with this parent index are top level.
NO_PARENT = -1


class Tracer:
    """Span recorder for one pass; records between ``start`` and
    ``stop``."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        #: The workload operation the next spans belong to.
        self.call = -1
        #: Counts and sums taken from wrapped calls' results.
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        #: Change in ``program_counters()`` between start and stop.
        self.counters: dict = {}
        self._stack = [NO_PARENT]
        self._counters_at_start: dict = {}

    def start(self) -> None:
        self._counters_at_start = program_counters()
        self.active = True

    def stop(self) -> None:
        if not self.active:
            return
        self.active = False
        before = self._counters_at_start
        self.counters = {key: value - before.get(key, 0)
                         for key, value in program_counters().items()}

    def wrap(self, function, name: str, on_return=None):
        """``function`` with a span named ``name`` around each call made
        while the tracer is active.  ``on_return(tracer, result)`` runs
        after calls that return normally."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            stack = tracer._stack
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.call)
            if on_return is not None:
                on_return(tracer, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tcall\n")
            for name, start, end, parent, call in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{call}\n")


def self_times(spans) -> tuple[dict, Counter, float]:
    """``(self seconds by name, span count by name, top-level seconds)``."""
    covered = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _ in spans:
        if parent == NO_PARENT:
            top += end - start
        else:
            covered[parent] += end - start
    totals: defaultdict = defaultdict(float)
    counts: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
        counts[name] += 1
    return dict(totals), counts, top


# -- counters read at wrapped boundaries ------------------------------------


def _count(key: str):
    def on_return(tracer, result):
        tracer.counts[key] += 1
    return on_return


def _op_cycles(prefix: str):
    """Modeled cycles of one deserialize/serialize call."""
    def on_return(tracer, result):
        tracer.sums[f"accel.{prefix}_cycles"] += result.stats.cycles
        tracer.sums["accel.transport_cycles"] += result.stats.transport_cycles
    return on_return


def _run_spec_faults(tracer, result):
    """Fault counters of the accelerated system in one bench result."""
    accel = result.results.get("riscv-boom-accel")
    if accel is None:
        return
    tracer.sums["faults.injected"] += accel.faults_injected
    tracer.sums["faults.transient_retries"] += accel.transient_retries
    tracer.sums["faults.cpu_fallbacks"] += accel.cpu_fallbacks
    tracer.sums["faults.wasted_accel_cycles"] += accel.wasted_accel_cycles


#: (module, class or None, attribute, span name, on_return) for every
#: wrapped entry point.  Several entry points may share a span name;
#: their self times then add up under that name.
LAYERS = (
    ("repro.serve.fabric", "ServingFabric", "call", "serve.fabric", None),
    ("repro.serve.router", "ConsistentHashRouter", "route", "serve.router",
     None),
    ("repro.serve.server", "ResilientServer", "call", "serve.server", None),
    ("repro.accel.driver", "ProtoAccelerator", "deserialize", "accel.deser",
     _op_cycles("deser")),
    ("repro.accel.driver", "ProtoAccelerator", "serialize", "accel.ser",
     _op_cycles("ser")),
    ("repro.accel.driver", "ProtoAccelerator", "read_message",
     "accel.read_message", None),
    ("repro.accel.driver", "ProtoAccelerator", "load_object",
     "accel.load_object", None),
    ("repro.accel.driver", "ProtoAccelerator", "begin_pure_call",
     "accel.pure_window", None),
    ("repro.accel.driver", "ProtoAccelerator", "end_pure_call",
     "accel.pure_window", None),
    ("repro.accel.driver", "ProtoAccelerator", "deserialize_batch",
     "accel.batch", None),
    ("repro.accel.driver", "ProtoAccelerator", "serialize_batch",
     "accel.batch", None),
    ("repro.accel.codegen", None, "compiled_kernel", "accel.codegen.compile",
     None),
    ("repro.cpu.model", "SoftwareCpu", "deserialize", "cpu",
     _count("cpu.ops")),
    ("repro.cpu.model", "SoftwareCpu", "serialize", "cpu", _count("cpu.ops")),
    ("repro.cpu.model", "SoftwareCpu", "deserialize_batch_cycles", "cpu",
     None),
    ("repro.cpu.model", "SoftwareCpu", "serialize_batch_cycles", "cpu", None),
    ("repro.bench.harness", None, "run_spec", "bench.run_spec",
     _run_spec_faults),
    ("repro.hyperprotobench.workload", None, "generate_bench", "hpb.generate",
     None),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in ``LAYERS`` plus the handlers servers
    register.  An entry point this version of the program lacks raises
    ``LookupError``: its metrics would otherwise read 0, which looks
    like a layer that got infinitely faster."""
    for module_name, class_name, attribute, name, on_return in LAYERS:
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            function = getattr(owner, attribute)
        except (ImportError, AttributeError) as error:
            raise LookupError(
                f"entry point {module_name}.{class_name or ''}.{attribute} "
                f"is not in this program: {error}") from error
        setattr(owner, attribute, tracer.wrap(function, name, on_return))

    from repro.serve.server import ResilientServer
    register = ResilientServer.register

    # Handlers run between deser and ser; the fabric registers every
    # tenant's handler on each shard's server through this method.
    @functools.wraps(register)
    def traced_register(self, method_name, handler, *args, **kwargs):
        return register(self, method_name,
                        tracer.wrap(handler, "serve.handler"),
                        *args, **kwargs)

    ResilientServer.register = traced_register


def program_counters() -> dict:
    """The program's own process-wide counters (execution tiers, memo
    caches, kernel code cache), flattened to per-layer metric names."""
    from repro.accel import perf

    counters = {}
    tiers = perf.tier_counters()
    for tier in ("interp", "codegen", "batch-vector", "batch-scalar"):
        counters[f"accel.tier.{tier.replace('-', '_')}_ops"] = sum(
            runs.get(tier, 0) for runs in tiers.values())
    for cache, (hits, misses) in perf.memoization_counters().items():
        prefix = ("accel.codegen" if cache == "codegen"
                  else f"memo.{cache.replace('-', '_')}")
        counters[f"{prefix}.hits"] = hits
        counters[f"{prefix}.misses"] = misses
    return counters


def span_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass of ``wall_s`` seconds."""
    totals, counts, top = self_times(tracer.spans)
    metrics = {f"{name}.self_s": seconds for name, seconds in totals.items()}
    metrics["accel.codegen.compile_s"] = metrics.pop(
        "accel.codegen.compile.self_s", 0.0)
    for name in ("accel.deser", "accel.ser", "bench.run_spec"):
        metrics[f"{name}.calls"] = counts[name]
    metrics.update(tracer.counts)
    metrics.update(tracer.sums)
    metrics.update(tracer.counters)
    # Pass time outside every span: the workload loop itself and code
    # that calls no wrapped layer (the figure models, for one).
    metrics["trace.other.self_s"] = wall_s - top
    return metrics
