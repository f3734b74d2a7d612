"""One pass of one workload, in a fresh process.

    python3 perfbench/child.py WORKLOAD INPUTS MODE SPAWNED_AT SPANS

``run.py`` starts this script once per pass.  ``SPAWNED_AT`` is the
``time.monotonic()`` reading taken just before the process was started;
set-up time runs from then to the start of the pass, less the time spent
loading the pickled inputs.  ``MODE`` is ``run`` (one untraced pass),
``trace`` (the layers' entry points are wrapped by ``spans.install``
before set-up, and the spans are written to ``SPANS`` after the pass) or
``setup`` (set up, then stop).  The result is printed as one JSON line.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Failure messages a pass reports in full; the count is always exact.
MAX_FAILURE_MESSAGES = 5


def main(argv: list[str]) -> int:
    name, inputs_path, mode, spawned_at, spans_path = argv
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    began = time.monotonic()
    with open(inputs_path, "rb") as handle:
        inputs = pickle.load(handle)
    load_s = time.monotonic() - began

    tracer = spans.Tracer() if mode == "trace" else None
    if tracer is not None:
        spans.install(tracer)
    state = workload.setup(inputs)
    setup_s = time.monotonic() - float(spawned_at) - load_s
    if mode == "setup":
        print(json.dumps({"mode": mode, "setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.start()
    result = workload.run(state, tracer)
    layer = result.get("layer", {})
    if tracer is not None:
        layer.update(spans.span_metrics(tracer, result["wall_s"]))
        tracer.write(spans_path)

    failures = result["failures"]
    print(json.dumps({
        "mode": mode,
        "setup_s": setup_s,
        "load_s": load_s,
        "wall_s": result["wall_s"],
        "op_times": result["op_times"],
        "op_names": result.get("op_names"),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": result["attempted"],
        "messages": result.get("messages"),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "model": result["model"],
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
