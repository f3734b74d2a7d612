"""CLI: regenerate the paper's figures without pytest.

Every run computes its results; nothing is replayed from disk, so the
output always reflects the current cost models.

Usage::

    python -m repro.bench                      # list available figures
    python -m repro.bench fig11a               # regenerate one
    python -m repro.bench all                  # regenerate everything
    python -m repro.bench all --jobs 4         # fan workloads across 4
                                               # worker processes
    python -m repro.bench faults               # fault degradation curve
    python -m repro.bench fig11a --fault-rate 0.01
                                               # inject per-message faults
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import set_options
from repro.faults import FaultPlan


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.")
    parser.add_argument(
        "figures", nargs="*", metavar="figure",
        help="figure names (or 'all'); run with none to list them")
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for benchmark workloads (default 1)")
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="per-message fault-injection probability for accelerated "
             "runs (default 0: faults disabled)")
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault-injection RNG seed (default 0)")
    args = parser.parse_args(argv)
    if not args.figures:
        parser.print_usage()
        print("available figures:", ", ".join(ALL_FIGURES))
        return 1
    targets = (list(ALL_FIGURES) if args.figures == ["all"]
               else args.figures)
    plan = (FaultPlan(seed=args.fault_seed, rate=args.fault_rate)
            if args.fault_rate > 0 else None)
    # run_many reads these options and the shared pool initializer
    # (repro.bench.pool.warm_worker) installs them in every worker
    # process.
    set_options(jobs=args.jobs, fault_plan=plan)
    for target in targets:
        generator = ALL_FIGURES.get(target)
        if generator is None:
            print(f"unknown figure {target!r}; available: "
                  + ", ".join(ALL_FIGURES))
            return 1
        print(f"=== {target} ===")
        print(generator())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
