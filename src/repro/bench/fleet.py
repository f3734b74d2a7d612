"""Host-parallel fleet scaling measurement (``scripts/bench_speed.py``).

The fleet sweep proves shard count never changes charging; this module
measures what host parallelism buys on top: the same 1k-message replay
run serially and with one worker process per shard
(:mod:`repro.serve.parallel`), recording

* **byte-identity** -- a sha256 digest over every call's charging
  signature (status, response bytes, accelerator cycles, CPU cycles);
  the parallel digests must equal the serial one exactly, and the
  serial digest is committed in ``BENCH_exact.json`` so CI catches any
  execution mode drifting from the baseline;
* **measured wall-clock speedup** -- serial wall over parallel wall,
  which is physically bounded by the machine's usable cores
  (:func:`repro.bench.pool.effective_cores`); and
* **ideal speedup** (a model, not a measurement) -- per-shard worker
  CPU seconds (reported by each worker, deterministic in shape)
  scheduled LPT onto ``jobs`` machines: the speedup this replay's shard
  balance supports when cores are not the constraint.  On a
  single-core runner the measured figure degenerates to ~1x while the
  model still gates the shard partition (a skewed ring that
  serialises on one shard fails it on any machine).

The scaling replay uses more tenants than the sweep default (48 vs 4):
with 4 tenants the ring parks everything on 2 of 4 shards, and no
amount of host parallelism can beat the biggest shard's share.  At 48
tenants the hottest shard carries ~30% of the work, supporting ~3.3x
ideal at 4 shards.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

from repro.bench.pool import effective_cores
from repro.serve.fabric import FabricPolicy
from repro.serve.parallel import run_parallel_replay
from repro.serve.replay import (
    REPLAY_SERVE_POLICY,
    FleetReplaySpec,
    build_fleet_fabric,
    generate_calls,
    replay_through_fabric,
)

#: Tenant count for the scaling replay (see the module docstring).
SCALING_TENANTS = 48
#: Shard width of the scaling replay; jobs sweep up to this.
SCALING_SHARDS = 4
#: The acceptance floor: ideal speedup at 4 shards / 4 jobs must reach
#: this, and so must measured wall speedup whenever the machine has at
#: least ``jobs`` usable cores.
SCALING_FLOOR = 1.6


def scaling_spec(messages: int = 1_000,
                 base: FleetReplaySpec | None = None) -> FleetReplaySpec:
    """The seeded replay the scaling rows measure."""
    base = base or FleetReplaySpec()
    return replace(base, messages=messages, tenants=SCALING_TENANTS,
                   workload="fleet")


def charging_signature(outcomes) -> list[tuple]:
    """Per-call charging, in offered order -- the byte-identity
    comparand across execution modes."""
    return [(o.status, o.response, o.accel_cycles, o.cpu_cycles)
            for o in outcomes]


def charging_digest(outcomes) -> str:
    """sha256 over the charging signature.  Floats render via ``repr``
    (shortest round-trip form), so equal digests mean bit-equal cycle
    charging call by call."""
    digest = hashlib.sha256()
    for status, response, accel, cpu in charging_signature(outcomes):
        digest.update(status.encode())
        digest.update(b"\x00")
        digest.update(b"-" if response is None else response)
        digest.update(f"\x00{accel!r}\x00{cpu!r}\x01".encode())
    return digest.hexdigest()


def ideal_speedup(busy_seconds, jobs: int) -> float:
    """Speedup an LPT schedule of the per-shard busy times onto
    ``jobs`` machines achieves over running them back to back."""
    work = [b for b in busy_seconds if b > 0]
    if not work or jobs < 1:
        return 1.0
    machines = [0.0] * min(jobs, len(work))
    for chunk in sorted(work, reverse=True):
        machines[machines.index(min(machines))] += chunk
    makespan = max(machines)
    return (sum(work) / makespan) if makespan > 0 else 1.0


def measure_scaling(spec: FleetReplaySpec,
                    shards: int = SCALING_SHARDS,
                    jobs_list=(1, 2, 4),
                    serve=None, budget=None) -> tuple[list[dict], str]:
    """Run the scaling replay at every jobs level.

    Returns ``(rows, serial_digest)``: one row per jobs level (jobs=1
    is the serial fabric, the wall-clock baseline), and the serial
    charging digest every parallel row was checked against.
    """
    serve = serve or REPLAY_SERVE_POLICY
    policy = FabricPolicy(shards=shards, serve=serve)
    calls = generate_calls(spec)
    cores = effective_cores()

    start = time.perf_counter()
    fabric = build_fleet_fabric(policy, spec, budget)
    serial_outcomes = replay_through_fabric(fabric, calls)
    serial_wall = time.perf_counter() - start
    serial_digest = charging_digest(serial_outcomes)

    rows = [{
        "jobs": 1,
        "mode": "serial",
        "shards": shards,
        "messages": spec.messages,
        "tenants": spec.tenants,
        "interarrival_cycles": spec.interarrival_cycles,
        "cores": cores,
        "wall_seconds": serial_wall,
        "speedup": 1.0,
        "busy_seconds": None,
        "ideal_speedup": None,
        "cycles_identical": True,
        "charging_digest": serial_digest,
        "route_deviations": 0,
    }]
    for jobs in jobs_list:
        if jobs <= 1:
            continue
        start = time.perf_counter()
        result = run_parallel_replay(spec, policy, jobs=jobs,
                                     budget=budget, calls=calls)
        wall = time.perf_counter() - start
        digest = charging_digest(result.outcomes)
        rows.append({
            "jobs": jobs,
            "mode": "parallel",
            "shards": shards,
            "messages": spec.messages,
            "tenants": spec.tenants,
            "interarrival_cycles": spec.interarrival_cycles,
            "cores": cores,
            "wall_seconds": wall,
            "speedup": (serial_wall / wall) if wall > 0 else 0.0,
            "busy_seconds": result.busy_seconds,
            "ideal_speedup": ideal_speedup(result.busy_seconds, jobs),
            "cycles_identical": digest == serial_digest,
            "charging_digest": digest,
            "route_deviations": result.route_deviations,
        })
    return rows, serial_digest
