"""FSM watchdog: a per-operation cycle budget on the accelerator units.

HGum (arXiv:1801.06541) argues the host/accelerator seam needs explicit
flow control; the serving layer additionally needs *bounded* per-call
latency, which software timeouts alone cannot give when the offloaded
FSM itself wedges.  The watchdog is the hardware half of that bound: a
cycle counter armed at ``deser_info``/``ser_info`` that aborts the
deserializer field handler or serializer pipeline when one operation
exceeds ``budget_cycles``.

Two conditions trip it:

* an injected hang (``deser.hang`` / ``ser.hang`` fault sites): the FSM
  stops consuming input and spins; the abort is charged the *full*
  budget -- those cycles really were burned;
* an organic runaway: an operation whose own accounting crosses the
  budget (a misconfigured budget or a pathological input).

Either way the unit raises
:class:`~repro.proto.errors.WatchdogAbort`, a persistent
:class:`~repro.proto.errors.AccelFault`, and the driver's recovery
machinery takes over (CPU fallback, or -- under the serving layer --
failover to another tile).  With no hang injected and a budget above
every operation's cost the watchdog is a pure comparator: fault-free
cycle counts are bit-identical with or without it
(``tests/serve/test_regression.py``).  A budget of ``math.inf`` never
trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Default per-operation budget: bounds a hung FSM to well under a
#: millisecond at 2 GHz.  It is *not* above every valid operation: a
#: 60,000-element repeated int32 field takes ~200k cycles to decode, and
#: HyperProtoBench bench5 (generator seed 18) has a 358 KB message that
#: needs about 150k.  Fault-free benchmark runs (``repro.bench.runner``)
#: therefore arm an unbounded watchdog; serving and fleet runs keep
#: their configured budgets.
DEFAULT_BUDGET_CYCLES = 100_000.0


@dataclass
class FsmWatchdog:
    """Per-operation cycle budget shared by one device's two units."""

    budget_cycles: float = DEFAULT_BUDGET_CYCLES
    #: Total operations this watchdog killed (device lifetime).
    aborts: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.budget_cycles <= 0:
            raise ValueError("watchdog budget must be positive")
