"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

One injector is attached to one accelerator device.  The driver brackets
each offloaded operation with :meth:`FaultInjector.begin_operation` /
:meth:`~FaultInjector.end_operation`; each *attempt* (the initial run and
every retry) is announced via :meth:`~FaultInjector.begin_attempt`, which
also binds the attempt's stats object so fired faults carry an accurate
cycle stamp.  Units call :meth:`~FaultInjector.poll` at their named sites;
when the armed fault's site and trigger count match, the poll raises
:class:`~repro.proto.errors.AccelFault`.

Determinism: all randomness comes from one ``random.Random(plan.seed)``
stream advanced only in ``begin_operation``, so a fixed plan over a fixed
operation sequence always injects the same faults -- the property the
harness cache and the recovery tests rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.plan import (
    FaultPlan,
    FaultSite,
    IMMEDIATE_SITES,
    TRANSIENT_SITES,
)
from repro.proto.errors import AccelFault


@dataclass
class InjectedFault:
    """Log record of one fired fault."""

    op_index: int
    site: FaultSite
    transient: bool
    cycle: float
    attempt: int


class _Armed:
    """The (at most one) fault armed for the current operation."""

    __slots__ = ("site", "transient", "trigger", "remaining", "polls")

    def __init__(self, site: FaultSite, transient: bool, trigger: int,
                 remaining: int):
        self.site = site
        self.transient = transient
        self.trigger = trigger            # fire on the Nth poll of the site
        self.remaining = remaining        # firings left; -1 = every attempt
        self.polls = 0


class FaultInjector:
    """Seeded executor of one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._armed: _Armed | None = None
        self._stats = None
        self._op_index = -1
        self._attempt = 0
        self.injected = 0
        self.operations = 0
        self.log: list[InjectedFault] = []

    # -- operation bracketing ---------------------------------------------------

    def begin_operation(self, kind: str) -> None:
        """Draw this operation's fault (or none).  ``kind`` is ``"deser"``
        or ``"ser"``."""
        self._op_index += 1
        self._attempt = 0
        self._armed = None
        self._stats = None
        self.operations += 1
        # Always consume the same number of main-stream draws per
        # operation (one roll, plus one child seed when armed) so the
        # stream stays aligned regardless of which sites are planned;
        # site and trigger come from a child RNG.
        roll = self._rng.random()
        sites = self.plan.sites_for(kind)
        armed = roll < self.plan.rate
        if not armed:
            return
        pick = random.Random(self._rng.getrandbits(64))
        if not sites:
            return
        site = sites[pick.randrange(len(sites))]
        transient = site in TRANSIENT_SITES
        trigger = (1 if site in IMMEDIATE_SITES
                   else pick.randint(1, self.plan.max_trigger))
        remaining = self.plan.transient_duration if transient else -1
        self._armed = _Armed(site, transient, trigger, remaining)

    def begin_attempt(self, stats) -> None:
        """A new attempt of the current operation starts; bind its stats
        object so fired faults carry the attempt's cycle count."""
        self._attempt += 1
        self._stats = stats
        if self._armed is not None:
            self._armed.polls = 0

    def end_operation(self) -> None:
        self._armed = None
        self._stats = None

    @property
    def armed(self) -> bool:
        """True while the current operation has a fault armed.  Only such
        an operation can fire at a poll site; every other one polls into
        an immediate return, so the units may run it on a kernel that
        has no poll sites at all."""
        return self._armed is not None

    # -- the injection points ---------------------------------------------------

    def poll(self, site: FaultSite) -> None:
        """Called by a unit at a named site; raises when the armed fault
        fires here."""
        armed = self._armed
        if armed is None or armed.site is not site:
            return
        armed.polls += 1
        if armed.polls != armed.trigger or armed.remaining == 0:
            return
        if armed.remaining > 0:
            armed.remaining -= 1
        cycle = float(self._stats.cycles) if self._stats is not None else 0.0
        self.injected += 1
        self.log.append(InjectedFault(self._op_index, site, armed.transient,
                                      cycle, self._attempt))
        raise AccelFault(
            f"injected {'transient' if armed.transient else 'persistent'} "
            f"fault at {site.value} (cycle {cycle:.0f})",
            site=site.value, cycle=cycle, transient=armed.transient,
            injected=True)
