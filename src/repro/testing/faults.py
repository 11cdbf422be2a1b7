"""Seeded, deterministic fault injection for resilience drills.

A :class:`FaultPlan` names the sites faults may fire at and how often;
a :class:`FaultInjector` executes the plan. Scheduling is **counter
based** — site ``s`` fires on every ``period``-th call after ``phase``
initial calls — so the faults injected are a pure function of the
work done (each site counts its own calls). Seeded construction (:meth:`FaultPlan.seeded`) derives the
periods and phases from one integer, printable alongside a failing
scenario for exact reproduction.

Two fault families, matching the seams the core modules expose; both
model events that happen in a running system (LRU eviction, a
re-ANALYZE):

* **cache eviction mid-solve** — :meth:`FaultInjector.arm_cache` hangs
  the injector on a cache's ``fault_hook``; when the site fires, the
  cache's ``invalidate()`` runs *inside* a lookup, so the solve
  continues against a cold cache from that point on
  (:class:`~repro.core.param_cache.ParameterCache` and
  :class:`~repro.core.frontier_cache.FrontierCache` expose the hook);
* **statistics bumps between sweep steps** — :meth:`between_steps`
  re-ANALYZEs the database when the ``"sweep.step"`` site fires,
  changing ``Database.stats_token`` so the next validation flushes
  every token-tagged cache.

Faults only ever remove memoized state — never corrupt data — so a
correct system returns bit-identical payloads under any plan; the
drills assert exactly that.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["FaultInjector", "FaultPlan", "SITES"]

# Every site the core modules pulse, in the order seeded plans draw
# them. A plan may name any subset.
SITES = (
    "param_cache.price",
    "param_cache.walk",
    "frontier_cache.lookup",
    "sweep.step",
    "frontier_cache.memo",
)


@dataclass(frozen=True)
class FaultPlan:
    """Which sites fire, and on which calls.

    ``periods`` maps a site name to its firing period N (fire on every
    N-th call at that site); ``phases`` optionally delays the first
    firing by that many calls. Sites absent from ``periods`` never
    fire.
    """

    periods: Dict[str, int] = field(default_factory=dict)
    phases: Dict[str, int] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for site, period in self.periods.items():
            if period < 1:
                raise ValueError("period for %r must be >= 1, got %r" % (site, period))
        for site, phase in self.phases.items():
            if phase < 0:
                raise ValueError("phase for %r must be >= 0, got %r" % (site, phase))

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Tuple[str, ...] = SITES,
        max_period: int = 5,
        max_phase: int = 3,
    ) -> "FaultPlan":
        """A reproducible plan: periods/phases drawn from one seed.

        The same seed always produces the same plan, so a failing drill
        reports just the integer.
        """
        rng = random.Random(seed)
        periods = {site: rng.randint(1, max_period) for site in sites}
        phases = {site: rng.randint(0, max_phase) for site in sites}
        return cls(periods=periods, phases=phases, seed=seed)

    @classmethod
    def quiet(cls) -> "FaultPlan":
        """A plan under which no site ever fires."""
        return cls()


class FaultInjector:
    """Executes a :class:`FaultPlan` at the seams the core exposes.

    Thread-safe; all counters are totals since construction. The
    injector is **armed** by default — :meth:`disarm` silences every
    site, :meth:`rearm` restores the plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._armed = True
        self.fired = 0
        self.log: List[Tuple[str, str, int]] = []  # (site, action, call#)

    # -- arming --------------------------------------------------------------------

    def disarm(self) -> None:
        """Stop firing everywhere (sites keep counting calls)."""
        with self._lock:
            self._armed = False

    def rearm(self) -> None:
        with self._lock:
            self._armed = True

    # -- the decision procedure ----------------------------------------------------

    def _fires(self, site: str, action: str) -> bool:
        """Count one call at ``site``; True when the plan says fire."""
        period = self.plan.periods.get(site)
        with self._lock:
            calls = self._calls.get(site, 0) + 1
            self._calls[site] = calls
            if period is None or not self._armed:
                return False
            due = calls - self.plan.phases.get(site, 0)
            if due < 1 or due % period != 0:
                return False
            self.fired += 1
            self.log.append((site, action, calls))
            return True

    def calls_at(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    # -- the two fault families ----------------------------------------------------

    def arm_cache(self, cache) -> None:
        """Hang this injector on a cache's ``fault_hook`` seam.

        When the cache's site fires, the cache is invalidated *from
        inside the lookup that pulsed the hook* — a genuine mid-solve
        eviction. The hook only calls the cache's public, thread-safe
        ``invalidate()``.
        """

        def hook(site: str) -> None:
            if self._fires(site, "evict"):
                cache.invalidate()

        cache.fault_hook = hook

    def between_steps(self, database) -> bool:
        """One ``"sweep.step"`` pulse: re-ANALYZE when the site fires.

        Called by sweep drivers between constraint steps; a re-ANALYZE
        leaves the data unchanged but bumps ``Database.stats_token``, so
        every token-validated cache must flush — the invalidation-
        soundness drill. Returns True when it fired.
        """
        if self._fires("sweep.step", "bump-stats"):
            database.analyze()
            return True
        return False

    # -- reporting -----------------------------------------------------------------

    def describe(self) -> str:
        """A one-line reproduction recipe for failure reports."""
        if self.plan.seed is not None:
            plan = "FaultPlan.seeded(%d)" % self.plan.seed
        else:
            plan = "FaultPlan(periods=%r, phases=%r)" % (
                self.plan.periods,
                self.plan.phases,
            )
        return "%s, %d fault(s) fired: %r" % (plan, self.fired, self.log)
