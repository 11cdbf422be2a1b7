"""Graceful degradation: cheaper plans when the budget cannot buy the best.

The semantic-optimization stance (Chomicki, arXiv cs/0402003) applied
to serving: when the full computation cannot meet its budget, answer
with a cheaper *still-correct-by-construction* plan instead of missing
the deadline. Here the cheaper plans are the paper's own heuristics —
every rung of the ladder is a registered Section 5 algorithm whose
answers are feasible by definition, so a downgrade trades optimality
for latency, never correctness:

    exhaustive → c_boundaries → c_maxbounds        (cost-space)
    d_maxdoi → d_singlemaxdoi → d_heurdoi          (doi-space)

The policy is pure: given a pending request, the queue depth at
dispatch and the time, it returns the algorithm to run and a
human-readable reason (or no-op). One threshold crossed downgrades one
rung; both crossed drop straight to the ladder's floor. Cost
minimization (Problems 4–6) runs the dedicated minimal-state search and
has no cheaper sibling, so it never degrades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.adapters import recommended_algorithm
from repro.core.problem import CQPProblem
from repro.serving.batcher import PendingRequest
from repro.serving.config import ServingConfig

# One rung down per entry; algorithms absent here are already the floor.
DEGRADATION_LADDER = {
    "exhaustive": "c_boundaries",
    "c_boundaries": "c_maxbounds",
    "d_maxdoi": "d_singlemaxdoi",
    "d_singlemaxdoi": "d_heurdoi",
}


@dataclass(frozen=True)
class Degradation:
    """What a dispatch decision resolved to.

    ``algorithm`` is what the service should run (the requested
    algorithm when ``reason`` is None). ``reason`` doubles as
    :attr:`~repro.core.service.ServiceResponse.degradation_reason` on
    the served response.
    """

    algorithm: Optional[str]
    reason: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.reason is not None


def floor_of(algorithm: str) -> str:
    """The last rung reachable from ``algorithm``."""
    while algorithm in DEGRADATION_LADDER:
        algorithm = DEGRADATION_LADDER[algorithm]
    return algorithm


class DegradationPolicy:
    """Decides, per dispatched request, how much optimality to spend."""

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self.downgrades = 0

    def _requested(self, pending: PendingRequest) -> str:
        """The algorithm the request would run undegraded — resolving
        ``None`` exactly like the personalizer does, so a downgrade is
        always relative to what the sync path would have picked."""
        if pending.requested_algorithm is not None:
            return pending.requested_algorithm
        return recommended_algorithm(pending.request.problem)

    def resolve(self, pending: PendingRequest, queue_depth: int, now: float) -> Degradation:
        requested = pending.requested_algorithm
        if not self.config.degradation:
            return Degradation(algorithm=requested)
        if not _can_degrade(pending.request.problem):
            return Degradation(algorithm=requested)

        tier = pending.tier
        reasons = []
        if queue_depth > tier.degrade_queue_depth:
            reasons.append(
                "queue depth %d > tier %r budget %d"
                % (queue_depth, tier.name, tier.degrade_queue_depth)
            )
        elapsed = now - pending.arrived_at
        budget = tier.degrade_elapsed_fraction * tier.deadline_s
        if elapsed > budget:
            reasons.append(
                "queued %.1f ms > %.0f%% of tier %r deadline %.0f ms"
                % (
                    1000.0 * elapsed,
                    100.0 * tier.degrade_elapsed_fraction,
                    tier.name,
                    tier.deadline_ms,
                )
            )
        if not reasons:
            return Degradation(algorithm=requested)

        base = self._requested(pending)
        if len(reasons) >= 2:
            downgraded = floor_of(base)
        else:
            downgraded = DEGRADATION_LADDER.get(base, base)
        if downgraded == base:
            return Degradation(algorithm=requested)  # already at the floor
        self.downgrades += 1
        return Degradation(
            algorithm=downgraded,
            reason="downgraded %s -> %s: %s" % (base, downgraded, "; ".join(reasons)),
        )


def _can_degrade(problem: CQPProblem) -> bool:
    from repro.core.problem import Parameter

    return problem.objective is Parameter.DOI
