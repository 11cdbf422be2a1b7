"""Multi-objective CQP: Pareto-optimal personalizations.

The paper's conclusions name "query personalization as a multi-objective
constrained optimization problem, where more than one query parameter
may be optimized simultaneously" as future work. This module implements
that extension over the same machinery: instead of fixing a bound and
optimizing one parameter, enumerate the personalizations that are
*Pareto-optimal* in (doi ↑, cost ↓) — optionally (doi ↑, cost ↓,
size window) — so a context policy can pick its operating point after
seeing the whole trade-off curve.

Structure exploited: cost is additive over the cost vector, so a state
dominated in cost *and* doi can never re-enter the front; the sweep
below walks cmax upward through the distinct costs of boundary states,
reusing the exact Problem 2 solver. The front it returns is provably the
exact (doi, cost) front:

* every Problem 2 optimum at some budget is on the front, and
* every front point is the Problem 2 optimum at its own cost.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence

from repro.core.estimation import StateEvaluator
from repro.core.problem import Constraints
from repro.core.solution import CQPSolution
from repro.core.state import Mask, RankWords, state_of
from repro.core.stats import SearchStats
from repro.errors import SearchError

_TOL = 1e-9

MAX_PARETO_K = 22


def _feasible_by_size(
    evaluator: StateEvaluator, mask: Mask, constraints: Optional[Constraints]
) -> bool:
    if constraints is None or not constraints.has_size_bounds:
        return True
    size = evaluator.size_mask(mask)
    if constraints.smin is not None and size < constraints.smin * (1 - _TOL) - _TOL:
        return False
    if constraints.smax is not None and size > constraints.smax * (1 + _TOL) + _TOL:
        return False
    return True


def pareto_front(
    evaluator: StateEvaluator,
    size_constraints: Optional[Constraints] = None,
    k_guard: int = MAX_PARETO_K,
) -> List[CQPSolution]:
    """The exact (doi ↑, cost ↓) Pareto front over non-empty states.

    Enumerates states as P-index masks (bounded by ``k_guard``, like
    the exhaustive oracle), filters by the optional size window, and
    keeps the non-dominated set: a state survives iff no other feasible
    state has both doi ≥ and cost ≤ (with one strict). Returned sorted by
    increasing cost — the natural sweep a context policy reads; exact
    (cost, doi) ties keep the index-tuple order, through the packed
    word's :meth:`~repro.core.state.RankWords.lex_key`.
    """
    k = len(evaluator)
    if k > k_guard:
        raise SearchError(
            "pareto_front over K=%d exceeds the 2^%d guard" % (k, k_guard)
        )
    words = RankWords(k)
    bits = [1 << index for index in range(k)]
    candidates = []
    for group in range(1, k + 1):
        for chosen in combinations(bits, group):
            mask = sum(chosen)
            if not _feasible_by_size(evaluator, mask, size_constraints):
                continue
            candidates.append((
                evaluator.cost_mask(mask),
                -evaluator.doi_mask(mask),
                words.lex_key(words.pack(mask), group),
                mask,
            ))
    candidates.sort()
    front: List[CQPSolution] = []
    best_doi = -1.0
    for cost, negative_doi, _, mask in candidates:
        doi = -negative_doi
        if doi > best_doi + _TOL:
            best_doi = doi
            front.append(
                CQPSolution(
                    pref_indices=state_of(mask),
                    doi=doi,
                    cost=cost,
                    size=evaluator.size_mask(mask),
                    algorithm="pareto",
                    stats=SearchStats(algorithm="pareto"),
                )
            )
    return front


def knee_point(front: Sequence[CQPSolution]) -> Optional[CQPSolution]:
    """The front's knee: maximum distance from the chord between the
    cheapest and the most interesting endpoints — a sensible default when
    the context supplies no explicit bound."""
    if not front:
        return None
    if len(front) <= 2:
        return front[0]
    first, last = front[0], front[-1]
    span_cost = last.cost - first.cost or 1.0
    span_doi = last.doi - first.doi or 1.0

    def distance(solution: CQPSolution) -> float:
        # Normalized perpendicular distance from the chord.
        x = (solution.cost - first.cost) / span_cost
        y = (solution.doi - first.doi) / span_doi
        return y - x

    return max(front, key=distance)


def budget_for_doi(front: Sequence[CQPSolution], target_doi: float) -> Optional[CQPSolution]:
    """The cheapest front point reaching ``target_doi`` — the
    multi-objective reading of Problem 4."""
    for solution in front:  # sorted by increasing cost, doi increases too
        if solution.doi >= target_doi - _TOL:
            return solution
    return None
