"""Search spaces: order vectors bound to an evaluator and a problem.

A :class:`SearchSpace` is what the Section 5 algorithms operate on. It
fixes one rank vector (C, D, or S) and prices states — P-index bitmasks,
see :mod:`repro.core.state` — through three callables: the *budget*
parameter (the constraint the boundary structure is built on — cost for
Problem 2), the *objective* (doi for Problems 1–3), and an optional
*extra* feasibility predicate (e.g. size bounds in Problem 3, checked
outside the boundary machinery per Section 6).

``budget_aligned`` records whether the vector sorts the budget's
per-preference contributions in decreasing order — the property the
C-space algorithms exploit (Vertical moves are then guaranteed to lower
the budget). It holds for (C, cost) and (S, −size); not for (D, cost).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.estimation import StateEvaluator
from repro.core.preference_space import PreferenceSpace, space_digest
from repro.core.problem import CQPProblem
from repro.core.solution import CQPSolution
from repro.core.state import Mask, RankWords
from repro.core.stats import SearchStats
from repro.errors import SearchError

_TOL = 1e-9


def feasible_limit(limit: float) -> float:
    """The tolerance-widened bound a budget test compares against:
    a state is within budget when ``budget(mask) <= feasible_limit(limit)``."""
    return limit + abs(limit) * _TOL + _TOL


class SearchSpace:
    """One rank vector + mask pricing, the algorithms' substrate.

    The loops carry a state as its rank mask and price its P-index mask
    through :attr:`budget` (or :attr:`budget_many` for a batch),
    :attr:`objective` and :attr:`extra`. Precomputed per space:
    :attr:`pref_bits` (rank -> single-bit mask of its P-index),
    :attr:`suffix_bits` (rank -> P-index mask of that rank and every
    later one), :attr:`words` (the packed rank word layout) and
    :attr:`feasible_limit` (the budget test's limit, tolerance
    included).
    """

    def __init__(
        self,
        vector: Sequence[int],
        evaluator: StateEvaluator,
        budget: Callable[[Mask], float],
        limit: float,
        objective: Callable[[Mask], float],
        objective_upper_bound: Callable[[int], float],
        budget_aligned: bool,
        extra: Optional[Callable[[Mask], bool]] = None,
        name: str = "",
        budget_many: Optional[Callable[[Sequence[Mask]], List[float]]] = None,
    ) -> None:
        if sorted(vector) != list(range(len(vector))):
            raise SearchError("vector must be a permutation of 0..K-1")
        self.vector: Tuple[int, ...] = tuple(vector)
        self.evaluator = evaluator
        self.budget = budget
        self.limit = limit
        self.objective = objective
        self._upper_bound = objective_upper_bound
        self.budget_aligned = budget_aligned
        self.extra = extra
        self.name = name
        if budget_many is None:

            def budget_many(masks: Sequence[Mask]) -> List[float]:
                return [budget(mask) for mask in masks]

        self.budget_many: Callable[[Sequence[Mask]], List[float]] = budget_many
        # Frontier memo attached by SpaceBundle when a FrontierCache is
        # in play (budget-aligned spaces only); algorithms may ignore it.
        self.frontier = None
        self.pref_bits: Tuple[Mask, ...] = tuple(1 << p for p in self.vector)
        suffix = [0] * (len(self.vector) + 1)
        for rank in range(len(self.vector) - 1, -1, -1):
            suffix[rank] = suffix[rank + 1] | self.pref_bits[rank]
        self.suffix_bits: Tuple[Mask, ...] = tuple(suffix)
        self.words = RankWords(len(self.vector))
        self.feasible_limit = feasible_limit(self.limit)

    @property
    def k(self) -> int:
        return len(self.vector)

    def pref_mask(self, ranks: Mask) -> Mask:
        """The P-index mask a rank mask denotes."""
        bits = self.pref_bits
        mask = 0
        while ranks:
            low = ranks & -ranks
            mask |= bits[low.bit_length() - 1]
            ranks ^= low
        return mask

    # -- feasibility (P-index masks) ---------------------------------------------------

    def within_budget(self, mask: Mask) -> bool:
        return self.budget(mask) <= self.feasible_limit

    def extra_feasible(self, mask: Mask) -> bool:
        return self.extra is None or self.extra(mask)

    @property
    def has_extra(self) -> bool:
        return self.extra is not None

    def fully_feasible(self, mask: Mask) -> bool:
        return self.within_budget(mask) and self.extra_feasible(mask)

    def upper_bound(self, group: int) -> float:
        """Optimistic objective for any state of ``group`` preferences."""
        return self._upper_bound(group)

    # -- solutions -----------------------------------------------------------------

    def solution(self, mask: Mask, algorithm: str, stats: SearchStats) -> CQPSolution:
        """Materialize a solution record from a P-index mask."""
        return CQPSolution.priced(self.evaluator, mask, algorithm, stats)


class SpaceBundle:
    """Couples an extracted preference space with one CQP problem and
    manufactures the concrete search spaces the algorithms run on.

    Parameter evaluation is cached, per Section 5.2.1 ("Costs that may
    be re-used are cached. This technique is used in all algorithms
    proposed"). With an enabled
    :class:`~repro.core.frontier_cache.FrontierCache` the bundle prices
    through the space object's shared evaluator
    (:meth:`~repro.core.preference_space.PreferenceSpace.shared_evaluator`),
    so every cache-sharing solve of that object — one batch, one
    constraint sweep — carries its per-state parameters to the next,
    and the budget-aligned spaces get their frontier memos. Without one,
    or with a disabled one, the bundle builds a fresh evaluator: the
    solve is cold.
    """

    def __init__(
        self,
        pspace: PreferenceSpace,
        problem: CQPProblem,
        frontier_cache=None,
    ) -> None:
        self.pspace = pspace
        self.problem = problem
        self.frontier_cache = frontier_cache
        if frontier_cache is not None and frontier_cache.byte_budget > 0:
            self.evaluator = pspace.shared_evaluator()
        else:
            self.evaluator = pspace.evaluator(cached=True)

    def _frontier_memo(self, space: SearchSpace):
        """The frontier memo for a budget-aligned space, if cached."""
        if self.frontier_cache is None or not space.budget_aligned:
            return None
        return self.frontier_cache.memo_for(
            space_digest(self.pspace), space.vector, space.name
        )

    @property
    def k(self) -> int:
        return self.pspace.k

    # -- feasibility pieces --------------------------------------------------------

    def _size_extra(self) -> Optional[Callable[[Mask], bool]]:
        """The size window as an extra predicate (None without one)."""
        constraints = self.problem.constraints
        if not constraints.has_size_bounds:
            return None
        evaluator = self.evaluator

        def check(mask: Mask) -> bool:
            size = evaluator.size_mask(mask)
            if constraints.smin is not None and size < constraints.smin * (1 - _TOL) - _TOL:
                return False
            if constraints.smax is not None and size > constraints.smax * (1 + _TOL) + _TOL:
                return False
            return True

        return check

    def _smin_only_extra(self) -> Optional[Callable[[Mask], bool]]:
        """The predicate left over when smin drives the budget.

        Without conflicts only the smax side needs re-checking; with
        conflict pairs present the budget runs on the independence
        product, so the conflict-aware smin must be re-checked too.
        """
        constraints = self.problem.constraints
        evaluator = self.evaluator
        if constraints.smax is None and not evaluator.conflict_masks:
            return None
        if not evaluator.conflict_masks:
            smax = constraints.smax

            def check(mask: Mask) -> bool:
                return evaluator.size_mask(mask) <= smax * (1 + _TOL) + _TOL

            return check
        return self._size_extra()

    def _doi_upper_bound(self, group: int) -> float:
        return self.evaluator.best_doi_of_size(group)

    # -- space constructors ------------------------------------------------------------

    def cost_space(self) -> SearchSpace:
        """The Problem 2/3 cost space: vector C, budget = cost ≤ cmax."""
        cmax = self.problem.constraints.cmax
        if cmax is None:
            raise SearchError("cost space needs a cost upper bound (Problems 2-3)")
        space = SearchSpace(
            vector=self.pspace.vector_c,
            evaluator=self.evaluator,
            budget=self.evaluator.cost_mask,
            limit=cmax,
            objective=self.evaluator.doi_mask,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=True,
            extra=self._size_extra(),
            name="cost",
            budget_many=self.evaluator.cost_mask_many,
        )
        space.frontier = self._frontier_memo(space)
        return space

    def doi_space(self) -> SearchSpace:
        """The D-algorithm space: vector D, budget from the problem.

        With a cost bound (Problems 2-3) the budget is cost ≤ cmax; with
        only size bounds (Problem 1) it is −size ≤ −smin, mirroring
        :meth:`size_space` — the Section 6 direction flip.
        """
        constraints = self.problem.constraints
        if constraints.cmax is not None:
            budget: Callable[[Mask], float] = self.evaluator.cost_mask
            limit: float = constraints.cmax
            extra = self._size_extra()
        elif constraints.smin is not None:
            evaluator = self.evaluator

            def budget(mask: Mask) -> float:
                return -evaluator.size_independent_mask(mask)

            limit = -constraints.smin
            extra = self._smin_only_extra()
        else:
            raise SearchError("doi space needs a cost or size constraint")
        return SearchSpace(
            vector=self.pspace.vector_d,
            evaluator=self.evaluator,
            budget=budget,
            limit=limit,
            objective=self.evaluator.doi_mask,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=False,
            extra=extra,
            name="doi",
        )

    def aligned_space(self) -> SearchSpace:
        """The budget-aligned space for this problem: C under a cost
        bound, S under a pure size bound."""
        if self.problem.constraints.cmax is not None:
            return self.cost_space()
        return self.size_space()

    def size_space(self) -> SearchSpace:
        """The Problem 1 space (Section 6): vector S, budget = −size ≤ −smin.

        Horizontal moves add the strongest remaining filter (smaller
        result, higher doi); Vertical moves swap in a weaker filter
        (larger result). The smax side — satisfied by *small* groups — is
        handled as an extra predicate during the second phase, the
        UpBoundaries/LowBoundaries device of Section 6 in predicate form.
        """
        constraints = self.problem.constraints
        if constraints.smin is None:
            raise SearchError("size space needs a size lower bound (Problem 1)")
        evaluator = self.evaluator

        def budget(mask: Mask) -> float:
            # The independence product keeps Vertical moves monotone
            # (see StateEvaluator.size_independent_mask); conflicts are
            # re-checked by the extra predicate.
            return -evaluator.size_independent_mask(mask)

        def budget_many(masks: Sequence[Mask]) -> List[float]:
            return [-value for value in evaluator.size_independent_mask_many(masks)]

        space = SearchSpace(
            vector=self.pspace.vector_s,
            evaluator=self.evaluator,
            budget=budget,
            limit=-constraints.smin,
            objective=self.evaluator.doi_mask,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=True,
            extra=self._smin_only_extra(),
            name="size",
            budget_many=budget_many,
        )
        space.frontier = self._frontier_memo(space)
        return space
