"""Search spaces: order vectors bound to an evaluator and a problem.

A :class:`SearchSpace` is what the Section 5 algorithms operate on. It
fixes one rank vector (C, D, or S), translates rank states to preference
sets, evaluates the *budget* parameter (the constraint the boundary
structure is built on — cost for Problem 2), the *objective* (doi for
Problems 1–3), and any extra feasibility predicates (e.g. size bounds in
Problem 3, checked outside the boundary machinery per Section 6).

``budget_aligned`` records whether the vector sorts the budget's
per-preference contributions in decreasing order — the property the
C-space algorithms exploit (Vertical moves are then guaranteed to lower
the budget). It holds for (C, cost) and (S, −size); not for (D, cost).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core import transitions as tr
from repro.core.estimation import StateEvaluator
from repro.core.preference_space import PreferenceSpace
from repro.core.problem import CQPProblem, Parameter
from repro.core.solution import CQPSolution
from repro.core.state import Mask, State, make_state
from repro.core.stats import SearchStats
from repro.errors import SearchError

_TOL = 1e-9


class SearchSpace:
    """One rank vector + evaluation functions, the algorithms' substrate.

    Evaluation runs on one of two kernels. The tuple kernel calls the
    ``budget``/``objective``/``extra`` callables with P-index tuples.
    When the mask twins (``budget_mask``/``objective_mask``/
    ``extra_mask``) are supplied, the hot entry points instead translate
    rank states to P-index *bitmasks* via a precomputed per-rank bit
    table and evaluate those — no tuple allocation, and single-int cache
    keys downstream. The algorithms keep calling the tuple-state API
    either way; only the evaluation plumbing changes. :class:`SpaceBundle`
    always supplies the mask twins; tuple-only spaces remain as the
    hand-built reference (see :mod:`repro.workloads.scenarios`).
    """

    def __init__(
        self,
        vector: Sequence[int],
        evaluator: StateEvaluator,
        budget: Callable[[Sequence[int]], float],
        limit: float,
        objective: Callable[[Sequence[int]], float],
        objective_upper_bound: Callable[[int], float],
        budget_aligned: bool,
        extra: Optional[Callable[[Sequence[int]], bool]] = None,
        name: str = "",
        budget_mask: Optional[Callable[[Mask], float]] = None,
        objective_mask: Optional[Callable[[Mask], float]] = None,
        extra_mask: Optional[Callable[[Mask], bool]] = None,
        budget_mask_many: Optional[Callable[[Sequence[Mask]], List[float]]] = None,
    ) -> None:
        if sorted(vector) != list(range(len(vector))):
            raise SearchError("vector must be a permutation of 0..K-1")
        self.vector: Tuple[int, ...] = tuple(vector)
        self.evaluator = evaluator
        self._budget = budget
        self.limit = limit
        self._objective = objective
        self._upper_bound = objective_upper_bound
        self.budget_aligned = budget_aligned
        self._extra = extra
        self.name = name
        self._budget_mask = budget_mask
        self._objective_mask = objective_mask
        self._extra_mask = extra_mask
        self._budget_mask_many = budget_mask_many
        # Frontier memo attached by SpaceBundle when a FrontierCache is
        # in play (budget-aligned spaces only); algorithms may ignore it.
        self.frontier = None
        # rank -> single-bit mask of the P-index it denotes
        self._pref_bit: Tuple[Mask, ...] = tuple(1 << p for p in self.vector)
        self._feasible_limit = self.limit + abs(self.limit) * _TOL + _TOL

    @property
    def k(self) -> int:
        return len(self.vector)

    # -- state interpretation ---------------------------------------------------

    def prefs(self, state: State) -> Tuple[int, ...]:
        """Translate a rank state to the P-indices it denotes."""
        return tuple(self.vector[rank] for rank in state)

    def pref_mask(self, state: State) -> Mask:
        """Translate a rank state to the bitmask of its P-indices."""
        bits = self._pref_bit
        mask = 0
        for rank in state:
            mask |= bits[rank]
        return mask

    def budget_value(self, state: State) -> float:
        if self._budget_mask is not None:
            return self._budget_mask(self.pref_mask(state))
        return self._budget(self.prefs(state))

    def within_budget(self, state: State) -> bool:
        return self.budget_value(state) <= self._feasible_limit

    def budget_values(self, states: Sequence[State]) -> List[float]:
        """Budget parameters of many states in one batched call.

        Rides the evaluator's batched mask kernel when available; each
        figure still comes from the scalar arithmetic, so the results
        are bit-identical to state-at-a-time :meth:`budget_value`.
        """
        if self._budget_mask_many is not None:
            pref_mask = self.pref_mask
            return self._budget_mask_many([pref_mask(state) for state in states])
        budget_value = self.budget_value
        return [budget_value(state) for state in states]

    def objective_value(self, state: State) -> float:
        if self._objective_mask is not None:
            return self._objective_mask(self.pref_mask(state))
        return self._objective(self.prefs(state))

    def upper_bound(self, group: int) -> float:
        """Optimistic objective for any state of ``group`` preferences."""
        return self._upper_bound(group)

    def extra_feasible(self, state: State) -> bool:
        if self._extra is None:
            return True
        if self._extra_mask is not None:
            return self._extra_mask(self.pref_mask(state))
        return self._extra(self.prefs(state))

    @property
    def has_extra(self) -> bool:
        return self._extra is not None

    def fully_feasible(self, state: State) -> bool:
        return self.within_budget(state) and self.extra_feasible(state)

    # -- solutions -----------------------------------------------------------------

    def solution_from_prefs(
        self, indices: Sequence[int], algorithm: str, stats: SearchStats
    ) -> CQPSolution:
        """Materialize a solution record from a set of P-indices."""
        prefs = make_state(indices)
        return CQPSolution(
            pref_indices=prefs,
            doi=self.evaluator.doi(prefs),
            cost=self.evaluator.cost(prefs),
            size=self.evaluator.size(prefs),
            algorithm=algorithm,
            stats=stats,
        )

    def solution(self, state: State, algorithm: str, stats: SearchStats) -> CQPSolution:
        """Materialize a solution record from a rank state."""
        return self.solution_from_prefs(self.prefs(state), algorithm, stats)

    # -- transitions (rank-level, delegated) -----------------------------------------

    def horizontal(self, state: State) -> Optional[State]:
        return tr.horizontal(state, self.k)

    def vertical(self, state: State) -> List[State]:
        return tr.vertical(state, self.k)

    def horizontal2(self, state: State) -> List[State]:
        return tr.horizontal2(state, self.k)

    # -- transitions (mask-level twins) ------------------------------------------------

    def horizontal_mask(self, mask: Mask) -> Optional[Mask]:
        return tr.horizontal_mask(mask, self.k)

    def vertical_mask(self, mask: Mask) -> List[Mask]:
        return tr.vertical_mask(mask, self.k)

    def horizontal2_mask(self, mask: Mask) -> List[Mask]:
        return tr.horizontal2_mask(mask, self.k)


class SpaceBundle:
    """Couples an extracted preference space with one CQP problem and
    manufactures the concrete search spaces the algorithms run on.

    Parameter evaluation is cached by default, per Section 5.2.1
    ("Costs that may be re-used are cached. This technique is used in
    all algorithms proposed").
    """

    def __init__(
        self,
        pspace: PreferenceSpace,
        problem: CQPProblem,
        cached: bool = True,
        frontier_cache=None,
    ) -> None:
        from repro.core.estimation import CachedStateEvaluator

        self.pspace = pspace
        self.problem = problem
        # A FrontierCache supplies the shared evaluator (per-state
        # parameters carried across solves) and the frontier memos the
        # budget-aligned spaces warm-start from. Only meaningful with
        # caching on — an uncached bundle is a measurement tool.
        self.frontier_cache = frontier_cache if cached else None
        if self.frontier_cache is not None:
            self.evaluator = self.frontier_cache.evaluator_for(pspace)
        elif cached:
            self.evaluator = CachedStateEvaluator.wrap(pspace.evaluator())
        else:
            self.evaluator = pspace.evaluator()
        self._signature = None

    def _frontier_memo(self, space: SearchSpace):
        """The frontier memo for a budget-aligned space, if cached."""
        if self.frontier_cache is None or not space.budget_aligned:
            return None
        from repro.core.frontier_cache import space_signature

        if self._signature is None:
            self._signature = space_signature(self.pspace)
        return self.frontier_cache.memo_for(self._signature, space.vector, space.name)

    @property
    def k(self) -> int:
        return self.pspace.k

    # -- feasibility pieces --------------------------------------------------------

    def _size_extra(self) -> Optional[Callable[[Sequence[int]], bool]]:
        constraints = self.problem.constraints
        if not constraints.has_size_bounds:
            return None
        evaluator = self.evaluator

        def check(indices: Sequence[int]) -> bool:
            size = evaluator.size(indices)
            if constraints.smin is not None and size < constraints.smin * (1 - _TOL) - _TOL:
                return False
            if constraints.smax is not None and size > constraints.smax * (1 + _TOL) + _TOL:
                return False
            return True

        return check

    def _size_extra_mask(self) -> Optional[Callable[[Mask], bool]]:
        """Mask twin of :meth:`_size_extra` (same window, mask states)."""
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

    def _smin_only_extra(self) -> Optional[Callable[[Sequence[int]], bool]]:
        """The predicate left over when smin drives the budget.

        Without conflicts only the smax side needs re-checking; with
        conflict pairs present the budget runs on the independence
        product, so the conflict-aware smin must be re-checked too.
        """
        constraints = self.problem.constraints
        evaluator = self.evaluator
        if constraints.smax is None and not evaluator.conflicts:
            return None
        if not evaluator.conflicts:
            smax = constraints.smax

            def check(indices: Sequence[int]) -> bool:
                return evaluator.size(indices) <= smax * (1 + _TOL) + _TOL

            return check
        return self._size_extra()

    def _smin_only_extra_mask(self) -> Optional[Callable[[Mask], bool]]:
        """Mask twin of :meth:`_smin_only_extra`."""
        constraints = self.problem.constraints
        evaluator = self.evaluator
        if constraints.smax is None and not evaluator.conflicts:
            return None
        if not evaluator.conflicts:
            smax = constraints.smax

            def check(mask: Mask) -> bool:
                return evaluator.size_mask(mask) <= smax * (1 + _TOL) + _TOL

            return check
        return self._size_extra_mask()

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
            budget=self.evaluator.cost,
            limit=cmax,
            objective=self.evaluator.doi,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=True,
            extra=self._size_extra(),
            name="cost",
            budget_mask=self.evaluator.cost_mask,
            objective_mask=self.evaluator.doi_mask,
            extra_mask=self._size_extra_mask(),
            budget_mask_many=self.evaluator.cost_mask_many,
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
            budget = self.evaluator.cost
            limit: float = constraints.cmax
            extra = self._size_extra()
            budget_mask = self.evaluator.cost_mask
            extra_mask = self._size_extra_mask()
        elif constraints.smin is not None:
            evaluator = self.evaluator

            def budget(indices: Sequence[int]) -> float:
                return -evaluator.size_independent(indices)

            def budget_mask(mask: Mask) -> float:
                return -evaluator.size_independent_mask(mask)

            limit = -constraints.smin
            extra = self._smin_only_extra()
            extra_mask = self._smin_only_extra_mask()
        else:
            raise SearchError("doi space needs a cost or size constraint")
        return SearchSpace(
            vector=self.pspace.vector_d,
            evaluator=self.evaluator,
            budget=budget,
            limit=limit,
            objective=self.evaluator.doi,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=False,
            extra=extra,
            name="doi",
            budget_mask=budget_mask,
            objective_mask=self.evaluator.doi_mask,
            extra_mask=extra_mask,
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
        smin = constraints.smin

        def budget(indices: Sequence[int]) -> float:
            # The independence product keeps Vertical moves monotone
            # (see StateEvaluator.size_independent); conflicts are
            # re-checked by the extra predicate.
            return -evaluator.size_independent(indices)

        def budget_mask(mask: Mask) -> float:
            return -evaluator.size_independent_mask(mask)

        def budget_mask_many(masks: Sequence[Mask]) -> List[float]:
            return [-value for value in evaluator.size_independent_mask_many(masks)]

        space = SearchSpace(
            vector=self.pspace.vector_s,
            evaluator=self.evaluator,
            budget=budget,
            limit=-smin,
            objective=self.evaluator.doi,
            objective_upper_bound=self._doi_upper_bound,
            budget_aligned=True,
            extra=self._smin_only_extra(),
            name="size",
            budget_mask=budget_mask,
            objective_mask=self.evaluator.doi_mask,
            extra_mask=self._smin_only_extra_mask(),
            budget_mask_many=budget_mask_many,
        )
        space.frontier = self._frontier_memo(space)
        return space

    def default_space(self) -> SearchSpace:
        """The natural space for the bundle's problem (doi-max problems)."""
        if self.problem.objective is not Parameter.DOI:
            raise SearchError(
                "default_space covers doi-maximization; use repro.core.adapters "
                "for the cost-minimization problems (4-6)"
            )
        if self.problem.constraints.cmax is not None:
            return self.cost_space()
        return self.size_space()

    # -- solutions --------------------------------------------------------------------

    def solution(
        self, space: SearchSpace, state: State, algorithm: str, stats: SearchStats
    ) -> CQPSolution:
        """Materialize a solution record from a rank state."""
        return space.solution(state, algorithm, stats)
