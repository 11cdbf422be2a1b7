"""Canonical scenarios lifted from the paper, plus synthetic-space helpers.

* :func:`figure1_profile` — the example profile of Figure 1;
* :func:`table2_evaluator` — the 3-preference instance of Table 2 whose
  order vectors the paper lists (D = {2,3,1}, C = {3,1,2}, S = {2,1,3});
* :func:`figure6_evaluator` — the 5-preference instance reconstructed
  from Figures 6/8 (costs 110, 80, 60, 45, 35; cmax = 185), on which
  C-BOUNDARIES and C-MAXBOUNDS produce the paper's traces;
* ``make_*_space`` — build :class:`SearchSpace` instances straight from
  parameter arrays, so algorithm tests and benches need no database.
  They price P-index masks through the given (uncached) evaluator, like
  every space.

Synthetic helpers sort preferences by decreasing doi first: all of the
machinery (pointer search, BestExpectedDoi) relies on P being
doi-ordered, as the Preference Space algorithm guarantees in real use.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.estimation import StateEvaluator
from repro.core.space import SearchSpace
from repro.core.state import Mask
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import SelectQuery
from repro.sql.parser import parse_select


def figure1_profile() -> UserProfile:
    """The paper's Figure 1 profile (p1–p4)."""
    profile = UserProfile("figure1")
    profile.add_selection("GENRE", "genre", "musical", doi=0.5)          # p1
    profile.add_join("MOVIE", "mid", "GENRE", "mid", doi=0.9)            # p2
    profile.add_join("MOVIE", "did", "DIRECTOR", "did", doi=1.0)         # p3
    profile.add_selection("DIRECTOR", "name", "W. Allen", doi=0.8)       # p4
    return profile


def paper_example_query() -> SelectQuery:
    """Section 4.2's original query: ``select title from MOVIE``."""
    return parse_select("select title from MOVIE")


def make_synthetic_evaluator(
    dois: Sequence[float],
    costs: Sequence[float],
    sizes: Optional[Sequence[float]] = None,
    base_size: float = 1000.0,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
) -> StateEvaluator:
    """A :class:`StateEvaluator` from explicit per-preference parameters.

    Inputs are re-sorted into decreasing-doi order (ties by position) so
    that P-index 0 is the most interesting preference, as everywhere
    else in the library.
    """
    if sizes is None:
        sizes = [base_size] * len(dois)
    order = sorted(range(len(dois)), key=lambda i: (-dois[i], i))
    dois = [dois[i] for i in order]
    costs = [costs[i] for i in order]
    sizes = [sizes[i] for i in order]
    reductions = [min(1.0, s / base_size) if base_size > 0 else 0.0 for s in sizes]
    return StateEvaluator(
        doi_values=dois,
        cost_values=costs,
        reductions=reductions,
        base_size=base_size,
        base_cost=0.0,
        algebra=algebra,
    )


def make_synthetic_pspace(
    dois: Sequence[float],
    costs: Sequence[float],
    sizes: Optional[Sequence[float]] = None,
    base_size: float = 1000.0,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
) -> "PreferenceSpace":
    """A full :class:`PreferenceSpace` from explicit parameters.

    The adapter/bundle layer (``adapters.solve``, ``SpaceBundle``,
    frontier caching) takes preference spaces rather than bare
    evaluators; this builds one without a database. ``paths`` are
    integer placeholders — everything downstream of the solve uses only
    ``len(paths)`` and the parameter arrays.
    """
    from repro.core.preference_space import PreferenceSpace

    evaluator = make_synthetic_evaluator(
        dois, costs, sizes, base_size=base_size, algebra=algebra
    )
    k = len(evaluator)
    doi_values = list(evaluator.doi_values)
    cost_values = list(evaluator.cost_values)
    reductions = list(evaluator.reductions)
    return PreferenceSpace(
        query=paper_example_query(),
        paths=list(range(k)),
        doi_values=doi_values,
        cost_values=cost_values,
        size_values=[base_size * r for r in reductions],
        reductions=reductions,
        base_cost=0.0,
        base_size=base_size,
        algebra=algebra,
        vector_d=sorted(range(k), key=lambda i: (-doi_values[i], i)),
        vector_c=sorted(range(k), key=lambda i: (-cost_values[i], i)),
        vector_s=sorted(range(k), key=lambda i: (reductions[i], i)),
    )


def make_cost_space(
    evaluator: StateEvaluator,
    cmax: float,
    extra: Optional[Callable[[Mask], bool]] = None,
) -> SearchSpace:
    """A Problem 2 cost space (vector C) over a synthetic evaluator.

    ``extra`` is an optional feasibility predicate over P-index masks.
    """
    k = len(evaluator)
    vector = sorted(range(k), key=lambda i: (-evaluator.cost_values[i], i))
    return SearchSpace(
        vector=vector,
        evaluator=evaluator,
        budget=evaluator.cost_mask,
        limit=cmax,
        objective=evaluator.doi_mask,
        objective_upper_bound=evaluator.best_doi_of_size,
        budget_aligned=True,
        extra=extra,
        name="cost",
    )


def make_doi_space(
    evaluator: StateEvaluator,
    cmax: float,
    extra: Optional[Callable[[Mask], bool]] = None,
) -> SearchSpace:
    """A Problem 2 doi space (vector D) over a synthetic evaluator."""
    k = len(evaluator)
    vector = sorted(range(k), key=lambda i: (-evaluator.doi_values[i], i))
    return SearchSpace(
        vector=vector,
        evaluator=evaluator,
        budget=evaluator.cost_mask,
        limit=cmax,
        objective=evaluator.doi_mask,
        objective_upper_bound=evaluator.best_doi_of_size,
        budget_aligned=False,
        extra=extra,
        name="doi",
    )


def make_size_space(
    evaluator: StateEvaluator,
    smin: float,
    smax: Optional[float] = None,
) -> SearchSpace:
    """A Problem 1 size space (vector S) over a synthetic evaluator."""
    k = len(evaluator)
    vector = sorted(range(k), key=lambda i: (evaluator.reductions[i], i))

    def budget(mask: Mask) -> float:
        return -evaluator.size_mask(mask)

    extra = None
    if smax is not None:
        bound = smax

        def extra(mask: Mask) -> bool:  # noqa: F811
            return evaluator.size_mask(mask) <= bound * (1 + 1e-9) + 1e-9

    return SearchSpace(
        vector=vector,
        evaluator=evaluator,
        budget=budget,
        limit=-smin,
        objective=evaluator.doi_mask,
        objective_upper_bound=evaluator.best_doi_of_size,
        budget_aligned=True,
        extra=extra,
        name="size",
    )


# -- the paper's literal instances -------------------------------------------------

TABLE2_DOIS = (0.5, 0.8, 0.7)
TABLE2_COSTS = (10.0, 5.0, 12.0)
TABLE2_SIZES = (3.0, 2.0, 10.0)
TABLE2_BASE_SIZE = 20.0


def table2_evaluator() -> StateEvaluator:
    """Table 2's P = {p1, p2, p3}. After the doi re-sort, P-index 0 is
    the paper's p2, index 1 is p3, index 2 is p1 — matching D = {2,3,1}."""
    return make_synthetic_evaluator(
        TABLE2_DOIS, TABLE2_COSTS, TABLE2_SIZES, base_size=TABLE2_BASE_SIZE
    )


FIGURE6_DOIS = (0.9, 0.8, 0.7, 0.6, 0.5)
FIGURE6_COSTS = (110.0, 80.0, 60.0, 45.0, 35.0)
FIGURE6_CMAX = 185.0


def figure6_evaluator() -> StateEvaluator:
    """The 5-preference instance of Figures 6 and 8 (see DESIGN.md)."""
    return make_synthetic_evaluator(FIGURE6_DOIS, FIGURE6_COSTS)


def figure6_cost_space() -> SearchSpace:
    return make_cost_space(figure6_evaluator(), FIGURE6_CMAX)
