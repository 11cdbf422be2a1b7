"""Property tests: the paper's transition effects hold on random spaces.

Formulas 4 (doi monotone up), 7 (cost monotone up) and 8 (size monotone
down) are the facts every Section 5 pruning rule rests on. Hypothesis
builds random preference spaces and random states and replays random
Horizontal / Horizontal2 / Vertical sequences through the executable
checkers in :mod:`repro.testing.invariants` — the same checkers the
differential harness runs, so a formula violation here and a lattice
divergence there point at the same contract.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.problem import CQPProblem
from repro.core.space import SpaceBundle
from repro.testing.invariants import (
    check_canonical_frontier,
    check_cost_monotone,
    check_doi_monotone,
    check_size_antitone,
    check_vertical_budget_decreases,
)
from repro.testing import reference as tr
from repro.workloads.scenarios import make_synthetic_pspace

# -- strategies ---------------------------------------------------------------------

parameters = st.integers(min_value=2, max_value=7).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k
        ),
        st.lists(
            st.floats(min_value=0.5, max_value=100.0), min_size=k, max_size=k
        ),
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k
        ),
    )
)


def _space(params):
    dois, costs, reductions = params
    base = 1000.0
    return make_synthetic_pspace(
        dois, costs, [base * r for r in reductions], base_size=base
    )


states = st.integers(min_value=0, max_value=2**7 - 1)


def _state_for(mask: int, k: int):
    """A sorted rank tuple drawn from a 7-bit mask, clipped to [0, k)."""
    return tuple(i for i in range(k) if mask >> i & 1)


# -- Formulas 4, 7, 8 along growing transitions -------------------------------------


@given(parameters, states)
def test_formula4_doi_monotone_under_growth(params, mask):
    pspace = _space(params)
    state = _state_for(mask, pspace.k)
    check_doi_monotone(pspace.evaluator(), state, pspace.k)


@given(parameters, states)
def test_formula7_cost_monotone_under_growth(params, mask):
    pspace = _space(params)
    state = _state_for(mask, pspace.k)
    check_cost_monotone(pspace.evaluator(), state, pspace.k)


@given(parameters, states)
def test_formula8_size_antitone_under_growth(params, mask):
    pspace = _space(params)
    state = _state_for(mask, pspace.k)
    check_size_antitone(pspace.evaluator(), state, pspace.k)


@given(parameters, states, st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_formulas_hold_along_random_transition_walks(params, mask, walk):
    """A whole random Horizontal/Horizontal2/Vertical walk re-checks the
    formulas at every state it visits, not just at the seed."""
    pspace = _space(params)
    evaluator = pspace.evaluator()
    k = pspace.k
    state = _state_for(mask, k)
    for move in walk:
        check_doi_monotone(evaluator, state, k)
        check_cost_monotone(evaluator, state, k)
        check_size_antitone(evaluator, state, k)
        if move == 0:
            successor = tr.horizontal(state, k)
        elif move == 1:
            choices = list(tr.horizontal2(state, k))
            successor = choices[0] if choices else None
        else:
            choices = list(tr.vertical(state, k))
            successor = choices[0] if choices else None
        if successor is None:
            break
        state = successor


# -- Vertical lowers the budget on aligned spaces -----------------------------------


@given(parameters, states)
def test_vertical_lowers_cost_budget_on_cost_space(params, mask):
    pspace = _space(params)
    problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.5)
    space = SpaceBundle(pspace, problem).aligned_space()
    state = _state_for(mask, pspace.k)
    check_vertical_budget_decreases(space, state)


@given(parameters, states)
def test_vertical_lowers_size_budget_on_size_space(params, mask):
    pspace = _space(params)
    problem = CQPProblem.problem1(
        smin=pspace.base_size * 0.05, smax=pspace.base_size * 0.9
    )
    space = SpaceBundle(pspace, problem).aligned_space()
    state = _state_for(mask, pspace.k)
    check_vertical_budget_decreases(space, state)


# -- canonical frontiers out of real sweeps -----------------------------------------


@given(parameters)
def test_cboundaries_frontier_is_canonical(params):
    """Every frontier the real C-BOUNDARIES sweep records must pass the
    dominance checker (minimal, ordered, duplicate-free, lossless)."""
    from repro.core import adapters
    from repro.core.frontier_cache import FrontierCache

    pspace = _space(params)
    cache = FrontierCache()
    problem = CQPProblem.problem2(cmax=pspace.supreme_cost() * 0.6)
    adapters.solve(pspace, problem, "c_boundaries", frontier_cache=cache)
    for memo in cache._memos.values():
        for frontier in memo._entries.values():
            check_canonical_frontier(frontier)
