"""Tests for C-BOUNDARIES (Figure 5) including the paper's Figure 6 trace."""

import pytest

from repro.core.algorithms import CBoundaries, Exhaustive
from repro.core.algorithms.c_boundaries import find_boundaries
from repro.core.stats import SearchStats
from repro.testing.reference import (
    is_below,
    states_in_group,
    vertical_predecessors,
    within_budget,
)
from repro.workloads.scenarios import (
    FIGURE6_CMAX,
    figure6_cost_space,
    make_cost_space,
    make_synthetic_evaluator,
)


class TestFigure6Trace:
    """The 5-preference instance whose boundaries the paper draws."""

    def test_essential_boundaries_found(self):
        space = figure6_cost_space()
        boundaries = set(find_boundaries(space, SearchStats()))
        # The paper's output (1-based {1}, {1,3}, {2,3,4}) in 0-based ranks.
        assert {(0,), (0, 2), (1, 2, 3)} <= boundaries

    def test_c2c3_is_not_a_boundary(self):
        # The paper: c2c3 is reachable from boundary c1c3, so it is pruned.
        space = figure6_cost_space()
        boundaries = find_boundaries(space, SearchStats())
        assert (1, 2) not in boundaries

    def test_all_boundaries_feasible(self):
        space = figure6_cost_space()
        for boundary in find_boundaries(space, SearchStats()):
            assert within_budget(space, boundary)

    def test_every_feasible_state_below_some_boundary(self):
        # The correctness core of Theorem 1/2: the recorded boundaries
        # cover the entire feasible region.
        space = figure6_cost_space()
        boundaries = find_boundaries(space, SearchStats())
        for group in range(1, space.k + 1):
            for state in states_in_group(space.k, group):
                if within_budget(space, state):
                    assert any(is_below(state, b) for b in boundaries), state

    def test_proposition2_vertical_predecessors_infeasible(self):
        # PROPOSITION 2: all Vertical predecessors of a *true* boundary
        # violate the cost constraint. (The breadth-first sweep may also
        # record covered states — the paper's own c2c4c5 case — so the
        # check applies to boundaries no other boundary covers.)
        space = figure6_cost_space()
        boundaries = find_boundaries(space, SearchStats())
        true_boundaries = [
            b
            for b in boundaries
            if not any(b != other and is_below(b, other) for other in boundaries)
        ]
        assert true_boundaries
        for boundary in true_boundaries:
            for predecessor in vertical_predecessors(boundary, space.k):
                assert not within_budget(space, predecessor)

    def test_solution_matches_paper_optimum(self):
        solution = CBoundaries().solve(figure6_cost_space())
        assert solution is not None
        # Optimal node: c2c3c4 (prefs with dois 0.8, 0.7, 0.6).
        assert solution.pref_indices == (1, 2, 3)
        assert solution.cost == pytest.approx(185.0)
        assert solution.doi == pytest.approx(1 - 0.2 * 0.3 * 0.4)


class TestEdgeCases:
    def test_infeasible_space_returns_none(self):
        evaluator = make_synthetic_evaluator([0.5, 0.6], [50.0, 60.0])
        space = make_cost_space(evaluator, cmax=10.0)
        assert CBoundaries().solve(space) is None

    def test_everything_feasible_takes_all(self):
        evaluator = make_synthetic_evaluator([0.5, 0.6, 0.7], [1.0, 2.0, 3.0])
        space = make_cost_space(evaluator, cmax=100.0)
        solution = CBoundaries().solve(space)
        assert solution.pref_indices == (0, 1, 2)

    def test_single_preference(self):
        evaluator = make_synthetic_evaluator([0.9], [10.0])
        space = make_cost_space(evaluator, cmax=10.0)
        solution = CBoundaries().solve(space)
        assert solution.pref_indices == (0,)

    def test_empty_space(self):
        evaluator = make_synthetic_evaluator([], [])
        space = make_cost_space(evaluator, cmax=10.0)
        assert CBoundaries().solve(space) is None

    def test_requires_aligned_space(self):
        from repro.errors import SearchError
        from repro.workloads.scenarios import make_doi_space

        space = make_doi_space(make_synthetic_evaluator([0.5], [1.0]), cmax=10)
        with pytest.raises(SearchError):
            CBoundaries().solve(space)

    def test_matches_oracle_on_ties(self):
        # Equal costs and dois everywhere: any maximal feasible set works.
        evaluator = make_synthetic_evaluator([0.5] * 5, [10.0] * 5)
        space = make_cost_space(evaluator, cmax=30.0)
        solution = CBoundaries().solve(space)
        reference = Exhaustive().solve(space)
        assert solution.doi == pytest.approx(reference.doi)
        assert solution.group_size == 3

    def test_stats_populated(self):
        solution = CBoundaries().solve(figure6_cost_space())
        stats = solution.stats
        assert stats.algorithm == "c_boundaries"
        assert stats.states_examined > 0
        assert stats.peak_memory_bytes > 0
        assert stats.wall_time_s >= 0.0
