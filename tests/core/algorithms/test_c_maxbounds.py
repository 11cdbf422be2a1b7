"""Tests for C-MAXBOUNDS (Figure 7) including the paper's Figure 8 trace."""

import pytest

from repro.core.algorithms import CMaxBounds, Exhaustive
from repro.core.algorithms.c_maxbounds import find_max_bounds
from repro.core.stats import SearchStats
from repro.testing.reference import horizontal2, within_budget
from repro.workloads.scenarios import (
    figure6_cost_space,
    make_cost_space,
    make_synthetic_evaluator,
)


def run_phase1(space):
    return find_max_bounds(space, SearchStats())


class TestFigure8Trace:
    def test_paper_maxbounds_output(self):
        # Figure 8: MaxBounds = {c1c3, c2c3c4} — a strict subset of
        # FINDBOUNDARY's output in Figure 6.
        space = figure6_cost_space()
        assert set(run_phase1(space)) == {(0, 2), (1, 2, 3)}

    def test_maxbounds_are_maximal(self):
        # No Horizontal2 insertion into a maximal boundary stays feasible.
        space = figure6_cost_space()
        for bound in run_phase1(space):
            for neighbor in horizontal2(bound, space.k):
                assert not within_budget(space, neighbor)

    def test_solution_matches_exact_on_figure6(self):
        solution = CMaxBounds().solve(figure6_cost_space())
        assert solution.pref_indices == (1, 2, 3)
        assert solution.doi == pytest.approx(1 - 0.2 * 0.3 * 0.4)


class TestHeuristicBehavior:
    def test_tight_budget_keeps_singletons(self):
        # Only single cheap preferences fit: the R != R0 repair
        # (DESIGN.md §4.2) must still record them.
        evaluator = make_synthetic_evaluator([0.9, 0.8, 0.7], [60.0, 55.0, 50.0])
        space = make_cost_space(evaluator, cmax=60.0)
        solution = CMaxBounds().solve(space)
        assert solution is not None
        assert solution.doi == pytest.approx(0.9)

    def test_infeasible_returns_none(self):
        evaluator = make_synthetic_evaluator([0.9], [100.0])
        space = make_cost_space(evaluator, cmax=50.0)
        assert CMaxBounds().solve(space) is None

    def test_never_violates_budget(self):
        import random

        random.seed(3)
        for _ in range(50):
            k = random.randint(1, 8)
            evaluator = make_synthetic_evaluator(
                [random.uniform(0.05, 1) for _ in range(k)],
                [random.uniform(1, 50) for _ in range(k)],
            )
            cmax = random.uniform(0, 50 * k)
            solution = CMaxBounds().solve(make_cost_space(evaluator, cmax))
            if solution is not None:
                assert solution.cost <= cmax + 1e-6

    def test_quality_close_to_oracle_at_realistic_scale(self):
        # At the paper's scale (K >= 10, saturating noisy-or), the gap is
        # tiny — Figure 14's observation.
        import random

        random.seed(5)
        gaps = []
        for _ in range(20):
            k = 12
            evaluator = make_synthetic_evaluator(
                [random.uniform(0.3, 1) for _ in range(k)],
                [random.uniform(10, 100) for _ in range(k)],
            )
            cmax = 0.5 * sum(evaluator.cost_values)
            space = make_cost_space(evaluator, cmax)
            reference = Exhaustive().solve(space)
            found = CMaxBounds().solve(space)
            gaps.append(reference.doi - found.doi)
        assert max(gaps) < 5e-3
        assert sum(gaps) / len(gaps) < 1e-3

    def test_far_fewer_states_than_c_boundaries(self):
        from repro.core.algorithms import CBoundaries

        space = figure6_cost_space()
        greedy = CMaxBounds().solve(space).stats.states_examined
        exact = CBoundaries().solve(figure6_cost_space()).stats.states_examined
        assert greedy <= exact
