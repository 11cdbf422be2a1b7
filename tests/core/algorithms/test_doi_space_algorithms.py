"""Tests for the doi-space algorithms (Figures 9-11)."""

import pytest

from repro.core.algorithms import DHeurDoi, DMaxDoi, DSingleMaxDoi, Exhaustive
from repro.core.algorithms.d_maxdoi import d_find_max_doi, find_optimal
from repro.core.stats import SearchStats
from repro.testing.reference import horizontal, objective_value, within_budget
from repro.workloads.scenarios import (
    FIGURE6_CMAX,
    FIGURE6_COSTS,
    FIGURE6_DOIS,
    figure6_evaluator,
    make_cost_space,
    make_doi_space,
    make_synthetic_evaluator,
)


def figure6_doi_space():
    return make_doi_space(figure6_evaluator(), FIGURE6_CMAX)


class TestDMaxDoi:
    def test_figure6_optimum(self):
        solution = DMaxDoi().solve(figure6_doi_space())
        assert solution.pref_indices == (1, 2, 3)
        assert solution.doi == pytest.approx(1 - 0.2 * 0.3 * 0.4)

    def test_solutions_are_chain_maximal(self):
        space = figure6_doi_space()
        for state in find_optimal(space, SearchStats()):
            assert within_budget(space, state)
            successor = horizontal(state, space.k)
            assert successor is None or not within_budget(space, successor)

    def test_phase2_picks_best_recorded(self):
        space = figure6_doi_space()
        solutions = find_optimal(space, SearchStats())
        best = d_find_max_doi(space, solutions, SearchStats())
        dois = [objective_value(space, s) for s in solutions]
        assert space.evaluator.doi_mask(best) == pytest.approx(max(dois))

    def test_empty_space(self):
        space = make_doi_space(make_synthetic_evaluator([], []), cmax=10)
        assert DMaxDoi().solve(space) is None

    def test_infeasible(self):
        space = make_doi_space(make_synthetic_evaluator([0.9], [100.0]), cmax=10)
        assert DMaxDoi().solve(space) is None

    def test_all_feasible_takes_everything(self):
        space = make_doi_space(
            make_synthetic_evaluator([0.9, 0.5, 0.3], [1.0, 1.0, 1.0]), cmax=10
        )
        assert DMaxDoi().solve(space).pref_indices == (0, 1, 2)


class TestDSingleMaxDoi:
    def test_figure6_optimum(self):
        solution = DSingleMaxDoi().solve(figure6_doi_space())
        assert solution.doi == pytest.approx(1 - 0.2 * 0.3 * 0.4)

    def test_budget_respected(self):
        solution = DSingleMaxDoi().solve(figure6_doi_space())
        assert solution.cost <= FIGURE6_CMAX + 1e-9

    def test_infeasible(self):
        space = make_doi_space(make_synthetic_evaluator([0.9], [100.0]), cmax=10)
        assert DSingleMaxDoi().solve(space) is None

    def test_works_on_cost_space_too(self):
        # space_kind "doi" means it does not *require* alignment; running
        # on C works as well (only the vector order changes).
        evaluator = figure6_evaluator()
        solution = DSingleMaxDoi().solve(make_cost_space(evaluator, FIGURE6_CMAX))
        assert solution is not None
        assert solution.cost <= FIGURE6_CMAX + 1e-9


class TestDHeurDoi:
    def test_figure6_optimum(self):
        solution = DHeurDoi().solve(figure6_doi_space())
        assert solution.doi == pytest.approx(1 - 0.2 * 0.3 * 0.4)

    def test_tiny_exploration(self):
        # The whole point of D-HEURDOI: almost no states examined.
        heur = DHeurDoi().solve(figure6_doi_space())
        exact = DMaxDoi().solve(figure6_doi_space())
        assert heur.stats.states_examined <= exact.stats.states_examined

    def test_infeasible(self):
        space = make_doi_space(make_synthetic_evaluator([0.9], [100.0]), cmax=10)
        assert DHeurDoi().solve(space) is None

    def test_budget_respected_randomized(self):
        import random

        random.seed(11)
        for _ in range(40):
            k = random.randint(1, 9)
            evaluator = make_synthetic_evaluator(
                [random.uniform(0.05, 1) for _ in range(k)],
                [random.uniform(1, 60) for _ in range(k)],
            )
            cmax = random.uniform(0, 60 * k)
            solution = DHeurDoi().solve(make_doi_space(evaluator, cmax))
            if solution is not None:
                assert solution.cost <= cmax + 1e-6

    def test_repair_loop_beats_pure_greedy_sometimes(self):
        # An instance where the greedy alone is suboptimal: the most
        # interesting preference is so expensive it blocks the rest.
        dois = [0.9, 0.85, 0.8, 0.75]
        costs = [100.0, 30.0, 30.0, 30.0]
        evaluator = make_synthetic_evaluator(dois, costs)
        space = make_doi_space(evaluator, cmax=95.0)
        solution = DHeurDoi().solve(space)
        reference = Exhaustive().solve(space)
        assert solution.doi == pytest.approx(reference.doi)
