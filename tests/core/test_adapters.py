"""Tests for Section 6: solving every Table 1 problem.

Each problem type is checked against a brute-force oracle over random
synthetic instances, plus shape assertions on the movie workload.
"""

import itertools
import random

import pytest

from repro.core import adapters
from repro.core.preference_space import extract_preference_space
from repro.core.problem import CQPProblem
from repro.core.space import SpaceBundle
from repro.core.state import mask_of
from repro.core.stats import SearchStats
from repro.testing import reference as ref
from repro.workloads.scenarios import make_synthetic_evaluator


def brute_force(evaluator, problem):
    """Best (doi, cost, indices) over all subsets, None if infeasible."""
    k = len(evaluator)
    best = None
    for group in range(0, k + 1):
        for state in itertools.combinations(range(k), group):
            doi, cost, size = (
                ref.doi(evaluator, state),
                ref.cost(evaluator, state),
                ref.size(evaluator, state),
            )
            if not problem.satisfies(doi, cost, size):
                continue
            if problem.maximizing:
                if group == 0:
                    continue
                if best is None or doi > best[0]:
                    best = (doi, cost, state)
            else:
                if best is None or cost < best[1]:
                    best = (doi, cost, state)
    return best


def random_instance(rng, k):
    dois = [round(rng.uniform(0.05, 1.0), 3) for _ in range(k)]
    costs = [round(rng.uniform(1, 100), 1) for _ in range(k)]
    sizes = [round(rng.uniform(1, 900), 1) for _ in range(k)]
    return make_synthetic_evaluator(dois, costs, sizes, base_size=1000.0)


class _Bundle:
    """Just enough of SpaceBundle for minimal_feasible_min_cost."""

    def __init__(self, evaluator, problem):
        self.evaluator = evaluator
        self.problem = problem
        self.k = len(evaluator)


class TestMinCostProblems:
    @pytest.mark.parametrize("problem_number", [4, 5, 6])
    def test_matches_brute_force(self, problem_number):
        rng = random.Random(problem_number)
        for _ in range(60):
            k = rng.randint(1, 8)
            evaluator = random_instance(rng, k)
            smin = rng.uniform(0, 50)
            smax = rng.uniform(smin, 1000.0)
            dmin = rng.uniform(0.1, 0.99)
            if problem_number == 4:
                problem = CQPProblem.problem4(dmin=dmin)
            elif problem_number == 5:
                problem = CQPProblem.problem5(dmin=dmin, smin=smin, smax=smax)
            else:
                problem = CQPProblem.problem6(smin=smin, smax=smax)
            reference = brute_force(evaluator, problem)
            indices = adapters.minimal_feasible_min_cost(
                _Bundle(evaluator, problem), SearchStats()
            )
            if reference is None:
                assert indices is None
            else:
                assert indices is not None
                assert evaluator.cost_mask(indices) == pytest.approx(reference[1], abs=1e-6)

    def test_empty_solution_allowed_for_problem6(self):
        # The unpersonalized query already satisfies the window: the
        # minimum cost is not to personalize at all.
        evaluator = make_synthetic_evaluator(
            [0.5, 0.6], [10.0, 20.0], [500.0, 400.0], base_size=800.0
        )
        problem = CQPProblem.problem6(smin=1.0, smax=900.0)
        indices = adapters.minimal_feasible_min_cost(
            _Bundle(evaluator, problem), SearchStats()
        )
        assert indices == 0  # the empty P-index mask


class TestSolveDispatch:
    @pytest.fixture()
    def pspace(self, movie_db, movie_profile, movie_query):
        return extract_preference_space(
            movie_db, movie_query, movie_profile, k_limit=10
        )

    def test_problem2_all_algorithms(self, pspace):
        cmax = 0.5 * pspace.supreme_cost()
        problem = CQPProblem.problem2(cmax=cmax)
        reference = adapters.solve(pspace, problem, "exhaustive")
        for name in ("c_boundaries", "d_maxdoi", "c_maxbounds", "d_heurdoi"):
            solution = adapters.solve(pspace, problem, name)
            assert solution is not None
            assert solution.cost <= cmax + 1e-6
            assert solution.doi <= reference.doi + 1e-9

    def test_problem1_size_window(self, pspace):
        base = pspace.base_size
        problem = CQPProblem.problem1(smin=1.0, smax=base / 2)
        solution = adapters.solve(pspace, problem, "c_boundaries")
        assert solution is not None
        assert 1.0 <= solution.size <= base / 2 * (1 + 1e-6)

    def test_problem3_both_constraints(self, pspace):
        cmax = 0.6 * pspace.supreme_cost()
        problem = CQPProblem.problem3(cmax=cmax, smin=1.0, smax=pspace.base_size)
        reference = adapters.solve(pspace, problem, "exhaustive")
        solution = adapters.solve(pspace, problem, "c_boundaries")
        assert solution is not None
        assert solution.doi == pytest.approx(reference.doi, abs=1e-9)
        assert solution.cost <= cmax + 1e-6
        assert solution.size >= 1.0 - 1e-9

    def test_problem4_minimizes_cost(self, pspace):
        problem = CQPProblem.problem4(dmin=0.5)
        solution = adapters.solve(pspace, problem)
        assert solution is not None
        assert solution.doi >= 0.5 - 1e-9
        # Any single preference with doi >= dmin bounds the answer.
        singles = [
            pspace.cost_values[i]
            for i in range(pspace.k)
            if pspace.doi_values[i] >= 0.5
        ]
        if singles:
            assert solution.cost <= min(singles) + 1e-6

    def test_problem6_cheapest_window(self, pspace):
        problem = CQPProblem.problem6(smin=1.0, smax=pspace.base_size / 4)
        solution = adapters.solve(pspace, problem)
        if solution is not None:
            assert solution.size <= pspace.base_size / 4 * (1 + 1e-6)

    def test_min_problems_ignore_algorithm_argument(self, pspace):
        problem = CQPProblem.problem4(dmin=0.5)
        a = adapters.solve(pspace, problem, "c_boundaries")
        b = adapters.solve(pspace, problem, "d_heurdoi")
        assert (a is None) == (b is None)
        if a is not None:
            assert a.cost == pytest.approx(b.cost)

    def test_space_for_algorithm_vectors(self, pspace):
        bundle = SpaceBundle(pspace, CQPProblem.problem2(cmax=100.0))
        assert adapters.space_for_algorithm(bundle, "c_boundaries").name == "cost"
        assert adapters.space_for_algorithm(bundle, "d_maxdoi").name == "doi"

    def test_space_for_algorithm_rejects_min_problems(self, pspace):
        from repro.errors import SearchError

        bundle = SpaceBundle(pspace, CQPProblem.problem4(dmin=0.5))
        with pytest.raises(SearchError):
            adapters.space_for_algorithm(bundle, "c_boundaries")


class TestMinCostWithConflicts:
    def test_matches_brute_force_with_conflicts(self):
        rng = random.Random(77)
        for _ in range(40):
            k = rng.randint(2, 7)
            evaluator = make_synthetic_evaluator(
                [round(rng.uniform(0.05, 1.0), 3) for _ in range(k)],
                [round(rng.uniform(1, 100), 1) for _ in range(k)],
                [round(rng.uniform(1, 900), 1) for _ in range(k)],
                base_size=1000.0,
            )
            # Inject a random conflict pair: its conjunction has size 0.
            pair = tuple(sorted(rng.sample(range(k), 2)))
            evaluator.conflict_masks = (mask_of(pair),)
            problem = CQPProblem.problem6(
                smin=rng.uniform(0, 20), smax=rng.uniform(100, 1000)
            )
            reference = brute_force(evaluator, problem)
            indices = adapters.minimal_feasible_min_cost(
                _Bundle(evaluator, problem), SearchStats()
            )
            if reference is None:
                assert indices is None
            else:
                assert indices is not None
                assert evaluator.cost_mask(indices) == pytest.approx(reference[1], abs=1e-6)

    def test_conflicted_pair_never_chosen_under_smin(self):
        evaluator = make_synthetic_evaluator(
            [0.9, 0.8], [10.0, 10.0], [500.0, 400.0], base_size=1000.0
        )
        evaluator.conflict_masks = (mask_of((0, 1)),)
        problem = CQPProblem.problem5(dmin=0.97, smin=1.0, smax=1000.0)
        # Reaching doi 0.97 needs both preferences, but together their
        # size is 0 < smin: correctly infeasible.
        indices = adapters.minimal_feasible_min_cost(
            _Bundle(evaluator, problem), SearchStats()
        )
        assert indices is None


class TestRecommendedAlgorithm:
    def test_problem2_gets_greedy(self):
        assert adapters.recommended_algorithm(CQPProblem.problem2(cmax=10)) == "c_maxbounds"

    def test_size_window_problems_get_exact(self):
        assert (
            adapters.recommended_algorithm(CQPProblem.problem1(smin=1, smax=5))
            == "c_boundaries"
        )
        assert (
            adapters.recommended_algorithm(
                CQPProblem.problem3(cmax=10, smin=1, smax=5)
            )
            == "c_boundaries"
        )

    def test_min_problems_get_min_cost(self):
        assert adapters.recommended_algorithm(CQPProblem.problem4(dmin=0.5)) == "min_cost"
