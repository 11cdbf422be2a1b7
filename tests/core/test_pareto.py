"""Tests for multi-objective CQP (the paper's future-work extension)."""

import random

import pytest

from repro.core.pareto import budget_for_doi, knee_point, pareto_front
from repro.core.preference_space import extract_preference_space
from repro.core.problem import Constraints, CQPProblem
from repro.core.space import SpaceBundle
from repro.core.algorithms import CBoundaries
from repro.errors import SearchError
from repro.workloads.scenarios import figure6_evaluator, make_synthetic_evaluator


class TestParetoFront:
    def test_front_mutually_non_dominated(self):
        front = pareto_front(figure6_evaluator())
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = a.doi >= b.doi and a.cost <= b.cost
                assert not dominates or (a.doi == b.doi and a.cost == b.cost)

    def test_front_sorted_and_monotone(self):
        front = pareto_front(figure6_evaluator())
        costs = [s.cost for s in front]
        dois = [s.doi for s in front]
        assert costs == sorted(costs)
        assert dois == sorted(dois)

    def test_contains_problem2_optimum_at_any_budget(self):
        # Sweep property: for every cmax, the Problem 2 optimum's doi is
        # achieved by the best front point within budget.
        rng = random.Random(0)
        for _ in range(30):
            k = rng.randint(1, 8)
            evaluator = make_synthetic_evaluator(
                [rng.uniform(0.05, 1) for _ in range(k)],
                [rng.uniform(1, 50) for _ in range(k)],
            )
            front = pareto_front(evaluator)
            cmax = rng.uniform(0, 50 * k)
            from repro.workloads.scenarios import make_cost_space

            reference = CBoundaries().solve(make_cost_space(evaluator, cmax))
            within = [s for s in front if s.cost <= cmax + 1e-9]
            if reference is None:
                assert not within
            else:
                assert within
                assert max(s.doi for s in within) == pytest.approx(reference.doi)

    def test_size_window_filters(self):
        evaluator = make_synthetic_evaluator(
            [0.9, 0.8], [10.0, 20.0], [100.0, 2.0], base_size=1000.0
        )
        constrained = pareto_front(evaluator, Constraints(smin=50.0))
        assert all(s.size >= 50.0 for s in constrained)
        assert len(constrained) < len(pareto_front(evaluator))

    def test_k_guard(self):
        evaluator = make_synthetic_evaluator([0.5] * 25, [1.0] * 25)
        with pytest.raises(SearchError):
            pareto_front(evaluator)

    def test_empty_evaluator(self):
        assert pareto_front(make_synthetic_evaluator([], [])) == []

    def test_front_on_real_workload(self, movie_db, movie_profile, movie_query):
        pspace = extract_preference_space(
            movie_db, movie_query, movie_profile, k_limit=8
        )
        front = pareto_front(pspace.evaluator())
        assert front
        # The all-preferences state is always the doi-maximal endpoint.
        assert front[-1].doi == pytest.approx(pspace.evaluator().doi(tuple(range(8))))


class TestFrontSelectors:
    def test_knee_on_empty_front(self):
        assert knee_point([]) is None

    def test_knee_is_on_front(self):
        front = pareto_front(figure6_evaluator())
        knee = knee_point(front)
        assert knee in front

    def test_budget_for_doi_cheapest(self):
        front = pareto_front(figure6_evaluator())
        target = front[len(front) // 2].doi
        chosen = budget_for_doi(front, target)
        assert chosen is not None
        assert chosen.doi >= target - 1e-9
        cheaper = [s for s in front if s.cost < chosen.cost - 1e-9]
        assert all(s.doi < target - 1e-9 for s in cheaper)

    def test_budget_for_doi_unreachable(self):
        front = pareto_front(figure6_evaluator())
        assert budget_for_doi(front, 2.0) is None

    def test_budget_for_doi_matches_problem4(self):
        # The multi-objective reading of Problem 4: the cheapest front
        # point reaching dmin has the Problem 4 optimum's cost.
        from repro.core import adapters
        from repro.core.stats import SearchStats

        evaluator = figure6_evaluator()
        front = pareto_front(evaluator)
        dmin = 0.85

        class _Bundle:
            def __init__(self):
                self.evaluator = evaluator
                self.problem = CQPProblem.problem4(dmin=dmin)
                self.k = len(evaluator)

        indices = adapters.minimal_feasible_min_cost(_Bundle(), SearchStats())
        chosen = budget_for_doi(front, dmin)
        assert indices is not None and chosen is not None
        assert evaluator.cost_mask(indices) == pytest.approx(chosen.cost)
