"""Integration tests for the Personalizer façade and context policies."""

import pytest

from repro.core.adapters import recommended_algorithm
from repro.core.context import SearchContext, problem_for_context
from repro.core.personalizer import Personalizer
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest
from repro.errors import ProblemSpecError
from repro.preferences.profile import UserProfile
from repro.serving.batcher import PendingRequest
from repro.serving.config import ServingConfig
from repro.serving.degradation import DegradationPolicy
from repro.testing.differential import table1_problems
from repro.workloads.compiler import compile_workload
from repro.workloads.scenarios import figure1_profile


class TestPersonalizer:
    def test_end_to_end_problem2(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE", movie_profile, CQPProblem.problem2(cmax=200.0)
        )
        assert outcome.personalized
        assert outcome.solution.cost <= 200.0 + 1e-6
        assert "union all" in outcome.sql or "select distinct" in outcome.sql

    def test_execute_returns_rows_within_budget_ballpark(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE", movie_profile, CQPProblem.problem2(cmax=200.0)
        )
        result = personalizer.execute(outcome)
        # Measured I/O equals the estimate (same formula, same scans);
        # the CPU surcharge keeps total within ~2x.
        assert result.io_ms <= 200.0 + 1e-6
        assert result.elapsed_ms <= 2 * 200.0

    def test_accepts_parsed_query(self, movie_db, movie_profile, movie_query):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            movie_query, movie_profile, CQPProblem.problem2(cmax=200.0)
        )
        assert outcome.original_query is movie_query

    def test_infeasible_falls_back_to_original(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE",
            movie_profile,
            CQPProblem.problem2(cmax=0.001),  # nothing fits
        )
        assert not outcome.personalized
        # The fallback is the original query (modulo column qualification
        # the rewriter applies up front): same tables, same conditions.
        fallback = outcome.personalized_query
        assert fallback.from_tables == outcome.original_query.from_tables
        assert len(fallback.where) == len(outcome.original_query.where)
        # Executing the fallback still works.
        assert len(Personalizer(movie_db).execute(outcome)) > 0

    def test_empty_profile_unpersonalized(self, movie_db):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE", UserProfile("empty"), CQPProblem.problem2(cmax=100)
        )
        assert not outcome.personalized

    def test_k_limit_bounds_preferences(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE",
            movie_profile,
            CQPProblem.problem2(cmax=1e9),
            k_limit=3,
        )
        assert outcome.preference_space.k == 3
        assert len(outcome.paths) <= 3

    def test_paper_figure1_profile_end_to_end(self, movie_db):
        # The W. Allen path can never match the synthetic data, but the
        # pipeline must still produce the paper's query shape.
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE",
            figure1_profile(),
            CQPProblem.problem2(cmax=1e9),
        )
        assert outcome.personalized
        assert len(outcome.paths) == 2
        assert outcome.sql.endswith("having count(*) = 2")

    def test_explain_renders_plan(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE", movie_profile, CQPProblem.problem2(cmax=200.0)
        )
        text = personalizer.explain(outcome)
        assert "Scan(" in text
        if len(outcome.paths) > 1:
            assert "GroupHavingCount" in text
            assert "UnionAll" in text

    def test_problem4_outcome(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE", movie_profile, CQPProblem.problem4(dmin=0.5)
        )
        assert outcome.solution is not None
        assert outcome.solution.doi >= 0.5 - 1e-9


class TestOneDefaultingRule:
    """``recommended_algorithm`` is the only defaulting rule: the
    personalizer, the workload compiler and the serving layer's
    degradation policy all resolve an unset algorithm through it."""

    def test_every_layer_defaults_like_recommended_algorithm(
        self, movie_db, movie_profile, movie_query
    ):
        personalizer = Personalizer(movie_db)
        probe = personalizer.personalize(
            movie_query,
            movie_profile,
            CQPProblem.problem2(cmax=float("inf")),
            k_limit=7,
        )
        problems = [
            problem
            for _, problem in sorted(table1_problems(probe.preference_space).items())
        ]
        expected = [recommended_algorithm(problem) for problem in problems]
        assert set(expected) == {"c_boundaries", "c_maxbounds", "min_cost"}

        for problem, algorithm in zip(problems, expected):
            outcome = personalizer.personalize(
                movie_query, movie_profile, problem, k_limit=7
            )
            assert outcome.solution is not None
            assert outcome.solution.algorithm == algorithm

        compiled = compile_workload(
            movie_db, [movie_profile], [movie_query], problems, k_limit=7
        )
        assert compiled.meta["algorithms"] == expected

        config = ServingConfig()
        policy = DegradationPolicy(config)
        for problem, algorithm in zip(problems, expected):
            pending = PendingRequest(
                seq=0,
                request=BatchRequest(user="al", query=movie_query, problem=problem),
                tier=config.tier("gold"),
                arrived_at=0.0,
                flush_by=0.0,
            )
            assert policy._requested(pending) == algorithm


class TestContextPolicy:
    def test_palmtop_gets_problem3(self):
        context = SearchContext(device="palmtop", max_results=3)
        problem = problem_for_context(context)
        assert problem.table1_number() == 3
        assert problem.constraints.smax == 3

    def test_desktop_with_time_budget_gets_problem2(self):
        problem = problem_for_context(
            SearchContext(device="desktop", time_budget_ms=2000)
        )
        assert problem.table1_number() == 2

    def test_desktop_with_result_cap_gets_problem1(self):
        problem = problem_for_context(SearchContext(device="desktop", max_results=10))
        assert problem.table1_number() == 1

    def test_min_interest_flips_to_cost_minimization(self):
        problem = problem_for_context(
            SearchContext(device="laptop", min_interest=0.9)
        )
        assert problem.table1_number() == 4
        problem = problem_for_context(
            SearchContext(device="palmtop", min_interest=0.9)
        )
        assert problem.table1_number() == 5

    def test_slow_link_implies_time_budget(self):
        problem = problem_for_context(
            SearchContext(device="desktop", bandwidth_kbps=56.0)
        )
        assert problem.constraints.cmax is not None

    def test_unconstrained_context_rejected(self):
        with pytest.raises(ProblemSpecError):
            problem_for_context(SearchContext(device="desktop"))

    def test_phone_defaults(self):
        problem = problem_for_context(SearchContext(device="phone"))
        assert problem.table1_number() == 3
