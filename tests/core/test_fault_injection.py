"""Resilience drills: injected faults never change any answer.

The deterministic injector (:mod:`repro.testing.faults`) evicts caches
mid-solve, bumps database statistics between sweep steps, and raises
transient errors inside scheduler workers. Every drill asserts the same
thing: the degraded system returns results **bit identical** to a clean
cold run, and only the ``faults_injected`` / ``fallbacks_taken``
counters betray that anything happened.
"""

from __future__ import annotations

import pytest

from repro.core import adapters
from repro.core.algorithms.scheduler import SolveScheduler, TransientFault
from repro.core.frontier_cache import FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.personalizer import Personalizer
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.sql.parser import parse_select
from repro.testing.differential import Receipt, synthetic_scenario, table1_problems
from repro.testing.faults import SITES, FaultInjector, FaultPlan
from repro.workloads.profiles import generate_profile


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        assert FaultPlan.seeded(42) == FaultPlan.seeded(42)
        assert FaultPlan.seeded(42) != FaultPlan.seeded(43)

    def test_seeded_covers_every_site(self):
        plan = FaultPlan.seeded(7)
        assert set(plan.periods) == set(SITES)

    def test_quiet_plan_never_fires(self):
        injector = FaultInjector(FaultPlan.quiet())
        for _ in range(50):
            injector.maybe_raise("scheduler.worker")
        assert injector.faults_injected == 0

    def test_rejects_bad_periods_and_phases(self):
        with pytest.raises(ValueError):
            FaultPlan(periods={"scheduler.worker": 0})
        with pytest.raises(ValueError):
            FaultPlan(periods={"scheduler.worker": 2}, phases={"scheduler.worker": -1})


class TestFaultInjector:
    def test_counter_schedule_period_and_phase(self):
        plan = FaultPlan(periods={"s": 3}, phases={"s": 1})
        injector = FaultInjector(plan)
        fired = [injector._fires("s", "x") for _ in range(10)]
        # calls 1..10, phase 1 → due = call-1 fires at due % 3 == 0,
        # i.e. calls 4, 7, 10.
        assert fired == [False, False, False, True, False, False, True,
                         False, False, True]
        assert injector.faults_injected == 3

    def test_disarm_silences_but_keeps_counting(self):
        injector = FaultInjector(FaultPlan(periods={"s": 1}))
        injector.disarm()
        assert not injector._fires("s", "x")
        injector.rearm()
        assert injector._fires("s", "x")
        assert injector.calls_at("s") == 2

    def test_describe_names_the_seed(self):
        injector = FaultInjector(FaultPlan.seeded(99))
        assert "FaultPlan.seeded(99)" in injector.describe()


class TestSchedulerResilience:
    def test_retry_absorbs_sparse_faults(self):
        injector = FaultInjector(FaultPlan(periods={"scheduler.worker": 4}))
        scheduler = SolveScheduler(1, retries=1, fault_injector=injector)
        assert scheduler.map(lambda x: x * 10, [1, 2, 3, 4]) == [10, 20, 30, 40]
        assert scheduler.fallbacks_taken == 0
        assert scheduler.faults_seen == injector.faults_injected > 0

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_persistent_faults_fall_back_in_order(self, parallelism):
        injector = FaultInjector(FaultPlan(periods={"scheduler.worker": 1}))
        scheduler = SolveScheduler(parallelism, retries=1, fault_injector=injector)
        out = scheduler.map(lambda x: x * 10, [1, 2, 3], fallback=lambda x: x * 10)
        assert out == [10, 20, 30]
        assert scheduler.fallbacks_taken == 3

    def test_no_fallback_propagates_transient(self):
        injector = FaultInjector(FaultPlan(periods={"scheduler.worker": 1}))
        scheduler = SolveScheduler(1, retries=0, fault_injector=injector)
        with pytest.raises(TransientFault):
            scheduler.map(lambda x: x, [1])

    def test_real_bugs_are_not_retried(self):
        scheduler = SolveScheduler(1, retries=3)
        with pytest.raises(ZeroDivisionError):
            scheduler.map(lambda x: 1 // x, [0], fallback=lambda x: 0)


class TestSolverUnderCacheEviction:
    """Mid-solve frontier-cache evictions never change a solve."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cboundaries_exact_under_eviction(self, seed):
        pspace = synthetic_scenario(seed, k_min=4, k_max=7)
        problems = table1_problems(pspace)
        clean = {
            n: Receipt.of(adapters.solve(pspace, problems[n], "c_boundaries"))
            for n in problems
        }
        injector = FaultInjector(FaultPlan.seeded(seed))
        cache = FrontierCache()
        injector.arm_cache(cache)
        for n in sorted(problems):
            solution = adapters.solve(
                pspace, problems[n], "c_boundaries", frontier_cache=cache
            )
            assert Receipt.of(solution) == clean[n], injector.describe()
        assert injector.faults_injected > 0, "drill never fired; tighten the plan"


class TestStatsBumpBetweenSweepSteps:
    """A re-ANALYZE between sweep steps flushes every token-tagged cache
    and the sweep still lands on the exact answers."""

    @pytest.fixture()
    def small_db(self):
        return build_movie_database(
            MovieDatasetConfig(
                n_movies=150, n_directors=40, n_actors=80, cast_per_movie=2
            ),
            seed=5,
        )

    def test_sweep_exact_across_stats_bumps(self, small_db):
        profile = generate_profile(small_db, seed=11)
        query = parse_select("select title from MOVIE")

        def sweep(database, injector=None):
            personalizer = Personalizer(
                database,
                param_cache=ParameterCache(),
                frontier_cache=FrontierCache(),
            )
            receipts = []
            probe = personalizer.personalize(
                query, profile, CQPProblem.problem2(cmax=float("inf")),
                algorithm="c_boundaries", k_limit=6,
            )
            supreme = probe.preference_space.supreme_cost()
            for fraction in (0.8, 0.6, 0.4, 0.2):
                outcome = personalizer.personalize(
                    query, profile,
                    CQPProblem.problem2(cmax=supreme * fraction),
                    algorithm="c_boundaries", k_limit=6,
                )
                receipts.append(Receipt.of(outcome.solution))
                if injector is not None:
                    injector.between_steps(database)
            return receipts

        clean = sweep(small_db)
        injector = FaultInjector(FaultPlan(periods={"sweep.step": 2}))
        bumped = sweep(small_db, injector)
        assert bumped == clean
        assert injector.faults_injected > 0


class TestServiceDegradation:
    """The full service under a hostile plan: cache evictions everywhere
    plus always-failing workers. Responses must match a clean service
    bit for bit, with the degradation visible only in the counters."""

    def _batch(self, service, query, k_limit=7):
        probe = service.personalizer.personalize(
            query,
            service._users["drill"].profile,
            CQPProblem.problem2(cmax=float("inf")),
            algorithm="c_maxbounds",
            k_limit=k_limit,
        )
        problems = table1_problems(probe.preference_space)
        return [
            BatchRequest(
                user="drill",
                query=query,
                problem=problems[n],
                algorithm="c_boundaries" if n <= 3 else None,
                k_limit=k_limit,
            )
            for n in sorted(problems)
        ]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_hostile_plan_leaves_answers_identical(
        self, movie_db, movie_profile, movie_query, parallelism
    ):
        def run(injector):
            service = PersonalizationService(
                movie_db,
                param_cache=ParameterCache(),
                frontier_cache=FrontierCache(),
                parallelism=parallelism,
                fault_injector=injector,
                solve_retries=1,
            )
            service.register("drill", movie_profile)
            batch = self._batch(service, movie_query)
            return service.request_many(batch)

        clean = run(None)
        plan = FaultPlan(
            periods={
                "param_cache.price": 3,
                "frontier_cache.lookup": 2,
                "frontier_cache.evaluator": 2,
                    "scheduler.worker": 1,  # every attempt fails → fallback
            },
            phases={"param_cache.price": 1},
        )
        injector = FaultInjector(plan)
        degraded = run(injector)

        assert len(degraded) == len(clean)
        for clean_response, degraded_response in zip(clean, degraded):
            assert (
                Receipt.of(degraded_response.outcome.solution)
                == Receipt.of(clean_response.outcome.solution)
            ), injector.describe()
            assert degraded_response.rows == clean_response.rows
        assert injector.faults_injected > 0
        assert any(r.faults_injected > 0 for r in degraded)
        assert any(r.fallbacks_taken > 0 for r in degraded)
        assert any(r.degraded for r in degraded)
        assert not any(r.degraded for r in clean)

    def test_quiet_plan_reports_nothing(self, movie_db, movie_profile, movie_query):
        injector = FaultInjector(FaultPlan.quiet())
        service = PersonalizationService(
            movie_db,
            fault_injector=injector,
            parallelism=2,
        )
        service.register("drill", movie_profile)
        responses = service.request_many(self._batch(service, movie_query))
        assert injector.faults_injected == 0
        assert all(r.faults_injected == 0 for r in responses)
        assert all(not r.degraded for r in responses)
