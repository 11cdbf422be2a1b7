"""Resilience drills: injected faults never change any answer.

The deterministic injector (:mod:`repro.testing.faults`) evicts caches
mid-solve and bumps database statistics between sweep steps. Every
drill asserts the same thing: the drilled system returns results **bit
identical** to a clean cold run, and only the injector's ``fired``
counter betrays that anything happened. A genuine exception inside a
solve is not absorbed: it reaches the caller as its own type, and the
service keeps answering exactly like a fresh one.
"""

from __future__ import annotations

import pytest

from repro.core import adapters
from repro.core.algorithms.scheduler import SolveScheduler
from repro.core.frontier_cache import FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.personalizer import Personalizer
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
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
            for site in SITES:
                assert not injector._fires(site, "x")
        assert injector.fired == 0

    def test_rejects_bad_periods_and_phases(self):
        with pytest.raises(ValueError):
            FaultPlan(periods={"sweep.step": 0})
        with pytest.raises(ValueError):
            FaultPlan(periods={"sweep.step": 2}, phases={"sweep.step": -1})


class TestFaultInjector:
    def test_counter_schedule_period_and_phase(self):
        plan = FaultPlan(periods={"s": 3}, phases={"s": 1})
        injector = FaultInjector(plan)
        fired = [injector._fires("s", "x") for _ in range(10)]
        # calls 1..10, phase 1 → due = call-1 fires at due % 3 == 0,
        # i.e. calls 4, 7, 10.
        assert fired == [False, False, False, True, False, False, True,
                         False, False, True]
        assert injector.fired == 3

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
    def test_real_bugs_are_not_retried(self):
        calls = []

        def task(x):
            calls.append(x)
            return 1 // x

        with pytest.raises(ZeroDivisionError):
            SolveScheduler().map(task, [2, 0, 1])
        assert calls == [2, 0]  # ran in order, once each, and stopped


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
        assert injector.fired > 0, "drill never fired; tighten the plan"


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
        assert injector.fired > 0


def _drill_batch(service, query, k_limit=7):
    """One request per Table 1 problem for the user ``"drill"``."""
    probe = service.personalizer.personalize(
        query,
        service.profile_of("drill"),
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


def _payloads(responses):
    return [
        (
            Receipt.of(r.outcome.solution),
            to_sql(r.outcome.personalized_query),
            r.rows,
            r.elapsed_ms,
        )
        for r in responses
    ]


def _drill_service(database, profile, injector=None):
    service = PersonalizationService(
        database,
        param_cache=ParameterCache(),
        frontier_cache=FrontierCache(),
        fault_injector=injector,
    )
    service.register("drill", profile)
    return service


class TestServiceDegradation:
    """The full service under a hostile plan: evictions at every cache
    site. Responses must match a clean service bit for bit; evictions
    only make a cache colder, so no response reads as degraded."""

    def test_hostile_plan_leaves_answers_identical(
        self, movie_db, movie_profile, movie_query
    ):
        def run(injector):
            service = _drill_service(movie_db, movie_profile, injector)
            return service.request_many(_drill_batch(service, movie_query))

        clean = run(None)
        plan = FaultPlan(
            periods={
                "param_cache.price": 3,
                "frontier_cache.lookup": 2,
                "frontier_cache.memo": 2,
            },
            phases={"param_cache.price": 1},
        )
        injector = FaultInjector(plan)
        drilled = run(injector)

        assert _payloads(drilled) == _payloads(clean), injector.describe()
        assert injector.fired > 0
        assert {site for site, _, _ in injector.log} == set(plan.periods)
        assert not any(r.degraded for r in drilled)
        assert not any(r.degraded for r in clean)

    def test_quiet_plan_reports_nothing(self, movie_db, movie_profile, movie_query):
        injector = FaultInjector(FaultPlan.quiet())
        service = _drill_service(movie_db, movie_profile, injector)
        responses = service.request_many(_drill_batch(service, movie_query))
        assert injector.fired == 0
        assert all(not r.degraded for r in responses)


class SolveCrashed(Exception):
    """A failure no layer of the service knows about."""


class TestErrorsInsideASolve:
    """Nothing absorbs an exception raised inside a solve: it reaches
    ``request_many``'s caller as its own type, and the next request on
    the same service answers bit-identically to a fresh service."""

    @pytest.mark.parametrize(
        "site",
        ["param_cache.price", "frontier_cache.lookup", "frontier_cache.memo"],
    )
    def test_error_reaches_the_caller_and_the_service_recovers(
        self, movie_db, movie_profile, movie_query, site
    ):
        service = _drill_service(movie_db, movie_profile)
        batch = _drill_batch(service, movie_query)
        cache = (
            service.param_cache
            if site.startswith("param_cache")
            else service.frontier_cache
        )
        calls = []

        def crash_on_third_call(name):
            if name == site:
                calls.append(name)
                if len(calls) == 3:
                    raise SolveCrashed(name)

        cache.fault_hook = crash_on_third_call
        with pytest.raises(SolveCrashed):
            service.request_many(batch)
        cache.fault_hook = None
        assert len(calls) == 3  # the crash hit mid-batch, not after it

        fresh = _drill_service(movie_db, movie_profile)
        assert _payloads(service.request_many(batch)) == _payloads(
            fresh.request_many(batch)
        )
