"""The workload compiler and the fleet generators feeding it."""

from __future__ import annotations

import pytest

from repro.core.interning import ProfileInterner, profile_fingerprint
from repro.core.problem import CQPProblem
from repro.core.service import PersonalizationService
from repro.workloads.compiler import (
    compile_workload,
    problem_from_spec,
    problem_to_spec,
)
from repro.workloads.profiles import (
    fleet_archetypes,
    fleet_member,
    generate_fleet,
    generate_profiles,
)
from repro.workloads.queries import generate_queries

CMAX = 400.0


class TestProfileSeeding:
    def test_profiles_are_a_pure_function_of_seed_and_index(self, movie_db):
        whole = generate_profiles(movie_db, count=6, seed=9)
        resumed = generate_profiles(movie_db, count=2, seed=9, start=4)
        assert profile_fingerprint(resumed[0]) == profile_fingerprint(whole[4])
        assert profile_fingerprint(resumed[1]) == profile_fingerprint(whole[5])

    def test_distinct_base_seeds_do_not_collide(self, movie_db):
        # The old seed*10_000+index scheme collided (seed=1, index=0)
        # with (seed=0, index=10_000); the derived scheme must not.
        a = generate_profiles(movie_db, count=3, seed=0)
        b = generate_profiles(movie_db, count=3, seed=1)
        fingerprints = {profile_fingerprint(p) for p in a + b}
        assert len(fingerprints) == 6


class TestFleet:
    def test_fleet_is_reproducible_and_chunk_independent(self, movie_db):
        fleet = generate_fleet(movie_db, 20, archetypes=4, seed=2)
        again = generate_fleet(movie_db, 20, archetypes=4, seed=2)
        assert [profile_fingerprint(p) for p in fleet] == [
            profile_fingerprint(p) for p in again
        ]
        # Any single member is reconstructible without the whole fleet.
        base = fleet_archetypes(movie_db, 4, seed=2)
        member = fleet_member(base, 2, 13)
        assert profile_fingerprint(member) == profile_fingerprint(fleet[13])
        assert member.name == fleet[13].name == "user-000013"

    def test_fleet_interns_down_to_its_archetypes(self, movie_db):
        fleet = generate_fleet(movie_db, 40, archetypes=5, seed=2)
        interner = ProfileInterner()
        for profile in fleet:
            interner.intern(profile)
        assert len(interner) == 5
        assert interner.compression == 8.0

    def test_members_are_object_distinct(self, movie_db):
        fleet = generate_fleet(movie_db, 4, archetypes=1, seed=2)
        assert len({id(p) for p in fleet}) == 4


class TestProblemSpecs:
    @pytest.mark.parametrize(
        "problem",
        [
            CQPProblem.problem1(smin=2.0, smax=50.0),
            CQPProblem.problem2(cmax=123.5),
            CQPProblem.problem3(cmax=99.0, smin=1.0, smax=10.0),
            CQPProblem.problem4(dmin=0.25),
            CQPProblem.problem5(dmin=0.5, smin=2.0),
            CQPProblem.problem6(smin=2.0, smax=8.0),
        ],
    )
    def test_round_trip(self, problem):
        assert problem_from_spec(problem_to_spec(problem)) == problem


class TestCompileWorkload:
    @pytest.fixture(scope="class")
    def compiled(self, movie_db):
        fleet = generate_fleet(movie_db, 30, archetypes=3, seed=4)
        queries = generate_queries(count=2, seed=4)
        problems = [CQPProblem.problem2(cmax=CMAX)]
        return (
            compile_workload(
                movie_db, fleet, queries, problems,
                algorithms=["c_boundaries"], k_limit=8,
            ),
            fleet,
            queries,
            problems,
        )

    def test_telemetry_reports_both_compressions(self, compiled):
        workload, _, _, _ = compiled
        telemetry = workload.telemetry
        assert workload.interning["fleet_size"] == 30
        assert workload.interning["canonical_profiles"] == 3
        assert telemetry["profile_compression"] == 10.0
        # 30 users x 2 queries x 1 cluster over at most 3x2 signatures.
        assert telemetry["fleet_requests"] == 60
        assert 1 <= telemetry["distinct_signatures"] <= 6
        assert telemetry["signature_compression"] >= 10.0
        assert telemetry["units"] == 6
        for cache in ("param_cache", "frontier_cache"):
            assert telemetry[cache]["entries"] > 0

    def test_compiled_state_is_populated(self, compiled):
        workload, _, _, _ = compiled
        assert workload.param_state["entries"]
        assert workload.frontier_state["memos"]

    def test_warm_boot_answers_with_zero_misses(self, movie_db, compiled):
        workload, fleet, queries, problems = compiled
        service = PersonalizationService(movie_db, snapshot=workload)
        service.register("u9", fleet[9])
        response = service.request(
            "u9", queries[0], problem=problems[0],
            algorithm="c_boundaries", k_limit=8,
        )
        telemetry = response.cache_telemetry
        for cache in ("param_cache", "frontier_cache"):
            assert telemetry[cache]["hits"] > 0, cache
            assert telemetry[cache]["misses"] == 0, cache

    def test_parallel_compile_is_bit_identical(self, movie_db, compiled):
        workload, fleet, queries, problems = compiled
        parallel = compile_workload(
            movie_db, fleet, queries, problems,
            algorithms=["c_boundaries"], k_limit=8,
            parallelism=4, backend="serial",
        )
        assert parallel.param_state["entries"] == workload.param_state["entries"]
        assert parallel.frontier_state["memos"] == workload.frontier_state["memos"]
        assert parallel.fingerprint == workload.fingerprint

    def test_response_telemetry_present_on_cold_services_too(
        self, movie_db, compiled
    ):
        _, fleet, queries, problems = compiled
        service = PersonalizationService(movie_db)
        service.register("cold", fleet[0])
        response = service.request(
            "cold", queries[0], problem=problems[0], k_limit=8
        )
        assert set(response.cache_telemetry) >= {"param_cache", "frontier_cache"}
        shape = {
            "hits", "misses", "lookups", "invalidations", "evictions",
            "entries", "bytes_estimate",
        }
        for counters in response.cache_telemetry.values():
            assert shape <= set(counters)


class TestCompileCli:
    def test_unknown_backend_is_an_argparse_error(self, capsys):
        from repro.experiments.workload_cli import build_workload_parser

        parser = build_workload_parser()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(
                ["compile", "--out", "unused", "--backend", "thread"]
            )
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err
        options = parser.parse_args(
            ["compile", "--out", "unused", "--backend", "process"]
        )
        assert options.backend == "process"
