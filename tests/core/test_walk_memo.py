"""The walk memo: extraction as a filter over one memoized Figure 3 walk.

A request's preference space is the first ``k_limit`` paths of the
unconstrained walk whose chain bounds pass its ``(cmax, smin)``. These
tests hold that filter to :func:`extract_preference_space` field for
field, walk the memo through its first sight, second sight and hit, and
check that whatever changes the walk's inputs (the profile, a relearn,
the statistics) gives the answer a fresh service gives.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.param_cache import ParameterCache
from repro.core.personalizer import Personalizer
from repro.core.preference_space import MemoizedWalk, extract_preference_space
from repro.core.problem import Constraints, CQPProblem
from repro.core.service import PersonalizationService
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.preferences.composition import MIN_SUM_ALGEBRA, PRODUCT_ALGEBRA
from repro.preferences.model import AtomicPreference
from repro.preferences.profile import UserProfile
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.testing.differential import Receipt
from repro.workloads.profiles import ProfileConfig, generate_profile
from repro.workloads.queries import generate_queries

QUERIES = generate_queries(6, seed=3)
SMALL_PROFILE = ProfileConfig(
    n_genre_prefs=5, n_director_prefs=6, n_actor_prefs=6, n_movie_prefs=4
)


def space_fields(space):
    """Every field of a preference space but its timings."""
    return (
        [path.conditions for path in space.paths],
        space.doi_values,
        space.cost_values,
        space.size_values,
        space.reductions,
        space.base_cost,
        space.base_size,
        space.algebra.signature,
        space.vector_d,
        space.vector_c,
        space.vector_s,
        space.conflicts,
        to_sql(space.query),
    )


def coarse(profile: UserProfile) -> UserProfile:
    """``profile`` with its dois rounded to one decimal: many doi ties,
    so the walk's FIFO tie-break decides the order."""
    return UserProfile(
        profile.name,
        (
            AtomicPreference(pref.condition, max(0.1, round(pref.doi, 1)))
            for pref in profile
        ),
    )


def bound(data, values, label):
    """None, a value drawn over ``values``' range, or one of ``values``
    exactly (the prune's boundary)."""
    choice = data.draw(st.sampled_from(("none", "range", "exact")), label=label)
    if choice == "none" or not values:
        return None
    if choice == "exact":
        return data.draw(st.sampled_from(sorted(set(values))), label=label)
    low, high = min(values), max(values)
    return data.draw(
        st.floats(low - 1.0, high + 1.0, allow_nan=False), label=label
    )


def scrambled_cost(estimator, path):
    """A cost that ignores the cost model: a fixed function of the
    path's conditions, so a join prefix may cost more than the path."""
    return 5.0 + zlib.crc32(repr(path.conditions).encode()) % 1000 / 10.0


def scrambled_reduction(estimator, path):
    return zlib.crc32(repr(path.conditions).encode() + b"r") % 1000 / 1000.0


@given(st.data())
def test_filter_matches_the_pruned_walk(movie_db, data):
    filter_matches_walk(movie_db, data)


@given(st.data())
def test_filter_is_exact_whatever_the_pricing(movie_db, data):
    # The cost model never lowers a path's cost or raises its size when
    # the path grows, so on real prices a path's chain bounds are its
    # own figures. The filter must not depend on that: under prices
    # that break it, the chain bounds carry the prefixes' figures.
    from repro.core.estimation import ParameterEstimator

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ParameterEstimator, "path_cost", scrambled_cost)
        patch.setattr(ParameterEstimator, "path_reduction", scrambled_reduction)
        filter_matches_walk(movie_db, data)


def filter_matches_walk(movie_db, data):
    profile = generate_profile(
        movie_db, seed=data.draw(st.integers(0, 60), label="seed"), config=SMALL_PROFILE
    )
    if data.draw(st.booleans(), label="ties"):
        profile = coarse(profile)
    query = data.draw(st.sampled_from(QUERIES), label="query")
    algebra = data.draw(st.sampled_from((PRODUCT_ALGEBRA, MIN_SUM_ALGEBRA)))
    chains = []
    full = extract_preference_space(
        movie_db, query, profile, algebra=algebra, chains=chains
    )
    walk = MemoizedWalk.of(full, chains)
    for _ in range(3):
        cmax = bound(data, walk.chain_cost, "cmax")
        smin = bound(data, walk.chain_size, "smin")
        k_limit = data.draw(
            st.none() | st.integers(1, max(1, full.k + 2)), label="k_limit"
        )
        constraints = data.draw(
            st.sampled_from((None, Constraints(cmax=cmax, smin=smin))),
            label="constraints",
        )
        expected = extract_preference_space(
            movie_db,
            query,
            profile,
            constraints=constraints,
            algebra=algebra,
            k_limit=k_limit,
        )
        assert space_fields(walk.extract(query, constraints, k_limit)) == space_fields(
            expected
        )


def _walk(database, profile, query):
    chains = []
    return extract_preference_space(database, query, profile, chains=chains), chains


def test_chains_need_the_unconstrained_walk(movie_db, movie_profile, movie_query):
    from repro.errors import SearchError

    with pytest.raises(SearchError):
        extract_preference_space(
            movie_db, movie_query, movie_profile,
            constraints=Constraints(cmax=100.0), chains=[],
        )
    walk = MemoizedWalk.of(*_walk(movie_db, movie_profile, movie_query))
    with pytest.raises(SearchError):
        walk.extract(movie_query, None, 0)


class TestSightings:
    def test_first_sight_second_sight_then_hit(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        cache = personalizer.param_cache
        query = parse_select("select title from MOVIE")
        seen = []
        for cmax in (120.0, 100.0, 80.0, 60.0):
            outcome = personalizer.personalize(
                query, movie_profile, CQPProblem.problem2(cmax=cmax), k_limit=8
            )
            expected = extract_preference_space(
                movie_db, query, movie_profile,
                constraints=Constraints(cmax=cmax), k_limit=8,
            )
            assert space_fields(outcome.preference_space) == space_fields(expected)
            counters = cache.walk_counters()
            seen.append((counters["hits"], counters["misses"], counters["entries"]))
        # First sight records the key only; the second builds the walk;
        # later requests filter it.
        assert seen == [(0, 1, 0), (0, 2, 1), (1, 2, 1), (2, 2, 1)]
        assert cache.walk_counters()["bytes_estimate"] > 0

    def test_compiler_admits_at_once(self, movie_db, movie_profile, movie_query):
        personalizer = Personalizer(movie_db)
        walk = personalizer.memoized_walk(movie_query, movie_profile)
        assert walk is not None
        assert personalizer.memoized_walk(movie_query, movie_profile) is walk
        assert personalizer.param_cache.walk_counters()["hits"] == 1

    def test_zero_capacity_disables_the_memo(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db, param_cache=ParameterCache(0))
        for cmax in (120.0, 100.0, 80.0):
            personalizer.personalize(
                "select title from MOVIE", movie_profile,
                CQPProblem.problem2(cmax=cmax), k_limit=8,
            )
        counters = personalizer.param_cache.walk_counters()
        assert counters["hits"] == 0
        assert counters["entries"] == 0

    def test_invalidate_flushes_walks(self, movie_db, movie_profile, movie_query):
        personalizer = Personalizer(movie_db)
        personalizer.memoized_walk(movie_query, movie_profile)
        personalizer.invalidate_caches()
        assert personalizer.param_cache.walk_counters()["entries"] == 0
        # The flush forgets sightings too: the next request walks.
        assert personalizer.memoized_walk(
            movie_query, movie_profile, admit=False
        ) is None

    def test_walk_site_pulses_the_fault_hook(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        sites = []
        personalizer.param_cache.fault_hook = sites.append
        personalizer.personalize(
            "select title from MOVIE", movie_profile,
            CQPProblem.problem2(cmax=100.0), k_limit=8,
        )
        assert "param_cache.walk" in sites


# -- changes between two requests ------------------------------------------------------

PROBLEMS = [CQPProblem.problem2(cmax=c) for c in (140.0, 110.0, 90.0, 70.0)]


def answer(service, user, problem, query="select title from MOVIE"):
    response = service.request(user, query, problem=problem, k_limit=10)
    return (
        response.outcome.sql,
        Receipt.of(response.outcome.solution),
        response.rows,
        space_fields(response.outcome.preference_space),
    )


def fresh_answer(database, profile, problem):
    service = PersonalizationService(database)
    service.register("fresh", profile)
    return answer(service, "fresh", problem)


def warmed(database, profile, **options):
    """A service whose walk memo already serves ``profile``'s pair."""
    service = PersonalizationService(database, **options)
    service.register("al", profile)
    for problem in PROBLEMS[:3]:
        answer(service, "al", problem)
    assert service.param_cache.walk_counters()["hits"] >= 1
    return service


class TestChangesBetweenRequests:
    def test_profile_add(self, movie_db):
        profile = generate_profile(movie_db, seed=5)
        service = warmed(movie_db, profile)
        stale = answer(service, "al", PROBLEMS[3])
        genre = next(
            pref.condition for pref in profile
            if pref.is_selection and pref.condition.relation == "GENRE"
        )
        profile.add_selection("GENRE", genre.attribute, "no-such-genre", 0.99)
        got = answer(service, "al", PROBLEMS[3])
        assert got == fresh_answer(movie_db, profile, PROBLEMS[3])
        assert got[3] != stale[3]

    def test_relearn(self, movie_db):
        profile = generate_profile(movie_db, seed=6)
        service = warmed(movie_db, profile)
        before = [(pref.condition, pref.doi) for pref in service.profile_of("al")]
        for query in QUERIES:
            service.request("al", query, problem=PROBLEMS[0], k_limit=5)
        relearned = service.relearn_now("al")
        assert [(p.condition, p.doi) for p in relearned] != before
        got = answer(service, "al", PROBLEMS[3])
        assert got == fresh_answer(movie_db, relearned, PROBLEMS[3])

    def test_statistics_change(self):
        database = build_movie_database(
            MovieDatasetConfig(n_movies=200, n_directors=40, n_actors=80), seed=9
        )
        profile = generate_profile(database, seed=8)
        service = warmed(database, profile)
        genres = list(database.table("GENRE").rows())
        stale = answer(service, "al", PROBLEMS[3])
        database.load("GENRE", genres[: len(genres) // 2])
        database.analyze()
        got = answer(service, "al", PROBLEMS[3])
        assert got == fresh_answer(database, profile, PROBLEMS[3])
        assert got[3] != stale[3]
        assert service.param_cache.invalidations >= 1


def test_concurrent_requests_share_one_memo(movie_db):
    # Threads answer recurring pairs through one personalizer while
    # another flushes the cache: every space must still be the pruned
    # walk's, and the memo's byte count must match what it holds.
    import sys
    import threading

    personalizer = Personalizer(movie_db)
    profiles = [generate_profile(movie_db, seed=seed, config=SMALL_PROFILE)
                for seed in range(3)]
    queries = QUERIES[:2]
    cmaxes = (150.0, 90.0, 60.0)
    expected = {
        (p, q, c): space_fields(extract_preference_space(
            movie_db, queries[q], profiles[p],
            constraints=Constraints(cmax=cmaxes[c]), k_limit=6,
        ))
        for p in range(3) for q in range(2) for c in range(3)
    }
    failures = []

    def ask(offset):
        for step in range(36):
            p, q, c = (step + offset) % 3, (step // 3 + offset) % 2, step % 3
            space = personalizer._extract(
                queries[q], profiles[p], Constraints(cmax=cmaxes[c]), 6
            )
            if space_fields(space) != expected[(p, q, c)]:
                failures.append((p, q, c))

    def flush():
        for _ in range(20):
            personalizer.param_cache.invalidate()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=flush))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    cache = personalizer.param_cache
    assert cache.walk_counters()["bytes_estimate"] == sum(
        nbytes for _, _, nbytes in cache._walks.values()
    )
    assert cache.walk_counters()["hits"] > 0
