"""The mask-native search loops match the tuple-state reference call for call.

FINDBOUNDARY (:func:`find_boundaries`) and the first-fit ``Horizontal2``
growth (:func:`greedy_extend`) run on int masks; the tuple loops they
replaced live in :mod:`repro.testing.reference`. Both are run on twin
spaces (same inputs, fresh evaluators) and must agree on everything an
observer can see: the boundary list and its order, the Fig. 12/13 work
counters (states examined, transitions, neighbor batches, peak memory)
and the evaluator traffic (evaluations, cache hits and misses).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.base import greedy_extend
from repro.core.algorithms.c_boundaries import find_boundaries
from repro.core.frontier_cache import canonical_frontier
from repro.core.preference_space import extract_preference_space
from repro.core.problem import CQPProblem
from repro.core.space import SpaceBundle
from repro.core.stats import SearchStats
from repro.testing import reference
from repro.workloads.profiles import generate_profile
from repro.workloads.queries import generate_queries
from repro.workloads.scenarios import (
    make_cost_space,
    make_doi_space,
    make_size_space,
    make_synthetic_pspace,
)

BASE_SIZE = 1000.0


def build_space(pspace, axis, limit, tuple_only):
    """A fresh space (fresh evaluator caches) for ``axis`` at ``limit``.

    ``limit`` is cmax on the cost and doi axes and smin on the size
    axis. Bundle spaces price masks through a cached evaluator;
    tuple-only scenario spaces price P-index tuples through a plain one.
    """
    if tuple_only:
        evaluator = pspace.evaluator()
        if axis == "size":
            return make_size_space(evaluator, smin=limit)
        if axis == "doi":
            return make_doi_space(evaluator, cmax=limit)
        return make_cost_space(evaluator, cmax=limit)
    if axis == "size":
        return SpaceBundle(pspace, CQPProblem.problem1(smin=limit)).size_space()
    bundle = SpaceBundle(pspace, CQPProblem.problem2(limit))
    return bundle.doi_space() if axis == "doi" else bundle.cost_space()


def observe(loop, space, *args, **kwargs):
    """Run one loop; return its result plus everything it was seen to do."""
    stats = SearchStats()
    result = loop(space, stats, *args, **kwargs)
    stats.release_containers()
    evaluator = space.evaluator
    return (
        result,
        stats.states_examined,
        stats.transitions_taken,
        stats.neighbor_batches,
        stats.peak_memory_bytes,
        evaluator.evaluations,
        evaluator.cache_info(),
    )


def assert_sweeps_agree(pspace, axis, limit, tuple_only, seeds=None):
    kwargs = {} if seeds is None else {"seeds": seeds}
    expected = observe(
        reference.find_boundaries, build_space(pspace, axis, limit, tuple_only), **kwargs
    )
    got = observe(find_boundaries, build_space(pspace, axis, limit, tuple_only), **kwargs)
    assert got == expected
    return got[0]


def assert_growth_agrees(pspace, axis, limit, tuple_only, start, forbidden):
    def grow(loop):
        return lambda space, stats: loop(space, start, stats, forbidden=forbidden)

    expected = observe(
        grow(reference.greedy_extend), build_space(pspace, axis, limit, tuple_only)
    )
    got = observe(grow(greedy_extend), build_space(pspace, axis, limit, tuple_only))
    assert got == expected


values = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0]),  # ties: a handful of repeated values
    st.floats(min_value=0.01, max_value=1.0),
)


@st.composite
def instances(draw):
    """A random preference space: K in 0..14, ties, conflict pairs."""
    k = draw(st.integers(min_value=0, max_value=14))
    dois = [draw(values) for _ in range(k)]
    costs = [100.0 * draw(values) for _ in range(k)]
    sizes = [BASE_SIZE * draw(values) for _ in range(k)]
    pspace = make_synthetic_pspace(dois, costs, sizes, base_size=BASE_SIZE)
    if k >= 2:
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=k - 1),
                    st.integers(min_value=0, max_value=k - 1),
                ).filter(lambda pair: pair[0] < pair[1]),
                max_size=4,
                unique=True,
            )
        )
        pspace = replace(pspace, conflicts=pairs)
    return pspace


def limits(pspace, axis, tight, loose):
    """The (tight, looser) limit pair for ``axis`` from two fractions."""
    if axis == "size":
        # Larger smin is the tighter budget (-size <= -smin).
        smin = tight * BASE_SIZE
        return smin, smin * loose
    supreme = pspace.supreme_cost()
    cmax = tight * supreme
    return cmax, cmax + (supreme - cmax) * loose


fractions = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=150, deadline=None)
@given(
    instances(),
    st.sampled_from(["cost", "size"]),
    st.booleans(),
    st.sampled_from(["cold", "warm", "empty"]),
    fractions,
    fractions,
)
def test_boundary_sweep_matches_reference(pspace, axis, tuple_only, start, tight, loose):
    limit, looser = limits(pspace, axis, tight, loose)
    seeds = None
    if start == "empty":
        seeds = ()
    elif start == "warm":
        # Warm start: the canonical frontier recorded under a looser limit.
        seeds = canonical_frontier(
            reference.find_boundaries(
                build_space(pspace, axis, looser, tuple_only), SearchStats()
            )
        )
    assert_sweeps_agree(pspace, axis, limit, tuple_only, seeds=seeds)


@settings(max_examples=150, deadline=None)
@given(
    instances(),
    st.sampled_from(["cost", "doi", "size"]),
    st.booleans(),
    fractions,
    st.data(),
)
def test_greedy_growth_matches_reference(pspace, axis, tuple_only, tight, data):
    limit, _ = limits(pspace, axis, tight, 1.0)
    ranks = st.integers(min_value=0, max_value=max(0, pspace.k - 1))
    members = data.draw(st.sets(ranks, max_size=pspace.k)) if pspace.k else set()
    forbidden = data.draw(st.one_of(st.none(), st.sets(ranks))) if pspace.k else None
    start = tuple(sorted(members))
    assert_growth_agrees(pspace, axis, limit, tuple_only, start, forbidden)


# -- a fixed handful of movie-database spaces at K = 30 -------------------------------

MOVIE_K = 30


@pytest.fixture(scope="module")
def movie_spaces(movie_db):
    """Extracted K = 30 preference spaces over the shared movie database."""
    spaces = []
    queries = generate_queries(count=1, seed=0)
    for profile_seed in (99, 7):
        profile = generate_profile(movie_db, seed=profile_seed)
        for query in queries:
            pspace = extract_preference_space(
                movie_db, query, profile,
                constraints=CQPProblem.problem2(cmax=400.0).constraints,
                k_limit=MOVIE_K,
            )
            assert pspace.k == MOVIE_K
            spaces.append(pspace)
    return spaces


# Absolute cost budgets in the range the benchmark's cold Problem 3
# requests use: C-BOUNDARIES' work grows steeply with cmax at K = 30.
@pytest.mark.parametrize("cmax, looser", [(20.0, 32.0), (24.0, 28.0), (28.0, 34.0)])
def test_movie_sweeps_match_reference(movie_spaces, cmax, looser):
    for pspace in movie_spaces:
        frontier = canonical_frontier(
            assert_sweeps_agree(pspace, "cost", looser, tuple_only=False)
        )
        assert_sweeps_agree(pspace, "cost", cmax, tuple_only=False, seeds=frontier)
        assert_sweeps_agree(pspace, "cost", cmax, tuple_only=False)


@pytest.mark.parametrize("axis", ["cost", "doi"])
def test_movie_growth_matches_reference(movie_spaces, axis):
    for pspace in movie_spaces:
        for seed in range(0, MOVIE_K, 7):
            assert_growth_agrees(pspace, axis, 60.0, False, (seed,), None)
            assert_growth_agrees(pspace, axis, 60.0, False, (seed,), {seed + 1, seed + 2})
