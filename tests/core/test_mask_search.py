"""The mask-native search loops match the tuple-state reference call for call.

Every Section 5 loop runs on int masks; the rank-tuple loops they
replaced live in :mod:`repro.testing.reference`. Each pair is run on twin
spaces (same inputs, fresh evaluators) and must agree on everything an
observer can see: the result (and, for the sweeps, the recorded states
and their order), the Fig. 12/13 work counters (states examined,
transitions, neighbor batches, peak memory) and the evaluator traffic
(evaluations, cache hits and misses).

Spaces come in two kinds — :class:`SpaceBundle` spaces over a cached
evaluator and the scenario spaces of :mod:`repro.workloads.scenarios`
over a plain one — on the cost, doi and size axes, with and without a
size window (Problem 3's on the cost and doi axes, Problem 1's smax on
the size axis), which switches C_FINDMAXDOI from its pointer mode to its
region mode.
"""

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import adapters
from repro.core.algorithms import (
    CBoundaries,
    CMaxBounds,
    DHeurDoi,
    DMaxDoi,
    DSingleMaxDoi,
    Exhaustive,
    GeneticSearch,
    SimulatedAnnealing,
    TabuSearch,
)
from repro.core.algorithms.base import greedy_extend
from repro.core.algorithms.c_boundaries import find_boundaries
from repro.core.frontier_cache import canonical_frontier
from repro.core.pareto import pareto_front
from repro.core.preference_space import extract_preference_space
from repro.core.problem import CQPProblem
from repro.core.space import SpaceBundle
from repro.core.state import mask_of, state_of
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
_TOL = 1e-9


def size_window(evaluator, smin, smax):
    """Problem 3's size window as a mask predicate."""

    def check(mask):
        size = evaluator.size_mask(mask)
        return smin * (1 - _TOL) - _TOL <= size <= smax * (1 + _TOL) + _TOL

    return check


def build_space(pspace, axis, limit, scenario, window=None):
    """A fresh space (fresh evaluator caches) for ``axis`` at ``limit``.

    ``limit`` is cmax on the cost and doi axes and smin on the size
    axis; ``window`` is an optional ``(smin, smax)`` size window (on the
    size axis only its smax, raised to ``limit`` at least). Bundle
    spaces price through a cached evaluator, scenario spaces through a
    plain one.
    """
    if axis == "size" and window is not None:
        window = (limit, max(limit, window[1]))
    if scenario:
        evaluator = pspace.evaluator()
        if axis == "size":
            return make_size_space(
                evaluator, smin=limit, smax=None if window is None else window[1]
            )
        extra = None if window is None else size_window(evaluator, *window)
        if axis == "doi":
            return make_doi_space(evaluator, cmax=limit, extra=extra)
        return make_cost_space(evaluator, cmax=limit, extra=extra)
    if axis == "size":
        smax = None if window is None else window[1]
        return SpaceBundle(pspace, CQPProblem.problem1(smin=limit, smax=smax)).size_space()
    if window is None:
        problem = CQPProblem.problem2(limit)
    else:
        problem = CQPProblem.problem3(cmax=limit, smin=window[0], smax=window[1])
    bundle = SpaceBundle(pspace, problem)
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


def indices_of(search):
    """A mask search whose P-index mask result reads as a sorted tuple."""

    def run(space, stats):
        mask = search(space, stats)
        return None if mask is None else state_of(mask)

    return run


def assert_sweeps_agree(pspace, axis, limit, scenario, seeds=None):
    kwargs = {} if seeds is None else {"seeds": seeds}
    expected = observe(
        reference.find_boundaries, build_space(pspace, axis, limit, scenario), **kwargs
    )
    got = observe(find_boundaries, build_space(pspace, axis, limit, scenario), **kwargs)
    assert got == expected
    return got[0]


def assert_growth_agrees(pspace, axis, limit, scenario, start, forbidden):
    def grow_tuples(space, stats):
        return reference.greedy_extend(space, start, stats, forbidden=forbidden)

    def grow_masks(space, stats):
        ranks = mask_of(start)
        grown, pmask = greedy_extend(
            space, ranks, space.pref_mask(ranks), stats,
            forbidden=mask_of(forbidden or ()),
        )
        assert pmask == space.pref_mask(grown)
        return state_of(grown)

    expected = observe(grow_tuples, build_space(pspace, axis, limit, scenario))
    got = observe(grow_masks, build_space(pspace, axis, limit, scenario))
    assert got == expected


# Each Section 5 search and its reference twin. The metaheuristics run
# under a fixed seed with small budgets.
SEARCHES = {
    "c_boundaries": (CBoundaries(), reference.c_boundaries),
    "c_maxbounds": (CMaxBounds(), reference.c_maxbounds),
    "d_maxdoi": (DMaxDoi(), reference.d_maxdoi),
    "d_singlemaxdoi": (DSingleMaxDoi(), reference.d_singlemaxdoi),
    "d_heurdoi": (DHeurDoi(), reference.d_heurdoi),
    "exhaustive": (Exhaustive(), reference.exhaustive),
    "simulated_annealing": (
        SimulatedAnnealing(seed=3, steps=150),
        partial(reference.simulated_annealing, seed=3, steps=150),
    ),
    "tabu": (
        TabuSearch(seed=3, iterations=25),
        partial(reference.tabu, seed=3, iterations=25),
    ),
    "genetic": (
        GeneticSearch(seed=3, population=10, generations=6),
        partial(reference.genetic, seed=3, population=10, generations=6),
    ),
}
ALIGNED_ONLY = {"c_boundaries", "c_maxbounds"}
SMALL_K_ONLY = {"exhaustive"}


def assert_search_agrees(name, pspace, axis, limit, scenario, window=None):
    algorithm, twin = SEARCHES[name]
    expected = observe(twin, build_space(pspace, axis, limit, scenario, window))
    got = observe(
        indices_of(algorithm._search), build_space(pspace, axis, limit, scenario, window)
    )
    assert got == expected


values = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0]),  # ties: a handful of repeated values
    st.floats(min_value=0.01, max_value=1.0),
)


@st.composite
def instances(draw, max_k=14):
    """A random preference space: K in 0..max_k, ties, conflict pairs."""
    k = draw(st.integers(min_value=0, max_value=max_k))
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
windows = st.one_of(
    st.none(),
    st.tuples(fractions, fractions).map(
        lambda pair: (min(pair) * BASE_SIZE * 0.5, max(pair) * BASE_SIZE)
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    instances(),
    st.sampled_from(["cost", "size"]),
    st.booleans(),
    st.sampled_from(["cold", "warm", "empty"]),
    fractions,
    fractions,
)
def test_boundary_sweep_matches_reference(pspace, axis, scenario, start, tight, loose):
    limit, looser = limits(pspace, axis, tight, loose)
    seeds = None
    if start == "empty":
        seeds = ()
    elif start == "warm":
        # Warm start: the canonical frontier recorded under a looser limit.
        seeds = canonical_frontier(
            reference.find_boundaries(
                build_space(pspace, axis, looser, scenario), SearchStats()
            )
        )
    assert_sweeps_agree(pspace, axis, limit, scenario, seeds=seeds)


@settings(max_examples=150, deadline=None)
@given(
    instances(),
    st.sampled_from(["cost", "doi", "size"]),
    st.booleans(),
    fractions,
    st.data(),
)
def test_greedy_growth_matches_reference(pspace, axis, scenario, tight, data):
    limit, _ = limits(pspace, axis, tight, 1.0)
    ranks = st.integers(min_value=0, max_value=max(0, pspace.k - 1))
    members = data.draw(st.sets(ranks, max_size=pspace.k)) if pspace.k else set()
    forbidden = data.draw(st.one_of(st.none(), st.sets(ranks))) if pspace.k else None
    start = tuple(sorted(members))
    assert_growth_agrees(pspace, axis, limit, scenario, start, forbidden)


@pytest.mark.parametrize("name", sorted(SEARCHES))
@settings(max_examples=60, deadline=None)
@given(
    pspace=instances(max_k=12),
    axis=st.sampled_from(["cost", "doi", "size"]),
    scenario=st.booleans(),
    window=windows,
    tight=fractions,
)
def test_search_matches_reference(name, pspace, axis, scenario, window, tight):
    assume(not (name in ALIGNED_ONLY and axis == "doi"))
    assume(not (name in SMALL_K_ONLY and pspace.k > 9))
    limit, _ = limits(pspace, axis, tight, 1.0)
    assert_search_agrees(name, pspace, axis, limit, scenario, window)


@settings(max_examples=120, deadline=None)
@given(
    pspace=instances(max_k=10),
    number=st.sampled_from([4, 5, 6]),
    cached=st.booleans(),
    dmin=fractions,
    window=st.tuples(fractions, fractions),
)
def test_min_cost_descent_matches_reference(pspace, number, cached, dmin, window):
    smin, smax = min(window) * BASE_SIZE * 0.5, max(window) * BASE_SIZE
    if number == 4:
        problem = CQPProblem.problem4(dmin=dmin)
    elif number == 5:
        problem = CQPProblem.problem5(dmin=dmin, smin=smin, smax=smax)
    else:
        problem = CQPProblem.problem6(smin=smin, smax=smax)

    def bundle():
        # observe() reads the evaluator off the bundle as off a space;
        # the uncached case prices through a plain evaluator.
        made = SpaceBundle(pspace, problem)
        if not cached:
            made.evaluator = pspace.evaluator()
        return made

    expected = observe(reference.minimal_feasible_min_cost, bundle())
    got = observe(indices_of(adapters.minimal_feasible_min_cost), bundle())
    assert got == expected


@settings(max_examples=80, deadline=None)
@given(pspace=instances(max_k=9), window=windows)
def test_pareto_front_matches_reference(pspace, window):
    constraints = None
    if window is not None:
        constraints = CQPProblem.problem6(smin=window[0], smax=window[1]).constraints
    expected_evaluator = pspace.evaluator()
    expected = reference.pareto_front(expected_evaluator, constraints)
    evaluator = pspace.evaluator()
    got = pareto_front(evaluator, constraints)

    def fields(front):
        return [(s.pref_indices, s.doi, s.cost, s.size) for s in front]

    assert fields(got) == fields(expected)
    assert evaluator.evaluations == expected_evaluator.evaluations


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
            assert_sweeps_agree(pspace, "cost", looser, scenario=False)
        )
        assert_sweeps_agree(pspace, "cost", cmax, scenario=False, seeds=frontier)
        assert_sweeps_agree(pspace, "cost", cmax, scenario=False)


@pytest.mark.parametrize("axis", ["cost", "doi"])
def test_movie_growth_matches_reference(movie_spaces, axis):
    for pspace in movie_spaces:
        for seed in range(0, MOVIE_K, 7):
            assert_growth_agrees(pspace, axis, 60.0, False, (seed,), None)
            assert_growth_agrees(pspace, axis, 60.0, False, (seed,), {seed + 1, seed + 2})


@pytest.mark.parametrize(
    "name, axis, k",
    [
        ("c_boundaries", "cost", MOVIE_K),
        ("c_maxbounds", "cost", MOVIE_K),
        ("d_singlemaxdoi", "doi", MOVIE_K),
        ("d_heurdoi", "doi", MOVIE_K),
        ("d_maxdoi", "doi", 14),
    ],
)
@pytest.mark.parametrize("window", [None, (2.0, 400.0)])
def test_movie_searches_match_reference(movie_spaces, name, axis, k, window):
    for pspace in movie_spaces:
        assert_search_agrees(name, pspace.truncated(k), axis, 24.0, False, window)
