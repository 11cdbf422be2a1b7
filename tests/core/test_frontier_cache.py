"""FrontierCache: served and warm-started phase 1 must be indistinguishable
from cold.

The correctness claim is exactness-preserving reuse: whatever sequence
of constraint values a space is solved under, by either C-space
algorithm, with whatever results already cached, the solutions — and the
frontiers or maximal boundaries behind them — must equal those of fresh,
cold, single-threaded solves. Hypothesis drives random instances through
random constraint-sweep sequences, and checks the replay argument itself:
a phase-1 run repeats exactly under every limit of its verdict span. The
deterministic tests pin the cache mechanics (span hits skip phase 1, warm
resumes do less work, a warm span is clipped to its seeds', invalidation
flushes).
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import adapters
from repro.core.algorithms.base import get_algorithm
from repro.core.algorithms.c_boundaries import find_boundaries
from repro.core.algorithms.c_maxbounds import find_max_bounds
from repro.core.frontier_cache import FrontierCache, VerdictSpan, canonical_frontier
from repro.core.preference_space import space_digest
from repro.core.problem import CQPProblem
from repro.core.space import SpaceBundle, feasible_limit
from repro.core.state import state_of, unpack_masks
from repro.core.stats import SearchStats
from repro.preferences.composition import MIN_SUM_ALGEBRA
from repro.workloads.scenarios import make_synthetic_pspace

sweep_instances = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k
        ),
        st.lists(
            st.floats(min_value=0.5, max_value=100.0), min_size=k, max_size=k
        ),
        # An arbitrary-order sweep of cmax fractions: tighter-after-
        # looser (warm resume), looser-after-tighter (cold fallback),
        # repeats (exact hits) all occur.
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6
        ),
    )
)


def cold_frontier(pspace, cmax):
    """The canonical frontier of a fresh, uncached sweep."""
    space = SpaceBundle(pspace, CQPProblem.problem2(cmax)).cost_space()
    return canonical_frontier(find_boundaries(space, SearchStats()))


@settings(max_examples=100, deadline=None)
@given(sweep_instances)
def test_warm_sweeps_match_cold_boundaries_and_solutions(data):
    dois, costs, fractions = data
    pspace = make_synthetic_pspace(dois, costs)
    supreme = pspace.supreme_cost()
    cache = FrontierCache()
    for fraction in fractions:
        cmax = fraction * supreme
        problem = CQPProblem.problem2(cmax)
        warm_space = SpaceBundle(pspace, problem, frontier_cache=cache).cost_space()
        assert warm_space.frontier is not None
        warm = get_algorithm("c_boundaries").solve(warm_space)
        # The frontier recorded under this limit equals the cold one.
        exact, _ = warm_space.frontier.lookup(cmax)
        assert exact == cold_frontier(pspace, cmax)
        cold = adapters.solve(pspace, problem, "c_boundaries")
        if cold is None:
            assert warm is None
        else:
            assert warm is not None
            assert warm.pref_indices == cold.pref_indices
            assert warm.doi == cold.doi
            assert warm.cost == cold.cost


def _table1_problems(pspace):
    supreme = pspace.supreme_cost()
    base = pspace.base_size
    return {
        1: CQPProblem.problem1(smin=base * 0.05, smax=base * 0.9),
        2: CQPProblem.problem2(cmax=supreme * 0.5),
        3: CQPProblem.problem3(cmax=supreme * 0.5, smin=base * 0.05, smax=base * 0.9),
        4: CQPProblem.problem4(dmin=0.3),
        5: CQPProblem.problem5(dmin=0.3, smin=base * 0.05, smax=base * 0.9),
        6: CQPProblem.problem6(smin=base * 0.05, smax=base * 0.9),
    }


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k),
            st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=k, max_size=k),
            st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k),
        )
    )
)
def test_all_six_problems_unchanged_by_cache(data):
    dois, costs, reductions = data
    sizes = [1000.0 * r for r in reductions]
    pspace = make_synthetic_pspace(dois, costs, sizes)
    cache = FrontierCache()
    for number, problem in sorted(_table1_problems(pspace).items()):
        algorithm = adapters.recommended_algorithm(problem)
        # Twice with the shared cache (second pass rides warm entries),
        # once without; all three must agree exactly.
        first = adapters.solve(pspace, problem, algorithm, frontier_cache=cache)
        second = adapters.solve(pspace, problem, algorithm, frontier_cache=cache)
        cold = adapters.solve(pspace, problem, algorithm)
        for warm in (first, second):
            if cold is None:
                assert warm is None, "problem %d diverged" % number
            else:
                assert warm is not None, "problem %d diverged" % number
                assert warm.pref_indices == cold.pref_indices
                assert warm.doi == cold.doi
                assert warm.cost == cold.cost
                assert warm.size == cold.size


def _cold_space(pspace, problem):
    return SpaceBundle(pspace, problem).cost_space()


def _served_phase1(space, algorithm):
    """The phase-1 result the memo holds for ``space``'s limit, in the
    format phase 2 reads (rank tuples)."""
    result, _ = space.frontier.lookup(space.limit, algorithm)
    if algorithm == "c_maxbounds":
        return [state_of(ranks) for ranks in unpack_masks(result, space.k)]
    return result


def _cold_phase1(pspace, problem, algorithm):
    space = _cold_space(pspace, problem)
    if algorithm == "c_maxbounds":
        return find_max_bounds(space, SearchStats())
    return canonical_frontier(find_boundaries(space, SearchStats()))


# Block counts (Formula 6 prices whole blocks, so many limits share one
# span) or arbitrary positive costs.
span_costs = st.one_of(
    st.integers(min_value=1, max_value=40).map(float),
    st.floats(min_value=0.5, max_value=100.0),
)
span_instances = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.tuples(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k),
        st.lists(span_costs, min_size=k, max_size=k),
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k),
        # A random-order sweep: (algorithm, cmax fraction, size window?).
        st.lists(
            st.tuples(
                st.sampled_from(["c_boundaries", "c_maxbounds"]),
                st.floats(min_value=0.0, max_value=1.0),
                st.booleans(),
            ),
            min_size=2,
            max_size=14,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(span_instances)
def test_span_served_solves_match_cold(data):
    """Both C-space algorithms through one shared cache, at random
    limits in random order: every solve — span hit, warm start or miss —
    equals a cold solve, and so does the phase-1 result the memo holds
    for its limit."""
    dois, costs, reductions, sweep = data
    pspace = make_synthetic_pspace(dois, costs, [1000.0 * r for r in reductions])
    supreme = pspace.supreme_cost()
    cache = FrontierCache()
    for algorithm, fraction, windowed in sweep:
        cmax = fraction * supreme
        if windowed:
            problem = CQPProblem.problem3(cmax, smin=50.0, smax=900.0)
        else:
            problem = CQPProblem.problem2(cmax)
        space = SpaceBundle(pspace, problem, frontier_cache=cache).cost_space()
        served = get_algorithm(algorithm).solve(space)
        cold = adapters.solve(pspace, problem, algorithm)
        if cold is None:
            assert served is None
        else:
            assert served is not None
            assert served.pref_indices == cold.pref_indices
            assert served.doi == cold.doi
            assert served.cost == cold.cost
            assert served.size == cold.size
        assert _served_phase1(space, algorithm) == _cold_phase1(
            pspace, problem, algorithm
        )
    counters = cache.counters()
    assert counters["lookups"] == len(sweep) * 2  # each solve + each check
    assert counters["hits"] >= len(sweep)  # every check is served


def _observed_phase1(pspace, cmax, algorithm):
    """One cold phase-1 run: its result, work counters, evaluator
    traffic and verdict span."""
    space = _cold_space(pspace, CQPProblem.problem2(cmax))
    stats = SearchStats()
    span = VerdictSpan()
    if algorithm == "c_maxbounds":
        result = find_max_bounds(space, stats, span)
    else:
        result = find_boundaries(space, stats, verdicts=span)
    stats.release_containers()
    seen = (
        result,
        stats.states_examined,
        stats.transitions_taken,
        stats.neighbor_batches,
        stats.peak_memory_bytes,
        space.evaluator.evaluations,
    )
    return seen, span


@settings(max_examples=150, deadline=None)
@given(
    span_instances,
    st.sampled_from(["c_boundaries", "c_maxbounds"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_phase1_repeats_inside_its_span(data, algorithm, fraction, position):
    """The replay argument: under any limit whose feasible limit lies in
    a run's verdict span, phase 1 records the same result in the same
    order with the same work counters."""
    dois, costs, _, _ = data
    pspace = make_synthetic_pspace(dois, costs)
    cmax = fraction * pspace.supreme_cost()
    first, span = _observed_phase1(pspace, cmax, algorithm)
    point = feasible_limit(cmax)
    assert span.low <= point < span.high
    # Another (non-negative) limit inside the span: feasible_limit is
    # monotone, so invert it approximately and keep only limits that
    # land inside.
    top = min(span.high, point + 100.0)
    bottom = max(span.low, 0.0)
    target = bottom + (top - bottom) * position
    other = max(0.0, (target - 1e-9) / (1.0 + 1e-9))
    assume(span.low <= feasible_limit(other) < span.high)
    again, _ = _observed_phase1(pspace, other, algorithm)
    assert again == first


class TestSpanMechanics:
    PSPACE = staticmethod(
        lambda: make_synthetic_pspace(
            (0.9, 0.8, 0.7, 0.6, 0.5), (110.0, 80.0, 60.0, 45.0, 35.0)
        )
    )

    def _solve(self, pspace, cmax, cache, algorithm):
        space = SpaceBundle(
            pspace, CQPProblem.problem2(cmax), frontier_cache=cache
        ).cost_space()
        return get_algorithm(algorithm).solve(space)

    @pytest.mark.parametrize("algorithm", ["c_boundaries", "c_maxbounds"])
    def test_limits_between_block_counts_share_a_span(self, algorithm):
        # Costs are whole blocks, so no state costs more than 185 and at
        # most 185.9: the second limit is served without phase 1.
        pspace = self.PSPACE()
        cache = FrontierCache()
        first = self._solve(pspace, 185.0, cache, algorithm)
        served = self._solve(pspace, 185.9, cache, algorithm)
        cold = adapters.solve(pspace, CQPProblem.problem2(185.9), algorithm)
        assert first.stats.frontier_cache_misses == 1
        assert served.stats.frontier_cache_hits == 1
        assert served.stats.states_examined < cold.stats.states_examined
        assert served.pref_indices == cold.pref_indices
        assert cache.counters()["hits"] == 1

    def test_algorithms_keep_their_own_entries(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache, "c_boundaries")
        other = self._solve(pspace, 185.0, cache, "c_maxbounds")
        assert other.stats.frontier_cache_hits == 0
        assert cache.counters()["frontiers"] == 2

    def test_warm_span_is_clipped_to_its_seeds(self):
        # A stored span may be narrower than the limits its frontier
        # holds for (primed or restored entries are). Here the cold
        # frontier at 185 is stored for [low + 1, high) only, so a solve
        # at 185 misses and resumes from it: every seed passes, no state
        # fails, and its own span would reach up to infinity. A looser
        # limit past the seeds' span must not be served that frontier.
        pspace = self.PSPACE()
        cold_space = _cold_space(pspace, CQPProblem.problem2(185.0))
        span = VerdictSpan()
        frontier = canonical_frontier(
            find_boundaries(cold_space, SearchStats(), verdicts=span)
        )
        cache = FrontierCache()
        space = SpaceBundle(
            pspace, CQPProblem.problem2(185.0), frontier_cache=cache
        ).cost_space()
        space.frontier.store(span.low + 1.0, span.high, frontier)
        warm = get_algorithm("c_boundaries").solve(space)
        assert warm.stats.states_warm_started == len(frontier)
        assert cache.counters()["warm_starts"] == 1
        looser = span.high + 20.0
        served = self._solve(pspace, looser, cache, "c_boundaries")
        cold = adapters.solve(pspace, CQPProblem.problem2(looser), "c_boundaries")
        assert served.stats.frontier_cache_hits == 0
        assert served.pref_indices == cold.pref_indices
        assert served.doi == cold.doi

    def test_counters_split_hits_warm_starts_and_misses(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache, "c_boundaries")  # miss
        self._solve(pspace, 185.5, cache, "c_boundaries")  # span hit
        self._solve(pspace, 140.0, cache, "c_boundaries")  # warm start
        self._solve(pspace, 150.0, cache, "c_maxbounds")  # miss
        counters = cache.counters()
        assert (counters["hits"], counters["warm_starts"], counters["misses"]) == (
            1, 1, 2,
        )
        assert counters["lookups"] == 4

    def test_bytes_estimate_counts_the_memos(self):
        # The cache holds memos only: no evaluator population, and its
        # bytes are the memos' accounted bytes.
        from repro.core.frontier_cache import MEMO_OVERHEAD_BYTES, _entry_nbytes

        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache, "c_boundaries")
        self._solve(pspace, 185.0, cache, "c_maxbounds")
        counters = cache.counters()
        assert "evaluators" not in counters
        memos = list(cache._memos.values())
        entries = [result for memo in memos for result in memo._entries.values()]
        assert len(entries) == 2
        assert counters["bytes_estimate"] == MEMO_OVERHEAD_BYTES * len(memos) + sum(
            _entry_nbytes(result) for result in entries
        )


class TestCacheMechanics:
    PSPACE = staticmethod(
        lambda: make_synthetic_pspace(
            (0.9, 0.8, 0.7, 0.6, 0.5), (110.0, 80.0, 60.0, 45.0, 35.0)
        )
    )

    def _solve(self, pspace, cmax, cache):
        problem = CQPProblem.problem2(cmax)
        space = SpaceBundle(pspace, problem, frontier_cache=cache).cost_space()
        solution = get_algorithm("c_boundaries").solve(space)
        assert solution is not None
        return solution

    def test_exact_hit_skips_the_sweep(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        first = self._solve(pspace, 185.0, cache)
        again = self._solve(pspace, 185.0, cache)
        assert first.stats.frontier_cache_hits == 0
        assert first.stats.frontier_cache_misses == 1
        assert again.stats.frontier_cache_hits == 1
        assert again.stats.frontier_cache_misses == 0
        # Phase 1 never ran: only phase-2 boundary visits were counted.
        assert again.stats.states_examined < first.stats.states_examined
        assert again.pref_indices == first.pref_indices

    def test_tighter_limit_warm_starts(self):
        # A fine tightening (one sweep step): the resumed sweep walks
        # only the thin region between the two frontiers, while the cold
        # sweep re-descends from the root.
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache)
        warm = self._solve(pspace, 170.0, cache)
        cold = adapters.solve(pspace, CQPProblem.problem2(170.0), "c_boundaries")
        assert warm.stats.states_warm_started > 0
        assert warm.stats.states_examined < cold.stats.states_examined
        assert warm.stats.parameter_evaluations < cold.stats.parameter_evaluations
        assert warm.pref_indices == cold.pref_indices
        assert warm.doi == cold.doi

    def test_looser_limit_falls_back_to_cold_sweep(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 140.0, cache)
        looser = self._solve(pspace, 225.0, cache)
        cold = adapters.solve(pspace, CQPProblem.problem2(225.0), "c_boundaries")
        assert looser.stats.states_warm_started == 0
        assert looser.pref_indices == cold.pref_indices

    def test_infeasible_frontier_propagates_to_tighter_limits(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        problem = CQPProblem.problem2(1.0)  # below every single cost
        assert adapters.solve(pspace, problem, "c_boundaries",
                              frontier_cache=cache) is None
        # A tighter solve seeds from the recorded empty frontier and
        # terminates without sweeping at all.
        tighter = CQPProblem.problem2(0.5)
        space = SpaceBundle(pspace, tighter, frontier_cache=cache).cost_space()
        stats_before_space = space.evaluator.evaluations
        assert get_algorithm("c_boundaries").solve(space) is None
        assert space.evaluator.evaluations == stats_before_space

    def test_neighbor_batches_counted(self):
        pspace = self.PSPACE()
        solution = self._solve(pspace, 185.0, FrontierCache())
        assert solution.stats.neighbor_batches > 0

    def test_shared_evaluator_across_solves(self):
        # Under an enabled cache, every bundle on one space object
        # prices through that object's one evaluator.
        pspace = self.PSPACE()
        cache = FrontierCache()
        bundles = [
            SpaceBundle(pspace, problem, frontier_cache=cache)
            for problem in (CQPProblem.problem2(185.0), CQPProblem.problem4(dmin=0.3))
        ]
        assert bundles[0].evaluator is bundles[1].evaluator
        assert bundles[0].evaluator is pspace.shared_evaluator()
        first = self._solve(pspace, 185.0, cache)
        tighter = self._solve(pspace, 140.0, cache)
        # The second solve re-used the first's evaluator and frontier:
        # it evaluated strictly fewer parameters than a cold solve at
        # the same limit.
        cold = adapters.solve(pspace, CQPProblem.problem2(140.0), "c_boundaries")
        assert tighter.stats.parameter_evaluations < cold.stats.parameter_evaluations
        assert first is not tighter
        # A solve no memo serves (the Problem 4 minimal-state search)
        # prices fewer masks than the same solve on a fresh copy of the
        # space, whose evaluator starts empty.
        evaluator = pspace.shared_evaluator()
        before = evaluator.cache_misses
        adapters.solve(pspace, CQPProblem.problem4(dmin=0.4), frontier_cache=cache)
        fresh = replace(pspace)
        adapters.solve(fresh, CQPProblem.problem4(dmin=0.4), frontier_cache=cache)
        assert fresh.shared_evaluator() is not evaluator
        assert evaluator.cache_misses - before < fresh.shared_evaluator().cache_misses

    @pytest.mark.parametrize("cache", [None, 0], ids=["no-cache", "zero-budget"])
    def test_cold_bundles_get_their_own_evaluator(self, cache):
        pspace = self.PSPACE()
        frontier_cache = None if cache is None else FrontierCache(cache)
        problem = CQPProblem.problem2(185.0)
        first, second = (
            SpaceBundle(pspace, problem, frontier_cache=frontier_cache)
            for _ in range(2)
        )
        assert first.evaluator is not second.evaluator
        assert pspace._evaluator is None

    def test_zero_capacity_disables(self):
        pspace = self.PSPACE()
        cache = FrontierCache(0)
        space = SpaceBundle(
            pspace, CQPProblem.problem2(185.0), frontier_cache=cache
        ).cost_space()
        assert space.frontier is None
        assert cache.memo_for(space_digest(pspace), space.vector, "cost") is None
        assert cache.restore(FrontierCache().snapshot(), stats_token=None) == 0
        counters = cache.counters()
        assert counters["frontiers"] == counters["bytes_estimate"] == 0
        with pytest.raises(ValueError):
            FrontierCache(-1)

    def test_validate_flushes_on_token_change(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        cache.validate(("db", 1))
        self._solve(pspace, 185.0, cache)
        assert cache.counters()["frontiers"] == 1
        cache.validate(("db", 1))  # same token: nothing happens
        assert cache.counters()["frontiers"] == 1
        cache.validate(("db", 2))
        counters = cache.counters()
        assert counters["frontiers"] == 0
        assert counters["bytes_estimate"] == 0
        assert counters["invalidations"] == 1

    def test_explicit_invalidate(self):
        pspace = self.PSPACE()
        cache = FrontierCache()
        self._solve(pspace, 185.0, cache)
        cache.invalidate()
        assert cache.counters()["frontiers"] == 0


# One cache operation: (kind, memo key index, limit index, frontier size).
cache_operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["store", "fill", "new_memo", "flush", "restore", "stale_store"]
        ),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(cache_operations, st.integers(min_value=0, max_value=6))
def test_frontier_count_tracks_the_memos(operations, budget_memos):
    """The O(1) ``frontiers`` counter equals the summed memo lengths
    after any mix of stores, per-memo eviction (more limits than a memo
    holds), byte-bounded memo eviction (a budget of a few memos),
    flushes, snapshot restores and stores into a memo the cache already
    dropped; and the accounted bytes never exceed the budget."""
    from repro.core.frontier_cache import (
        FRONTIER_SPANS_PER_MEMO,
        MEMO_OVERHEAD_BYTES,
        _entry_nbytes,
    )

    # One byte over whole memos, so a budget of no memo stays enabled.
    cache = FrontierCache(budget_memos * (MEMO_OVERHEAD_BYTES + 600) + 1)
    held = []  # memos an in-flight solve would still hold
    snapshot = cache.snapshot()

    def memo(index):
        found = cache.memo_for("sig%d" % index, (0, 1), "cost")
        held.append(found)
        return found

    for kind, key, limit, size in operations:
        frontier = tuple((rank,) for rank in range(size))
        if kind == "store":
            memo(key).store(float(limit), limit + 1.0, frontier)
        elif kind == "fill":
            target = memo(key)
            for extra in range(FRONTIER_SPANS_PER_MEMO + 2):
                target.store(float(limit + extra), limit + extra + 1.0, frontier)
        elif kind == "new_memo":
            memo(key + 5)
        elif kind == "flush":
            snapshot = cache.snapshot()
            cache.invalidate()
        elif kind == "restore":
            cache.restore(snapshot, stats_token=None)
        elif held:
            held[key % len(held)].store(float(limit), limit + 1.0, frontier)
        memos = list(cache._memos.values())
        counters = cache.counters()
        assert counters["frontiers"] == sum(len(m) for m in memos)
        assert counters["entries"] == counters["frontiers"]
        assert cache._frontier_bytes == sum(
            _entry_nbytes(f) for m in memos for f in m._entries.values()
        )
        assert all(m.attached for m in memos)
        accounted = cache._frontier_bytes + MEMO_OVERHEAD_BYTES * len(memos)
        assert counters["bytes_estimate"] == accounted
        assert accounted <= cache.byte_budget


class TestByteBoundedMemos:
    def test_memos_evict_least_recently_used_by_bytes(self):
        from repro.core.frontier_cache import MEMO_OVERHEAD_BYTES, _entry_nbytes

        cache = FrontierCache()
        frontier = ((0, 1), (2,))
        for index in range(5):
            cache.memo_for("space%d" % index, (0, 1, 2), "cost").store(
                1.0, 2.0, frontier
            )
        assert len(cache._memos) == 5
        assert cache.counters()["frontiers"] == 5
        # Shrinking the byte budget evicts least recently used memos
        # first, detaching them.
        cache.memo_for("space0", (0, 1, 2), "cost")  # touch: now most recent
        cache.byte_budget = 2 * (MEMO_OVERHEAD_BYTES + _entry_nbytes(frontier))
        newest = cache.memo_for("space5", (0, 1, 2), "cost")
        assert list(key[0] for key in cache._memos) == ["space0", "space5"]
        assert newest.attached
        assert cache.counters()["frontiers"] == 1
        assert cache.counters()["bytes_estimate"] <= cache.byte_budget

    def test_round_robin_beyond_capacity_still_warm_starts(self):
        """A working set of distinct spaces, solved round-robin with a
        tighter limit on every pass: each later pass warm-starts from
        the pass before, with cold answers, and every space keeps its
        memo."""
        spaces = [
            make_synthetic_pspace(
                (0.9, 0.8, 0.7, 0.6, 0.5),
                tuple(cost * (1.0 + index / 50.0)
                      for cost in (110.0, 80.0, 60.0, 45.0, 35.0)),
            )
            for index in range(7)
        ]
        cache = FrontierCache()
        for cmax_base, expect_warm in ((185.0, False), (170.0, True), (160.0, True)):
            for index, pspace in enumerate(spaces):
                cmax = cmax_base * (1.0 + index / 50.0)
                problem = CQPProblem.problem2(cmax)
                warm = adapters.solve(
                    pspace, problem, "c_boundaries", frontier_cache=cache
                )
                cold = adapters.solve(pspace, problem, "c_boundaries")
                assert warm.pref_indices == cold.pref_indices
                assert warm.doi == cold.doi
                assert warm.cost == cold.cost
                if expect_warm:
                    assert warm.stats.states_warm_started > 0, index
        assert len(cache._memos) == len(spaces)
        assert cache.counters()["frontiers"] == 3 * len(spaces)


class TestCanonicalFrontier:
    def test_dominated_states_dropped(self):
        # (1, 3) dominates (0, 2) componentwise, so it is covered and
        # must be reduced away; the cross-group singleton survives.
        assert canonical_frontier([(0, 2), (1, 3), (4,)]) == ((4,), (0, 2))

    def test_duplicates_collapse(self):
        assert canonical_frontier([(1, 2), (1, 2)]) == ((1, 2),)

    def test_orders_by_group_then_lexicographic(self):
        # (1, 2) and (0, 3) are incomparable, so both survive; groups
        # ascend and tuples sort lexicographically within a group.
        frontier = canonical_frontier([(1, 2), (0, 3), (0,)])
        assert frontier == ((0,), (0, 3), (1, 2))

    def test_empty(self):
        assert canonical_frontier([]) == ()


def test_signature_distinguishes_parameter_arrays():
    a = make_synthetic_pspace((0.9, 0.5), (10.0, 5.0))
    b = make_synthetic_pspace((0.9, 0.5), (10.0, 6.0))
    same = make_synthetic_pspace((0.9, 0.5), (10.0, 5.0))
    assert space_digest(a) != space_digest(b)
    assert space_digest(a) == space_digest(same)
    conflicted = replace(a, conflicts=[(1, 0)])
    assert space_digest(conflicted) != space_digest(a)
    assert space_digest(conflicted) == space_digest(replace(a, conflicts=[(0, 1)]))
    other_algebra = make_synthetic_pspace(
        (0.9, 0.5), (10.0, 5.0), algebra=MIN_SUM_ALGEBRA
    )
    assert space_digest(other_algebra) != space_digest(a)


def test_digest_is_never_copied_to_a_derived_space():
    pspace = make_synthetic_pspace((0.9, 0.5, 0.4), (10.0, 5.0, 3.0))
    full = space_digest(pspace)
    assert space_digest(pspace.truncated(2)) != full
    assert space_digest(replace(pspace, base_size=2000.0)) != full
    assert space_digest(pspace) == full


# The digest of _PINNED_SPACE, computed in a fresh interpreter: snapshots
# persist digests, so a change to the encoding must show here.
_PINNED_SPACE = """
from repro.core.preference_space import space_digest
from repro.workloads.scenarios import make_synthetic_pspace
from dataclasses import replace
pspace = make_synthetic_pspace((0.9, 0.8, 0.5), (110.0, 80.0, 35.5), (500.0, 250.0, 100.0))
print(space_digest(replace(pspace, conflicts=[(2, 0)])))
"""
_PINNED_DIGEST = "d1ff6717dd9577fc88c44af60fc61c543bb26637e15233d27e0efe7f1aad2c86"


def test_digest_is_stable_across_processes():
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-c", _PINNED_SPACE],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.strip() == _PINNED_DIGEST


def test_personalizer_invalidates_frontier_cache(movie_db, movie_profile, movie_query):
    from repro.core.personalizer import Personalizer

    personalizer = Personalizer(movie_db)
    problem = CQPProblem.problem2(cmax=400.0)
    personalizer.personalize(
        movie_query, movie_profile, problem, algorithm="c_boundaries", k_limit=10
    )
    assert personalizer.frontier_cache.counters()["frontiers"] > 0
    personalizer.invalidate_caches()
    counters = personalizer.frontier_cache.counters()
    assert counters["frontiers"] == counters["bytes_estimate"] == 0
