"""The bitmask state kernel: mask primitives, mask transitions,
property tests that the mask evaluation kernel agrees with the tuple
kernel on random states, and solve-level oracle checks of every
algorithm on the mask kernel for every Table 1 problem family."""

import random
from itertools import combinations

import pytest

from repro.core import adapters, transitions as tr
from repro.core.estimation import CachedStateEvaluator, StateEvaluator
from repro.core.preference_space import extract_preference_space
from repro.core.problem import CQPProblem
from repro.core.state import (
    is_below,
    mask_contains,
    mask_group_size,
    mask_is_below,
    mask_of,
    state_of,
)
from repro.testing.differential import exhaustive_oracle

K = 16
N_RANDOM_STATES = 200  # per-problem floor for the equivalence sweeps


def random_states(seed, k=K, count=N_RANDOM_STATES):
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        size = rng.randint(0, k)
        states.append(tuple(sorted(rng.sample(range(k), size))))
    return states


def synthetic_evaluator(seed, k=K, conflicts=()):
    rng = random.Random(seed)
    return StateEvaluator(
        doi_values=sorted((rng.uniform(0.05, 0.95) for _ in range(k)), reverse=True),
        cost_values=[rng.uniform(1.0, 50.0) for _ in range(k)],
        reductions=[rng.uniform(0.05, 1.0) for _ in range(k)],
        base_size=1000.0,
        base_cost=rng.uniform(0.0, 10.0),
        conflicts=conflicts,
    )


class TestMaskPrimitives:
    def test_mask_roundtrip(self):
        for state in random_states(seed=1):
            assert state_of(mask_of(state)) == state

    def test_group_size_is_popcount(self):
        for state in random_states(seed=2):
            assert mask_group_size(mask_of(state)) == len(state)

    def test_membership(self):
        state = (0, 3, 7)
        mask = mask_of(state)
        for rank in range(10):
            assert mask_contains(mask, rank) == (rank in state)

    def test_duplicates_collapse(self):
        assert mask_of((2, 2, 5)) == mask_of((5, 2))

    def test_is_below_agrees_with_tuple(self):
        # Exhaustive over a small space: every ordered pair of states.
        states = [s for size in range(4) for s in combinations(range(5), size)]
        for a in states:
            for b in states:
                assert mask_is_below(mask_of(a), mask_of(b)) == is_below(a, b)

    def test_is_below_random_pairs(self):
        rng = random.Random(7)
        states = random_states(seed=8, k=12, count=300)
        for _ in range(600):
            a, b = rng.choice(states), rng.choice(states)
            assert mask_is_below(mask_of(a), mask_of(b)) == is_below(a, b)


class TestMaskTransitions:
    """Each mask transition must emit the same neighbors in the same
    order as its tuple twin (the algorithms rely on the ordering)."""

    def test_horizontal(self):
        for state in random_states(seed=3):
            expected = tr.horizontal(state, K)
            got = tr.horizontal_mask(mask_of(state), K)
            assert (state_of(got) if got is not None else None) == expected

    def test_horizontal_empty_state(self):
        assert tr.horizontal_mask(0, K) == 1
        assert tr.horizontal_mask(0, 0) is None

    def test_vertical_order_preserved(self):
        for state in random_states(seed=4):
            expected = tr.vertical(state, K)
            got = [state_of(m) for m in tr.vertical_mask(mask_of(state), K)]
            assert got == expected

    def test_horizontal2_order_preserved(self):
        for state in random_states(seed=5):
            expected = tr.horizontal2(state, K)
            got = [state_of(m) for m in tr.horizontal2_mask(mask_of(state), K)]
            assert got == expected

    def test_vertical_predecessors(self):
        for state in random_states(seed=6):
            expected = tr.vertical_predecessors(state, K)
            got = [
                state_of(m) for m in tr.vertical_predecessors_mask(mask_of(state), K)
            ]
            assert got == expected


class TestEvaluatorKernelEquivalence:
    """doi/cost/size via masks == via tuples, bit-exact, on >=200 random
    states per configuration."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_plain_evaluator(self, seed):
        evaluator = synthetic_evaluator(seed)
        for state in random_states(seed=seed * 100):
            mask = mask_of(state)
            assert evaluator.doi_mask(mask) == evaluator.doi(state)
            assert evaluator.cost_mask(mask) == evaluator.cost(state)
            assert evaluator.size_mask(mask) == evaluator.size(state)
            assert evaluator.size_independent_mask(mask) == evaluator.size_independent(
                state
            )

    def test_with_conflicts(self):
        conflicts = [(0, 3), (2, 5), (1, 7)]
        plain = synthetic_evaluator(21, conflicts=conflicts)
        for state in random_states(seed=22):
            mask = mask_of(state)
            assert plain.size_mask(mask) == plain.size(state)
            conflicted = any(set(pair) <= set(state) for pair in conflicts)
            if conflicted:
                assert plain.size_mask(mask) == 0.0
                assert plain.size_independent_mask(mask) > 0.0

    def test_cached_evaluator_matches_plain(self):
        plain = synthetic_evaluator(31, conflicts=[(0, 4)])
        cached = CachedStateEvaluator.wrap(plain)
        for state in random_states(seed=32):
            assert cached.doi(state) == plain.doi(state)
            assert cached.cost(state) == plain.cost(state)
            assert cached.size(state) == plain.size(state)
        assert cached.cache_hits > 0  # 200 random states of <= 2^16 collide


class TestSolveLevelEquivalence:
    """Every algorithm, run on the mask kernel over a real extracted
    preference space, against the brute-force oracle: exact algorithms
    must hit its optimum, heuristics must stay feasible and never beat
    it. (The evaluator tests above pin the mask kernel to the tuple
    kernel state by state.)"""

    @pytest.fixture(scope="class")
    def pspace(self, movie_db, movie_profile):
        from repro.sql.parser import parse_select

        query = parse_select("select title from MOVIE")
        # The full profile yields K=48 (2^48 states for the exhaustive
        # algorithms); the top-10 slice keeps every solve sub-second.
        return extract_preference_space(movie_db, query, movie_profile, k_limit=10)

    def problems(self, pspace):
        evaluator = pspace.evaluator()
        supreme = evaluator.supreme_cost()
        base = evaluator.base_size
        return [
            CQPProblem.problem1(smin=base * 0.02, smax=base * 0.8),
            CQPProblem.problem2(cmax=supreme * 0.5),
            CQPProblem.problem3(cmax=supreme * 0.6, smin=base * 0.02, smax=base * 0.9),
            CQPProblem.problem4(dmin=0.3),
        ]

    def test_all_algorithms_match_the_oracle(self, pspace):
        for problem in self.problems(pspace):
            oracle = exhaustive_oracle(pspace, problem)
            # D-MAXDOI keeps only chain-maximal states, so it is exact
            # (Theorem 3) only without a size window to miss.
            exact = {"c_boundaries", "min_cost"}
            if not problem.constraints.has_size_bounds:
                exact.add("d_maxdoi")
            algorithms = (
                ["min_cost"]
                if not problem.maximizing
                else ["d_maxdoi", "d_singlemaxdoi", "c_boundaries", "c_maxbounds", "d_heurdoi"]
            )
            for algorithm in algorithms:
                solution = adapters.solve(pspace, problem, algorithm)
                if algorithm in exact:
                    assert (solution is not None) == oracle.feasible, (
                        problem, algorithm,
                    )
                    if solution is None:
                        continue
                    got = solution.doi if problem.maximizing else solution.cost
                    want = oracle.doi if problem.maximizing else oracle.cost
                    assert got == pytest.approx(want, rel=1e-9), (problem, algorithm)
                    continue
                if solution is None:
                    continue  # a heuristic may miss a feasible state
                assert problem.satisfies(
                    solution.doi, solution.cost, solution.size
                ), (problem, algorithm)
                assert solution.doi <= oracle.doi * (1 + 1e-9), (problem, algorithm)
