"""Tests for states and transitions (Section 5.1, Tables 3-5, Figure 4),
on the rank-tuple reference helpers the search loops are checked
against."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.testing.reference import (
    budget_value,
    group_size,
    horizontal,
    horizontal2,
    is_below,
    make_state,
    states_in_group,
    vertical,
    vertical_predecessors,
)
from repro.workloads.scenarios import make_cost_space, make_synthetic_evaluator

K = 4  # the paper's Figure 4 space over C = {c1, c2, c3, c4}

states = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6).map(
    make_state
)


class TestState:
    def test_make_state_sorts_and_dedups(self):
        assert make_state([3, 1, 3]) == (1, 3)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            make_state([-1])

    def test_group_size(self):
        assert group_size((0, 2, 3)) == 3

    def test_table3_enumeration(self):
        # Table 3: group sizes 1..4 over 4 preferences have 4,6,4,1 states.
        assert [len(list(states_in_group(K, g))) for g in (1, 2, 3, 4)] == [4, 6, 4, 1]

    def test_is_below_requires_same_group(self):
        assert not is_below((1, 2, 3), (1, 2))

    def test_is_below_dominance(self):
        assert is_below((1, 3), (0, 3))       # c2c4 below c1c4
        assert is_below((1, 2), (1, 2))       # reflexive
        assert not is_below((0, 3), (1, 2))   # 0 < 1 in first slot


class TestHorizontal:
    def test_paper_figure4_example(self):
        # Horizontal(c1c3) = c1c3c4  (0-based: (0,2) -> (0,2,3))
        assert horizontal((0, 2), K) == (0, 2, 3)

    def test_edge_of_space(self):
        assert horizontal((1, 3), K) is None

    def test_empty_seeds_first_rank(self):
        assert horizontal((), K) == (0,)

    def test_empty_space(self):
        assert horizontal((), 0) is None

    @given(states)
    def test_grows_group_by_one(self, state):
        result = horizontal(state, 12)
        if result is not None:
            assert len(result) == len(state) + 1
            assert set(state) <= set(result)


class TestVertical:
    def test_paper_figure4_example(self):
        # Vertical(c1c3) = {c1c4, c2c3}  (0-based (0,2) -> {(0,3), (1,2)})
        assert set(vertical((0, 2), K)) == {(0, 3), (1, 2)}

    def test_blocked_by_present_successor(self):
        # In c1c2, rank 0 cannot move to rank 1 (already present).
        assert vertical((0, 1), K) == [(0, 2)]

    def test_last_rank_cannot_move(self):
        assert vertical((3,), K) == []

    @given(states)
    def test_preserves_group_size(self, state):
        for neighbor in vertical(state, 12):
            assert len(neighbor) == len(state)

    @given(states)
    def test_neighbors_dominate_origin(self, state):
        # Every Vertical neighbor is "below" its origin (reachability).
        for neighbor in vertical(state, 12):
            assert is_below(neighbor, state)

    @given(states)
    def test_vertical_lowers_budget_on_aligned_space(self, state):
        # Table 4: Vertical moves lower cost when the vector sorts costs.
        k = 12
        costs = [100.0 - 5 * i for i in range(k)]
        dois = [1.0 - i / k for i in range(k)]
        evaluator = make_synthetic_evaluator(dois, costs)
        space = make_cost_space(evaluator, cmax=1e9)
        state = make_state([r for r in state if r < k])
        if not state:
            return
        origin_cost = budget_value(space, state)
        for neighbor in vertical(state, k):
            assert budget_value(space, neighbor) <= origin_cost + 1e-9


class TestHorizontal2:
    def test_all_insertions(self):
        # Horizontal2(c2) = {c1c2, c2c3, c2c4} in insertion order.
        assert horizontal2((1,), K) == [(0, 1), (1, 2), (1, 3)]

    def test_full_state_has_none(self):
        assert horizontal2((0, 1, 2, 3), K) == []

    def test_ordered_by_decreasing_vector_parameter(self):
        # Ascending inserted rank == descending cost on a cost vector.
        neighbors = horizontal2((2,), 5)
        inserted = [tuple(set(n) - {2})[0] for n in neighbors]
        assert inserted == sorted(inserted)


class TestVerticalPredecessors:
    def test_inverse_of_vertical(self):
        state = (0, 2)
        for neighbor in vertical(state, K):
            assert state in vertical_predecessors(neighbor, K)

    def test_first_rank_has_no_predecessor(self):
        assert vertical_predecessors((0,), K) == []

    @given(states)
    def test_roundtrip(self, state):
        for predecessor in vertical_predecessors(state, 12):
            assert state in vertical(predecessor, 12)
