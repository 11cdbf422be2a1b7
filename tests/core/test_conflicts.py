"""Tests for conflict-aware size estimation.

Two preference paths selecting different values of the same attribute
(genre = 'musical' vs genre = 'horror') have a provably empty
conjunction; the independence product cannot see that. These tests cover
the conflict detector, the evaluator's size zeroing, and the end-to-end
effect: size-constrained problems stop choosing contradictory sets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimation import StateEvaluator
from repro.core.preference_space import _path_conflicts, extract_preference_space
from repro.core.problem import CQPProblem
from repro.core import adapters
from repro.preferences.model import (
    AtomicPreference,
    JoinCondition,
    PreferencePath,
    SelectionCondition,
    selection_conflicts,
)
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import Operator
from repro.sql.parser import parse_select


def sel(value, op=Operator.EQ, attribute="genre", relation="GENRE"):
    return SelectionCondition(relation, attribute, value, op=op)


class TestSelectionConflicts:
    def test_different_equalities_conflict(self):
        assert selection_conflicts(sel("musical"), sel("horror"))

    def test_same_equality_no_conflict(self):
        assert not selection_conflicts(sel("musical"), sel("musical"))

    def test_different_attributes_never_conflict(self):
        assert not selection_conflicts(
            sel("musical"), sel("musical", attribute="other")
        )

    def test_different_relations_never_conflict(self):
        assert not selection_conflicts(sel("musical"), sel("horror", relation="R2"))

    def test_equality_vs_ne_same_value(self):
        assert selection_conflicts(sel("musical"), sel("musical", op=Operator.NE))
        assert not selection_conflicts(sel("musical"), sel("horror", op=Operator.NE))

    def test_empty_numeric_range(self):
        low = sel(2000, op=Operator.GE, attribute="year", relation="MOVIE")
        high = sel(1990, op=Operator.LE, attribute="year", relation="MOVIE")
        assert selection_conflicts(low, high)

    def test_satisfiable_range(self):
        low = sel(1990, op=Operator.GE, attribute="year", relation="MOVIE")
        high = sel(2000, op=Operator.LE, attribute="year", relation="MOVIE")
        assert not selection_conflicts(low, high)

    def test_touching_bounds_strictness(self):
        eq = sel(5, attribute="x", relation="R")
        lt = sel(5, op=Operator.LT, attribute="x", relation="R")
        le = sel(5, op=Operator.LE, attribute="x", relation="R")
        gt = sel(5, op=Operator.GT, attribute="x", relation="R")
        assert selection_conflicts(eq, lt)
        assert not selection_conflicts(eq, le)
        assert selection_conflicts(lt, gt)

    def test_equality_out_of_range(self):
        eq = sel(3, attribute="x", relation="R")
        ge = sel(7, op=Operator.GE, attribute="x", relation="R")
        assert selection_conflicts(eq, ge)

    def test_unorderable_values_assumed_satisfiable(self):
        a = sel("abc", op=Operator.GE, attribute="x", relation="R")
        b = sel(5, op=Operator.LE, attribute="x", relation="R")
        assert not selection_conflicts(a, b)

    @pytest.mark.parametrize("op", [Operator.GE, Operator.GT, Operator.LE, Operator.LT])
    def test_unorderable_bounds_on_one_side_assumed_satisfiable(self, op):
        # Both conditions bound the same side, so combining them compares
        # the two values themselves ('abc' against 5).
        a = sel("abc", op=op, attribute="year", relation="MOVIE")
        b = sel(5, op=op, attribute="year", relation="MOVIE")
        assert not selection_conflicts(a, b)
        assert not selection_conflicts(b, a)


def _all_pairs_conflicts(paths):
    """The reference scan: every pair of paths, every pair of selections."""
    selections = [
        [c for c in path.conditions if isinstance(c, SelectionCondition)]
        for path in paths
    ]
    return [
        (i, j)
        for i in range(len(paths))
        for j in range(i + 1, len(paths))
        if any(selection_conflicts(a, b) for a in selections[i] for b in selections[j])
    ]


def _path(relation, attribute, op, value, joined):
    """A selection path on ``relation``, optionally reached through a join."""
    step = AtomicPreference(SelectionCondition(relation, attribute, value, op), 0.7)
    if not joined:
        return PreferencePath([step])
    join = AtomicPreference(JoinCondition("MOVIE", "mid", relation, "mid"), 0.8)
    return PreferencePath([join, step])


# A few relations, attributes and values, so that buckets collide often
# and every operator pairing (conflicting or not) occurs.
random_paths = st.lists(
    st.builds(
        _path,
        st.sampled_from(["GENRE", "CAST"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(list(Operator)),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(random_paths)
def test_bucketed_conflicts_match_the_all_pairs_scan(paths):
    assert _path_conflicts(paths) == _all_pairs_conflicts(paths)


class TestEvaluatorConflicts:
    def evaluator(self):
        return StateEvaluator(
            doi_values=[0.9, 0.8, 0.7],
            cost_values=[10.0, 10.0, 10.0],
            reductions=[0.5, 0.5, 0.5],
            base_size=100.0,
            conflicts=[(0, 1)],
        )

    def test_conflicted_state_has_zero_size(self):
        evaluator = self.evaluator()
        assert evaluator.size((0, 1)) == 0.0
        assert evaluator.size((0, 1, 2)) == 0.0

    def test_conflict_free_states_unchanged(self):
        evaluator = self.evaluator()
        assert evaluator.size((0, 2)) == pytest.approx(25.0)

    def test_independent_size_ignores_conflicts(self):
        evaluator = self.evaluator()
        assert evaluator.size_independent((0, 1)) == pytest.approx(25.0)

    def test_formula8_still_holds(self):
        evaluator = self.evaluator()
        # x ⊆ y ⇒ size(x) >= size(y), across the conflict boundary too.
        assert evaluator.size((0,)) >= evaluator.size((0, 1))
        assert evaluator.size((0, 1)) >= evaluator.size((0, 1, 2))

    def test_doi_and_cost_unaffected(self):
        evaluator = self.evaluator()
        assert evaluator.cost((0, 1)) == pytest.approx(20.0)
        assert evaluator.doi((0, 1)) == pytest.approx(1 - 0.1 * 0.2)


class TestConflictsEndToEnd:
    @pytest.fixture()
    def conflicted_profile(self, movie_db):
        genres = sorted(set(movie_db.table("GENRE").column("genre")))[:2]
        profile = UserProfile("torn")
        profile.add_join("MOVIE", "mid", "GENRE", "mid", doi=0.95)
        profile.add_selection("GENRE", "genre", genres[0], doi=0.9)
        profile.add_selection("GENRE", "genre", genres[1], doi=0.85)
        profile.add_selection("MOVIE", "year", movie_db.table("MOVIE").column("year")[0], doi=0.5)
        return profile

    def test_extraction_records_conflicts(self, movie_db, conflicted_profile, movie_query):
        pspace = extract_preference_space(movie_db, movie_query, conflicted_profile)
        assert len(pspace.conflicts) == 1
        i, j = pspace.conflicts[0]
        assert pspace.evaluator().size((i, j)) == 0.0

    def test_truncation_keeps_valid_conflicts(self, movie_db, conflicted_profile, movie_query):
        pspace = extract_preference_space(movie_db, movie_query, conflicted_profile)
        i, j = pspace.conflicts[0]
        cut = pspace.truncated(max(i, j))  # drops one side of the pair
        assert all(a < cut.k and b < cut.k for a, b in cut.conflicts)

    def test_size_constrained_solution_avoids_conflicts(
        self, movie_db, conflicted_profile, movie_query
    ):
        pspace = extract_preference_space(movie_db, movie_query, conflicted_profile)
        problem = CQPProblem.problem1(smin=1.0, smax=pspace.base_size)
        solution = adapters.solve(pspace, problem, "c_boundaries")
        assert solution is not None
        chosen = set(solution.pref_indices)
        for a, b in pspace.conflicts:
            assert not {a, b} <= chosen
        assert solution.size >= 1.0 - 1e-9

    def test_problem1_matches_exhaustive_with_conflicts(
        self, movie_db, conflicted_profile, movie_query
    ):
        pspace = extract_preference_space(movie_db, movie_query, conflicted_profile)
        problem = CQPProblem.problem1(smin=1.0, smax=pspace.base_size)
        exact = adapters.solve(pspace, problem, "c_boundaries")
        reference = adapters.solve(pspace, problem, "exhaustive")
        assert exact.doi == pytest.approx(reference.doi, abs=1e-9)
