"""Tests for the planner (Figure 2's optimizer box) and its execution.

Planned trees run on the columnar engine; the oracle is the row
executor given the planner's join order (``in_plan_order``), which must
match it row for row, in order, and receipt for receipt."""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.errors import BindError, ExecutionError
from repro.sql.executor import Executor
from repro.sql.parser import parse_select
from repro.sql.plan import (
    FilterNode,
    HashJoinNode,
    IndexProbeNode,
    LimitNode,
    PlanNode,
    ScanNode,
    SortNode,
)
from repro.sql.columnar import ColumnarExecutor
from repro.sql.planner import Planner, resolve_column
from repro.sql.ast_nodes import ColumnRef
from repro.testing.reference import in_plan_order

from tests.sql.test_executor_oracle import _build_database, spj_instances


def _collect(plan: PlanNode, node_type):
    found = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
        stack.extend(node.children())
    return found


RECEIPT_FIELDS = ("blocks_read", "io_ms", "cpu_ms", "rows_processed")


def assert_matches_plan_order(database, query, plan, result, use_indexes=False):
    """``result`` (the planned tree's execution) equals the row oracle:
    rows in order, columns, and the full cost receipt."""
    oracle = Executor(database, use_indexes=use_indexes).execute(
        in_plan_order(database, query)
    )
    assert result.rows == oracle.rows, plan.explain()
    assert result.columns == oracle.columns
    for name in RECEIPT_FIELDS:
        assert getattr(result, name) == getattr(oracle, name), name


class TestResolveColumn:
    def test_qualified_exact(self):
        assert resolve_column(["M.title", "G.genre"], ColumnRef("genre", "G")) == 1

    def test_unqualified_unique_suffix(self):
        assert resolve_column(["M.title", "G.genre"], ColumnRef("title")) == 0

    def test_unqualified_ambiguous(self):
        with pytest.raises(BindError):
            resolve_column(["M.mid", "G.mid"], ColumnRef("mid"))

    def test_missing(self):
        with pytest.raises(BindError):
            resolve_column(["M.title"], ColumnRef("year", "M"))


class TestPlanShape:
    def test_selection_pushed_below_join(self, movie_db):
        query = parse_select(
            "select title from MOVIE M, GENRE G "
            "where M.mid = G.mid and G.genre = 'drama'"
        )
        plan = Planner(movie_db).plan(query)
        joins = _collect(plan, HashJoinNode)
        assert len(joins) == 1
        text = plan.explain()
        # The genre filter must sit below the join in the explain tree.
        assert text.index("HashJoin") < text.index("Filter(G.genre")

    def test_smaller_filtered_input_drives_order(self, movie_db):
        # DIRECTOR (small) should be chosen as the first input over MOVIE.
        query = parse_select(
            "select title from MOVIE M, DIRECTOR D where M.did = D.did"
        )
        plan = Planner(movie_db).plan(query)
        join = _collect(plan, HashJoinNode)[0]
        scans = _collect(join.left, ScanNode)
        assert scans and scans[0].relation == "DIRECTOR"

    def test_residual_filter_applies_as_soon_as_bound(self, movie_db):
        # DIRECTOR is joined first, so its same-table comparison filters
        # the scan below the join (where the row executor applies it),
        # not the join's output.
        query = parse_select(
            "select title from MOVIE M, DIRECTOR D "
            "where M.did = D.did and D.did >= D.did"
        )
        join = _collect(Planner(movie_db).plan(query), HashJoinNode)[0]
        below = [str(c) for f in _collect(join.left, FilterNode) for c in f.conditions]
        assert below == ["D.did >= D.did"]

    def test_index_probe_when_enabled(self, movie_db):
        movie_db.create_index("GENRE", "genre")
        query = parse_select(
            "select title from MOVIE M, GENRE G "
            "where M.mid = G.mid and G.genre = 'drama'"
        )
        without = Planner(movie_db, use_indexes=False).plan(query)
        with_index = Planner(movie_db, use_indexes=True).plan(query)
        assert not _collect(without, IndexProbeNode)
        assert _collect(with_index, IndexProbeNode)

    def test_order_limit_operators(self, movie_db):
        query = parse_select("select title from MOVIE order by title desc limit 3")
        plan = Planner(movie_db).plan(query)
        assert isinstance(plan, LimitNode)
        assert isinstance(plan.child, SortNode)

    def test_explain_is_indented_tree(self, movie_db):
        query = parse_select(
            "select title from MOVIE M, GENRE G where M.mid = G.mid"
        )
        text = Planner(movie_db).plan(query).explain()
        lines = text.splitlines()
        assert lines[0].startswith("Project")
        assert any(line.startswith("  ") for line in lines)


class TestPlanExecution:
    def run_both(self, db, text):
        query = parse_select(text)
        reference = Executor(db).execute(query)
        plan = Planner(db).plan(query)
        result = ColumnarExecutor(db).execute_plan(plan)
        assert_matches_plan_order(db, query, plan, result)
        return reference, result

    def test_join_query_matches_reference(self, movie_db):
        reference, result = self.run_both(
            movie_db,
            "select title from MOVIE M, GENRE G "
            "where M.mid = G.mid and G.genre = 'drama'",
        )
        assert Counter(result.rows) == Counter(reference.rows)

    def test_order_limit_matches_reference(self, movie_db):
        reference, result = self.run_both(
            movie_db, "select title, year from MOVIE order by year desc, title limit 7"
        )
        assert result.rows == reference.rows

    def test_same_io_for_scan_plans(self, movie_db):
        reference, result = self.run_both(
            movie_db, "select title from MOVIE M, DIRECTOR D where M.did = D.did"
        )
        assert result.blocks_read == reference.blocks_read

    def test_personalized_query_through_plans(self, movie_db, movie_profile):
        from repro.core.personalizer import Personalizer
        from repro.core.problem import CQPProblem

        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            "select title from MOVIE", movie_profile, CQPProblem.problem2(cmax=200.0)
        )
        reference = personalizer.execute(outcome)
        target = outcome.personalized_query
        plan = Planner(movie_db).plan(target)
        result = ColumnarExecutor(movie_db).execute_plan(plan)
        assert sorted(result.rows) == sorted(reference.rows)
        assert_matches_plan_order(movie_db, target, plan, result)

    def test_index_probe_execution(self, movie_db):
        # GENRE spans several blocks, so a probe genuinely beats the scan
        # (on a 1-block table the probe's bucket block would lose).
        movie_db.create_index("GENRE", "genre")
        genre = movie_db.table("GENRE").column("genre")[0]
        query = parse_select("select mid from GENRE where genre = '%s'" % genre)
        plan = Planner(movie_db, use_indexes=True).plan(query)
        result = ColumnarExecutor(movie_db).execute_plan(plan)
        reference = Executor(movie_db).execute(query)
        assert sorted(result.rows) == sorted(reference.rows)
        assert result.blocks_read < reference.blocks_read
        assert_matches_plan_order(movie_db, query, plan, result, use_indexes=True)

    def test_missing_index_at_execution_detected(self, movie_db):
        probe = IndexProbeNode(
            relation="MOVIE", binding="MOVIE", attribute="title", value="x"
        )
        with pytest.raises(ExecutionError):
            ColumnarExecutor(movie_db).execute_plan(probe)


@settings(max_examples=100, deadline=None)
@given(spj_instances())
def test_planner_matches_reference_executor(instance):
    """The planner path and the inline-planning executor agree on any
    random SPJ query (same generator as the executor oracle): as a
    multiset in FROM order, and exactly in the plan's join order."""
    tables, query = instance
    database = _build_database(tables)
    reference = Executor(database).execute(query)
    plan = Planner(database).plan(query)
    result = ColumnarExecutor(database).execute_plan(plan)
    assert Counter(result.rows) == Counter(reference.rows)
    assert_matches_plan_order(database, query, plan, result)
