"""Columnar execution kernel: frame semantics and engine equivalence.

The acceptance property for the columnar engine is *receipt-identical
equivalence*: on every query of the standard workload
(:mod:`repro.workloads.queries`), under both ``shared_scans`` settings,
the reference executor, the plan interpreter, and the columnar kernel
must return identical rows **and** identical cost receipts
(``blocks_read`` / ``io_ms`` / ``cpu_ms`` / ``rows_processed``). On
personalized queries (where the planner may pick a different join order
than the reference executor's FROM-order), the columnar engine must
match the plan interpreter exactly and the reference executor as a
multiset. Frame reuse must never change a receipt — only wall clock.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.personalizer import Personalizer
from repro.core.problem import CQPProblem
from repro.sql.ast_nodes import Operator
from repro.sql.columnar import (
    ColumnarExecutor,
    ColumnFrame,
    FrameCache,
    plan_key,
)
from repro.sql.executor import Executor
from repro.sql.parser import parse_select
from repro.sql.plan_executor import PlanExecutor
from repro.sql.planner import Planner
from repro.workloads.queries import generate_queries

RECEIPT_FIELDS = ("blocks_read", "io_ms", "cpu_ms", "rows_processed")


def receipt(result):
    return {name: getattr(result, name) for name in RECEIPT_FIELDS}


@pytest.fixture(scope="module")
def workload_queries():
    return generate_queries(count=10, seed=0)


# -- ColumnFrame basics ---------------------------------------------------------


class TestColumnFrame:
    def test_rows_without_selection(self):
        frame = ColumnFrame(["t.a", "t.b"], [[1, 2, 3], ["x", "y", "z"]])
        assert frame.n_rows == 3
        assert frame.rows() == [(1, "x"), (2, "y"), (3, "z")]

    def test_selection_vector_orders_and_drops(self):
        frame = ColumnFrame(["t.a"], [[10, 20, 30, 40]], sel=[3, 1])
        assert frame.n_rows == 2
        assert frame.rows() == [(40,), (20,)]
        assert frame.column_values(0) == [40, 20]

    def test_rows_returns_fresh_list(self):
        frame = ColumnFrame(["t.a"], [[1, 2]])
        first = frame.rows()
        first.append(("junk",))
        assert frame.rows() == [(1,), (2,)]

    def test_empty_frame(self):
        frame = ColumnFrame(["t.a"], [[]])
        assert frame.n_rows == 0
        assert frame.rows() == []


class TestPlanKey:
    def test_equal_plans_equal_keys(self, movie_db):
        query = parse_select("select title from MOVIE where year >= 1990")
        a = Planner(movie_db).plan(query)
        b = Planner(movie_db).plan(query)
        assert a is not b
        assert plan_key(a) == plan_key(b)

    def test_different_filters_differ(self, movie_db):
        a = Planner(movie_db).plan(parse_select("select title from MOVIE where year >= 1990"))
        b = Planner(movie_db).plan(parse_select("select title from MOVIE where year >= 1991"))
        assert plan_key(a) != plan_key(b)


# -- vectorized filter semantics (property) -------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=30),
    pivot=st.integers(-5, 5),
    op=st.sampled_from(list(Operator)),
)
def test_vectorized_filter_matches_operator_evaluate(values, pivot, op):
    """The selection vector a vectorized filter computes must keep
    exactly the rows ``Operator.evaluate`` keeps (NULLs never match)."""
    from repro.sql.columnar import _OPERATOR_FN

    compare = _OPERATOR_FN[op]
    vectorized = [
        i for i, v in enumerate(values) if v is not None and compare(v, pivot)
    ]
    rowwise = [i for i, v in enumerate(values) if op.evaluate(v, pivot)]
    assert vectorized == rowwise


# -- the workload equivalence sweep ---------------------------------------------


@pytest.mark.tier2
@pytest.mark.parametrize("shared_scans", [False, True])
def test_engines_agree_on_every_workload_query(movie_db, workload_queries, shared_scans):
    for query in workload_queries:
        reference = Executor(movie_db, shared_scans=shared_scans).execute(query)
        columnar = ColumnarExecutor(movie_db, shared_scans=shared_scans).execute(query)
        assert columnar.rows == reference.rows
        assert columnar.columns == reference.columns
        assert receipt(columnar) == receipt(reference)
        # The plan interpreter has no scan cache; compare it on the
        # setting it implements.
        if not shared_scans:
            plan = Planner(movie_db).plan(query)
            interpreted = PlanExecutor(movie_db).execute(plan)
            assert interpreted.rows == reference.rows
            assert receipt(interpreted) == receipt(reference)


@pytest.mark.tier2
@pytest.mark.parametrize("shared_scans", [False, True])
def test_engines_agree_on_personalized_queries(movie_db, movie_profile, shared_scans):
    personalizer = Personalizer(movie_db)
    problem = CQPProblem.problem2(cmax=400.0)
    checked = 0
    for query in generate_queries(count=4, seed=0):
        outcome = personalizer.personalize(query, movie_profile, problem, k_limit=10)
        target = outcome.personalized_query
        reference = Executor(movie_db, shared_scans=shared_scans).execute(target)
        columnar = ColumnarExecutor(movie_db, shared_scans=shared_scans).execute(target)
        # Join orders may differ between the FROM-order reference and the
        # planned engines, so rows compare as multisets there ...
        assert Counter(columnar.rows) == Counter(reference.rows)
        if not shared_scans:
            # ... while against the plan interpreter (same plan, no scan
            # cache) rows and receipts must be bit-identical.
            plan = Planner(movie_db).plan(target)
            interpreted = PlanExecutor(movie_db).execute(plan)
            assert columnar.rows == interpreted.rows
            assert receipt(columnar) == receipt(interpreted)
        if outcome.paths:
            checked += 1
    assert checked > 0  # the profile actually personalized something


# -- frame reuse: receipts never change, wall clock does ------------------------


class TestFrameReuse:
    def _personalized_query(self, movie_db, movie_profile):
        personalizer = Personalizer(movie_db)
        outcome = personalizer.personalize(
            parse_select("select title from MOVIE where year >= 1980"),
            movie_profile,
            CQPProblem.problem2(cmax=400.0),
            k_limit=10,
        )
        assert len(outcome.paths) >= 2  # a genuine UNION ALL statement
        return outcome.personalized_query

    def test_within_statement_sharing_counts_branches(self, movie_db, movie_profile):
        query = self._personalized_query(movie_db, movie_profile)
        result = ColumnarExecutor(movie_db).execute(query)
        assert result.frame_cache_hits > 0
        assert result.branches_incremental > 0

    @pytest.mark.parametrize("shared_scans", [False, True])
    def test_reuse_never_changes_the_receipt(self, movie_db, movie_profile, shared_scans):
        query = self._personalized_query(movie_db, movie_profile)
        cold = ColumnarExecutor(
            movie_db, shared_scans=shared_scans, frame_reuse=False
        ).execute(query)
        warm_executor = ColumnarExecutor(movie_db, shared_scans=shared_scans)
        cache = FrameCache()
        first = warm_executor.execute(query, frame_cache=cache)
        second = warm_executor.execute(query, frame_cache=cache)
        assert cold.rows == first.rows == second.rows
        assert receipt(cold) == receipt(first) == receipt(second)
        assert first.frame_cache_hits > 0  # intra-statement sharing
        assert second.frame_cache_hits >= 1  # the whole statement reused
        assert second.frame_cache_misses == 0

    def test_cache_flushes_when_data_changes(self):
        from tests.conftest import SMALL_DATASET
        from repro.datasets.movies import build_movie_database

        database = build_movie_database(SMALL_DATASET, seed=1234)
        database.analyze()
        query = parse_select("select title from MOVIE where year >= 1990")
        executor = ColumnarExecutor(database)
        cache = FrameCache()
        before = executor.execute(query, frame_cache=cache)
        database.insert("MOVIE", [999999, "A Brand New Movie", 2001, 100, 1])
        database.analyze()
        after = executor.execute(query, frame_cache=cache)
        assert len(after.rows) == len(before.rows) + 1

    def test_zero_capacity_cache_disables_storage(self, movie_db):
        query = parse_select("select title from MOVIE")
        cache = FrameCache(capacity=0)
        result = ColumnarExecutor(movie_db).execute(query, frame_cache=cache)
        second = ColumnarExecutor(movie_db).execute(query, frame_cache=cache)
        assert result.rows == second.rows
        assert len(cache) == 0
        assert second.frame_cache_hits == 0


# -- engine flag plumbing -------------------------------------------------------


class TestEngineFlag:
    def test_executor_engine_delegates(self, movie_db, workload_queries):
        query = workload_queries[1]
        row = Executor(movie_db, engine="row").execute(query)
        columnar = Executor(movie_db, engine="columnar").execute(query)
        assert columnar.rows == row.rows
        assert receipt(columnar) == receipt(row)
        assert row.rows_filtered_rowwise > 0
        assert columnar.rows_filtered_vectorized > 0
        assert columnar.rows_filtered_rowwise == 0

    def test_plan_executor_engine_delegates(self, movie_db, workload_queries):
        # The plan interpreter is the row reference; the columnar
        # engine runs the same plan through execute_plan.
        plan = Planner(movie_db).plan(workload_queries[1])
        row = PlanExecutor(movie_db).execute(plan)
        columnar = ColumnarExecutor(movie_db).execute_plan(plan)
        assert columnar.rows == row.rows
        assert receipt(columnar) == receipt(row)

    def test_unknown_engine_rejected(self, movie_db):
        with pytest.raises(ValueError):
            Executor(movie_db, engine="gpu")
