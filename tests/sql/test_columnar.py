"""Columnar execution kernel: frame semantics and engine equivalence.

The acceptance property for the columnar engine is *receipt-identical
equivalence*: on every query of the standard workload
(:mod:`repro.workloads.queries`), under both ``shared_scans`` settings,
the reference executor and the columnar kernel must return identical
rows **and** identical cost receipts (``blocks_read`` / ``io_ms`` /
``cpu_ms`` / ``rows_processed``). On personalized queries (where the
planner may pick a different join order than the reference executor's
FROM-order), the columnar engine must match the reference executor run
in the plan's join order (``in_plan_order``) exactly, and the FROM-order
run as a multiset.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.personalizer import Personalizer
from repro.core.problem import CQPProblem
from repro.sql.ast_nodes import Operator
from repro.sql.columnar import ColumnarExecutor, ColumnFrame
from repro.sql.executor import Executor
from repro.sql.parser import parse_select
from repro.sql.planner import Planner
from repro.testing.reference import in_plan_order
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
        # The planner's join order is the reference's FROM order here:
        # the row engine run in plan order changes nothing.
        planned = Executor(movie_db, shared_scans=shared_scans).execute(
            in_plan_order(movie_db, query)
        )
        assert planned.rows == reference.rows
        assert receipt(planned) == receipt(reference)


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
        # ... while against the row engine in the plan's join order rows
        # and receipts must be bit-identical.
        planned = Executor(movie_db, shared_scans=shared_scans).execute(
            in_plan_order(movie_db, target)
        )
        assert columnar.rows == planned.rows
        assert receipt(columnar) == receipt(planned)
        if outcome.paths:
            checked += 1
    assert checked > 0  # the profile actually personalized something


# -- state reused across executions -------------------------------------------


class TestFrameReuse:
    """Every scan frame shares its table's encoded columns, and the
    executor memoizes plans and filter programs across executions;
    none of that may outlive the data it was built from."""

    def test_cache_flushes_when_data_changes(self):
        from tests.conftest import SMALL_DATASET
        from repro.datasets.movies import build_movie_database

        database = build_movie_database(SMALL_DATASET, seed=1234)
        database.analyze()
        query = parse_select("select title from MOVIE where year >= 1990")
        executor = ColumnarExecutor(database)
        before = executor.execute(query)
        database.insert("MOVIE", [999999, "A Brand New Movie", 2001, 100, 1])
        database.analyze()
        after = executor.execute(query)
        assert len(after.rows) == len(before.rows) + 1


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
        # The columnar engine runs a prepared plan through execute_plan;
        # the row engine in the plan's join order is its reference.
        query = workload_queries[1]
        plan = Planner(movie_db).plan(query)
        row = Executor(movie_db).execute(in_plan_order(movie_db, query))
        columnar = ColumnarExecutor(movie_db).execute_plan(plan)
        assert columnar.rows == row.rows
        assert receipt(columnar) == receipt(row)

    def test_unknown_engine_rejected(self, movie_db):
        with pytest.raises(ValueError):
            Executor(movie_db, engine="gpu")
