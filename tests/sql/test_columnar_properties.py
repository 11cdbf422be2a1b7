"""Property-based equivalence of the vectorized engine vs the row engine.

The vectorized kernels (typed numpy columns, dictionary-encoded strings,
selection-vector filters, factorized joins — see
``repro.storage.columns`` / ``repro.sql.columnar``) must be
*indistinguishable* from the tuple-at-a-time interpreter: identical rows
in identical order and bit-identical cost receipts, for every operand
the type system can produce — NULLs, floats, dictionary misses, empty
selections, cross-type keys. Hypothesis generates typed databases and
queries; the same planned tree runs through ``PlanExecutor`` (row) and
``ColumnarExecutor`` and both outputs are compared exactly. A second
block drives the personalized UNION ALL queries of all six Table 1
problems through both engines end to end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.personalizer import Personalizer
from repro.core.problem import CQPProblem
from repro.sql.ast_nodes import (
    ColumnRef,
    Comparison,
    Literal,
    Operator,
    OrderItem,
    SelectQuery,
    TableRef,
)
from repro.sql.columnar import ColumnarExecutor, FrameCache
from repro.sql.parser import parse_select
from repro.sql.plan_executor import PlanExecutor
from repro.sql.planner import Planner
from repro.storage.database import Database
from repro.storage.datatypes import DataType
from repro.storage.schema import Attribute, Relation, Schema

RECEIPT_FIELDS = ("blocks_read", "io_ms", "cpu_ms", "rows_processed")


def receipt(result):
    return {name: getattr(result, name) for name in RECEIPT_FIELDS}


# -- typed database + query strategies ------------------------------------------

# Small closed vocabularies so equality literals sometimes hit and the
# "zz-missing" string is a guaranteed dictionary miss.
INTS = st.one_of(st.none(), st.integers(-3, 3))
FLOATS = st.one_of(st.none(), st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5, 2.0]))
STRINGS = st.one_of(st.none(), st.sampled_from(["ash", "birch", "cedar", "oak"]))

INT_LITERALS = st.integers(-4, 4)
FLOAT_LITERALS = st.sampled_from([-1.5, 0.0, 0.5, 2.0, 9.9])
STRING_LITERALS = st.sampled_from(["ash", "cedar", "oak", "zz-missing", ""])

COLUMNS = (
    ("i", DataType.INTEGER, INTS, INT_LITERALS),
    ("f", DataType.FLOAT, FLOATS, FLOAT_LITERALS),
    ("s", DataType.STRING, STRINGS, STRING_LITERALS),
)
LITERALS_BY_NAME = {name: literals for name, _, _, literals in COLUMNS}
OPERATORS = st.sampled_from(list(Operator))


def _build_database(tables):
    schema = Schema()
    for name in tables:
        schema.add_relation(
            Relation(
                name,
                [Attribute(column, data_type) for column, data_type, _, _ in COLUMNS],
            )
        )
    database = Database(schema)
    for name, rows in tables.items():
        database.load(name, rows)
    database.analyze()
    return database


@st.composite
def typed_instances(draw):
    """(tables, query): a typed database and a random query over it.

    Conditions compare same-typed operands only (cross-type ordering
    raises TypeError identically in both engines, which aborts the
    example rather than checking anything). NULLs appear in every
    column; empty tables and always-false literals produce the
    empty-selection paths.
    """
    n_tables = draw(st.integers(1, 2))
    names = ["T%d" % i for i in range(n_tables)]
    row = st.tuples(*[values for _, _, values, _ in COLUMNS])
    tables = {
        name: draw(st.lists(row, min_size=0, max_size=12)) for name in names
    }

    conditions = []
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from([c[0] for c in COLUMNS]))
        left = ColumnRef(column, draw(st.sampled_from(names)))
        op = draw(OPERATORS)
        if draw(st.booleans()):
            right = Literal(draw(LITERALS_BY_NAME[column]))
        else:
            right = ColumnRef(column, draw(st.sampled_from(names)))
        conditions.append(Comparison(left, op, right))

    select = tuple(
        ColumnRef(draw(st.sampled_from([c[0] for c in COLUMNS])),
                  draw(st.sampled_from(names)))
        for _ in range(draw(st.integers(1, 3)))
    )
    order_by = ()
    if draw(st.booleans()):
        # Sort keys must survive projection (the planner sorts the
        # projected frame) and be unambiguous within it.
        candidates = [
            ref for ref in select if sum(1 for o in select if o.name == ref.name) == 1
        ]
        if candidates:
            order_by = tuple(
                OrderItem(draw(st.sampled_from(candidates)),
                          descending=draw(st.booleans()))
                for _ in range(draw(st.integers(1, 2)))
            )
    query = SelectQuery(
        select=select,
        from_tables=tuple(TableRef(name) for name in names),
        where=tuple(conditions),
        distinct=draw(st.booleans()),
        order_by=order_by,
        limit=draw(st.one_of(st.none(), st.integers(0, 6))),
    )
    return tables, query


@settings(max_examples=120, deadline=None)
@given(typed_instances())
def test_columnar_matches_row_engine_on_typed_queries(instance):
    """Same plan, both engines: identical rows (in order) and receipts."""
    tables, query = instance
    database = _build_database(tables)
    plan = Planner(database).plan(query)
    row = PlanExecutor(database).execute(plan)
    columnar = ColumnarExecutor(database).execute_plan(plan)
    assert columnar.rows == row.rows
    assert columnar.columns == row.columns
    assert receipt(columnar) == receipt(row)


@settings(max_examples=60, deadline=None)
@given(typed_instances())
def test_frame_reuse_is_invisible(instance):
    """A warm second run returns the same rows and the same receipt."""
    tables, query = instance
    database = _build_database(tables)
    plan = Planner(database).plan(query)
    executor = ColumnarExecutor(database)
    cache = FrameCache()
    first = executor.execute_plan(plan, frame_cache=cache)
    second = executor.execute_plan(plan, frame_cache=cache)
    assert first.rows == second.rows
    assert receipt(first) == receipt(second)


# -- deterministic edge cases ----------------------------------------------------


EDGE_ROWS = [
    (1, 0.5, "ash"),
    (None, None, None),
    (2, -1.5, "oak"),
    (1, 0.5, "ash"),
    (-3, 0.0, "birch"),
]


@pytest.mark.parametrize(
    "sql",
    [
        # Dictionary miss: the literal is absent from the column's
        # dictionary — every operator must still answer exactly.
        "select i from T0 where s = 'zz-missing'",
        "select i from T0 where s <> 'zz-missing'",
        "select i from T0 where s < 'zz-missing'",
        "select i from T0 where s >= 'aaa'",
        # NULL literals never match anything.
        "select i, s from T0 where i > 1 and f <= 0.5",
        # Empty selection propagating through sort/distinct/limit.
        "select distinct s from T0 where i > 99 order by s desc limit 3",
        # NULL ordering (NULLs last, ties stable) and float keys.
        "select i, f, s from T0 order by f desc, i",
        "select distinct i, s from T0 order by i",
    ],
)
def test_edge_cases_match_row_engine(sql):
    database = _build_database({"T0": EDGE_ROWS})
    plan = Planner(database).plan(parse_select(sql))
    row = PlanExecutor(database).execute(plan)
    columnar = ColumnarExecutor(database).execute_plan(plan)
    assert columnar.rows == row.rows
    assert receipt(columnar) == receipt(row)


def test_empty_table_is_not_a_special_case():
    database = _build_database({"T0": []})
    plan = Planner(database).plan(
        parse_select("select distinct i from T0 where s = 'oak' order by i")
    )
    row = PlanExecutor(database).execute(plan)
    columnar = ColumnarExecutor(database).execute_plan(plan)
    assert columnar.rows == row.rows == []
    assert receipt(columnar) == receipt(row)


# -- all six Table 1 problems end to end -----------------------------------------


PROBLEMS = {
    1: CQPProblem.problem1(smin=2.0),
    2: CQPProblem.problem2(cmax=400.0),
    3: CQPProblem.problem3(cmax=400.0, smin=1.0),
    4: CQPProblem.problem4(dmin=0.5),
    5: CQPProblem.problem5(dmin=0.5, smin=1.0, smax=6.0),
    6: CQPProblem.problem6(smin=2.0),
}


@pytest.mark.parametrize("number", sorted(PROBLEMS))
def test_table1_problems_row_identical_across_engines(
    movie_db, movie_profile, number
):
    """Each problem's personalized UNION ALL runs identically on both
    engines: same rows in order and bit-identical receipts, also
    through the personalizer's own (columnar) execution."""
    query = parse_select("select title from MOVIE where year >= 1980")
    personalizer = Personalizer(movie_db)
    outcome = personalizer.personalize(
        query, movie_profile, PROBLEMS[number], k_limit=8
    )
    plan = Planner(movie_db).plan(outcome.personalized_query)
    reference = PlanExecutor(movie_db).execute(plan)
    vectorized = ColumnarExecutor(movie_db).execute_plan(plan)
    assert vectorized.rows == reference.rows
    assert receipt(vectorized) == receipt(reference)
    served = personalizer.execute(outcome)
    assert served.rows == reference.rows
    assert receipt(served) == receipt(reference)
