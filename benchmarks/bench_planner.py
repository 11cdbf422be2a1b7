"""Benchmarks for the query-planning path.

Compares the two execution routes on the same personalized query — the
reference row executor (plans inline) and the planner + columnar engine
pair (Figure 2's optimizer box) — plus the planning step alone.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_CONFIG
from repro.core.rewriter import QueryRewriter
from repro.sql.columnar import ColumnarExecutor
from repro.sql.executor import Executor
from repro.sql.planner import Planner

K = 12


def _personalized(bench_workbench):
    pspace = bench_workbench.preference_space(0, 0).truncated(K)
    return QueryRewriter(
        pspace.query, schema=bench_workbench.database.schema
    ).personalized_query(pspace.paths)


def test_bench_planning_only(benchmark, bench_workbench):
    query = _personalized(bench_workbench)
    planner = Planner(bench_workbench.database)

    plan = benchmark(planner.plan, query)

    benchmark.extra_info["operators"] = plan.explain().count("\n") + 1


@pytest.mark.parametrize("route", ["inline-executor", "planned-columnar"])
def test_bench_execution_routes(benchmark, bench_workbench, route):
    database = bench_workbench.database
    query = _personalized(bench_workbench)
    if route == "inline-executor":
        executor = Executor(database)
        result = benchmark(executor.execute, query)
    else:
        plan = Planner(database).plan(query)
        columnar = ColumnarExecutor(database)
        result = benchmark(columnar.execute_plan, plan)
    benchmark.extra_info["route"] = route
    benchmark.extra_info["blocks_read"] = result.blocks_read
    benchmark.extra_info["rows"] = len(result.rows)
