"""Query layer: AST, parser, printer, executor, and estimation.

Only the query shapes the paper manipulates are supported:

* conjunctive SELECT-PROJECT-JOIN queries (the inputs to personalization),
* ``UNION ALL`` of such queries followed by ``GROUP BY ... HAVING
  COUNT(*) = L`` — the paper's personalized-query construction
  (Section 4.2).
"""

from repro.sql.ast_nodes import (
    ColumnRef,
    Comparison,
    GroupByHavingCount,
    Literal,
    Operator,
    SelectQuery,
    TableRef,
    UnionAllQuery,
)
from repro.sql.cardinality import CardinalityEstimator
from repro.sql.columnar import ColumnarExecutor, ColumnFrame
from repro.sql.cost import CostModel, IndexAwareCostModel
from repro.sql.executor import ExecutionResult, Executor
from repro.sql.parser import parse_select
from repro.sql.plan import PlanNode
from repro.sql.planner import Planner
from repro.sql.printer import to_sql

__all__ = [
    "CardinalityEstimator",
    "ColumnarExecutor",
    "ColumnFrame",
    "ColumnRef",
    "Comparison",
    "CostModel",
    "ExecutionResult",
    "Executor",
    "GroupByHavingCount",
    "IndexAwareCostModel",
    "Literal",
    "Operator",
    "parse_select",
    "PlanNode",
    "Planner",
    "SelectQuery",
    "TableRef",
    "to_sql",
    "UnionAllQuery",
]
