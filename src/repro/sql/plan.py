"""Physical query plans.

Figure 2 of the paper hands the constructed personalized query to "the
query optimizer of the underlying database system". This module is that
gray box: an explicit operator tree the planner (:mod:`repro.sql.planner`)
builds and the columnar engine evaluates, with an EXPLAIN-style renderer.

Operators follow a simple materialized model: each node produces a
column-name list and a list of rows. I/O is charged by the leaf access
paths (scan / index probe) through the database's block device, exactly
like the reference executor, so plans and the Section 7.1 cost model
stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.sql.ast_nodes import Comparison


@dataclass
class PlanNode:
    """Base class for plan operators."""

    def children(self) -> List["PlanNode"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Indented operator-tree rendering (EXPLAIN)."""
        lines = ["%s%s" % ("  " * indent, self.label())]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


@dataclass
class ScanNode(PlanNode):
    """Full table scan; charges ``blocks(R)``."""

    relation: str
    binding: str

    def label(self) -> str:
        if self.binding != self.relation:
            return "Scan(%s as %s)" % (self.relation, self.binding)
        return "Scan(%s)" % self.relation


@dataclass
class IndexProbeNode(PlanNode):
    """Hash-index equality probe; charges bucket + matching data blocks."""

    relation: str
    binding: str
    attribute: str
    value: object

    def label(self) -> str:
        return "IndexProbe(%s.%s = %r)" % (self.binding, self.attribute, self.value)


@dataclass
class FilterNode(PlanNode):
    """Applies residual conjuncts to its child's rows."""

    child: PlanNode
    conditions: Tuple[Comparison, ...]

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Filter(%s)" % " and ".join(str(c) for c in self.conditions)


@dataclass
class HashJoinNode(PlanNode):
    """Equality join: build on the left child, probe with the right."""

    left: PlanNode
    right: PlanNode
    left_column: str   # fully qualified 'binding.attr' in the left schema
    right_column: str

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return "HashJoin(%s = %s)" % (self.left_column, self.right_column)


@dataclass
class NestedLoopJoinNode(PlanNode):
    """Cross product; the planner filters above it as predicates bind."""

    left: PlanNode
    right: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return "CrossProduct"


@dataclass
class ProjectNode(PlanNode):
    """Column projection (and the ``SELECT *`` passthrough)."""

    child: PlanNode
    columns: Tuple[str, ...]  # fully qualified names to keep, () = all
    output_names: Tuple[str, ...] = ()

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Project(%s)" % (", ".join(self.columns) if self.columns else "*")


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class SortNode(PlanNode):
    child: PlanNode
    keys: Tuple[Tuple[str, bool], ...]  # (output column name, descending)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(
            "%s%s" % (name, " desc" if descending else "")
            for name, descending in self.keys
        )
        return "Sort(%s)" % rendered


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: int

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Limit(%d)" % self.limit


@dataclass
class UnionAllNode(PlanNode):
    inputs: Tuple[PlanNode, ...]

    def children(self) -> List[PlanNode]:
        return list(self.inputs)

    def label(self) -> str:
        return "UnionAll(%d inputs)" % len(self.inputs)


@dataclass
class GroupHavingCountNode(PlanNode):
    """The personalization wrapper: COUNT(*) per tuple, = or >= L."""

    child: PlanNode
    count: int
    at_least: bool = False

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "GroupHavingCount(count %s %d)" % (">=" if self.at_least else "=", self.count)
