"""The query planner (Figure 2's "Query Optimization" module).

Builds a physical plan for any query node:

* selections are pushed onto the access paths (scan, or a hash-index
  probe when ``use_indexes`` is set and an index exists);
* joins are ordered greedily by estimated cardinality — start from the
  smallest filtered input, then repeatedly join the connected input with
  the smallest filtered estimate (cross product only when nothing
  connects) — a deliberately lightweight take on System R [15];
* join and residual predicates become filters as soon as both sides
  are bound — the moment the row executor applies them;
* DISTINCT / ORDER BY / LIMIT / UNION ALL / the HAVING COUNT wrapper map
  to their operators.

The planned tree runs on :class:`repro.sql.columnar.ColumnarExecutor`.
:class:`repro.sql.executor.Executor` plans inline in FROM order; given
the planner's join order (:func:`repro.testing.reference.in_plan_order`)
it returns the planned tree's rows in order and its full cost receipt,
which is how the columnar engine is checked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BindError, SQLError
from repro.sql.ast_nodes import (
    ColumnRef,
    Comparison,
    GroupByHavingCount,
    Literal,
    Operator,
    QueryNode,
    SelectQuery,
    UnionAllQuery,
)
from repro.sql.cardinality import CardinalityEstimator
from repro.sql.plan import (
    DistinctNode,
    FilterNode,
    GroupHavingCountNode,
    HashJoinNode,
    IndexProbeNode,
    LimitNode,
    NestedLoopJoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionAllNode,
)
from repro.storage.database import Database


def resolve_column(columns: Sequence[str], ref: ColumnRef) -> int:
    """Position of ``ref`` in a qualified column-name list."""
    if ref.qualifier is not None:
        target = "%s.%s" % (ref.qualifier, ref.name)
        try:
            return list(columns).index(target)
        except ValueError:
            raise BindError("no column %s in %s" % (target, list(columns))) from None
    matches = [
        position
        for position, name in enumerate(columns)
        if name.split(".", 1)[-1] == ref.name
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise BindError("no column %r in %s" % (ref.name, list(columns)))
    raise BindError("ambiguous column %r in %s" % (ref.name, list(columns)))


class Planner:
    """Plans query nodes against one database."""

    def __init__(self, database: Database, use_indexes: bool = False) -> None:
        self.database = database
        self.use_indexes = use_indexes
        self._estimator: Optional[CardinalityEstimator] = None

    @property
    def estimator(self) -> CardinalityEstimator:
        if self._estimator is None:
            self._estimator = CardinalityEstimator(self.database)
        return self._estimator

    # -- public API -----------------------------------------------------------

    def plan(self, query: QueryNode) -> PlanNode:
        if isinstance(query, SelectQuery):
            return self._plan_select(query)
        if isinstance(query, UnionAllQuery):
            return UnionAllNode(
                inputs=tuple(self._plan_select(sub) for sub in query.subqueries)
            )
        if isinstance(query, GroupByHavingCount):
            return GroupHavingCountNode(
                child=self.plan(query.source),
                count=query.count_equals,
                at_least=query.at_least,
            )
        raise SQLError("cannot plan %r" % (query,))

    # -- SELECT planning ----------------------------------------------------------

    def _plan_select(self, query: SelectQuery) -> PlanNode:
        bindings: Dict[str, str] = {}  # binding name -> relation
        for table in query.from_tables:
            if table.binding_name in bindings:
                raise BindError("duplicate table binding %r" % table.binding_name)
            self.database.relation(table.relation)  # raises if unknown
            bindings[table.binding_name] = table.relation

        local, joins, residual = self._classify(query, bindings)

        # Access path + filtered-cardinality estimate per binding.
        inputs: Dict[str, PlanNode] = {}
        estimates: Dict[str, float] = {}
        for binding, relation in bindings.items():
            inputs[binding], estimates[binding] = self._access_path(
                binding, relation, local.get(binding, [])
            )

        # Greedy join order.
        order = self._join_order(list(bindings), estimates, joins)
        plan = self._join_plan(order, inputs, joins, residual)
        return self._finish(query, plan)

    def _classify(self, query: SelectQuery, bindings: Dict[str, str]):
        """Split WHERE into per-binding selections, equality joins, rest.

        Conditions are re-qualified with their resolved binding so every
        downstream operator sees unambiguous column references.
        """
        local: Dict[str, List[Comparison]] = {}
        joins: List[Comparison] = []
        residual: List[Comparison] = []
        for condition in query.where:
            left_binding = self._binding_of(condition.left, query, bindings)
            left = ColumnRef(name=condition.left.name, qualifier=left_binding)
            if isinstance(condition.right, Literal):
                local.setdefault(left_binding, []).append(
                    Comparison(left, condition.op, condition.right)
                )
                continue
            right_binding = self._binding_of(condition.right, query, bindings)
            right = ColumnRef(name=condition.right.name, qualifier=right_binding)
            qualified = Comparison(left, condition.op, right)
            if condition.op is Operator.EQ and left_binding != right_binding:
                joins.append(qualified)
            else:
                residual.append(qualified)
        return local, joins, residual

    def _binding_of(
        self, ref: ColumnRef, query: SelectQuery, bindings: Dict[str, str]
    ) -> str:
        if ref.qualifier is not None:
            if ref.qualifier not in bindings:
                raise BindError("unknown table or alias %r" % ref.qualifier)
            return ref.qualifier
        matches = [
            binding
            for binding, relation in bindings.items()
            if self.database.relation(relation).has_attribute(ref.name)
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise BindError("unknown column %r" % ref.name)
        raise BindError("ambiguous column %r (in %s)" % (ref.name, ", ".join(matches)))

    def _access_path(
        self, binding: str, relation: str, conditions: List[Comparison]
    ) -> Tuple[PlanNode, float]:
        """Scan or index probe plus pushed-down filters, with an estimate."""
        node: PlanNode
        remaining = list(conditions)
        if self.use_indexes:
            for i, condition in enumerate(remaining):
                if condition.op is not Operator.EQ:
                    continue
                if self.database.index_on(relation, condition.left.name) is None:
                    continue
                assert isinstance(condition.right, Literal)
                node = IndexProbeNode(
                    relation=relation,
                    binding=binding,
                    attribute=condition.left.name,
                    value=condition.right.value,
                )
                remaining = remaining[:i] + remaining[i + 1 :]
                break
            else:
                node = ScanNode(relation=relation, binding=binding)
        else:
            node = ScanNode(relation=relation, binding=binding)
        if remaining:
            node = FilterNode(child=node, conditions=tuple(remaining))

        estimate = float(self.database.statistics(relation).row_count)
        for condition in conditions:
            assert isinstance(condition.right, Literal)
            estimate *= self.estimator.selection_selectivity(
                relation, condition.left.name, condition.op, condition.right.value
            )
        return node, estimate

    @staticmethod
    def _join_sides(condition: Comparison) -> Tuple[str, str]:
        assert isinstance(condition.right, ColumnRef)
        left = condition.left.qualifier
        right = condition.right.qualifier
        if left is None or right is None:
            raise BindError(
                "join conditions must be qualified: %s" % (condition,)
            )
        return left, right

    def _join_order(
        self,
        bindings: List[str],
        estimates: Dict[str, float],
        joins: List[Comparison],
    ) -> List[str]:
        """Greedy: smallest filtered input first, then connected-smallest."""
        adjacency: Dict[str, set] = {binding: set() for binding in bindings}
        for condition in joins:
            left, right = self._join_sides(condition)
            adjacency[left].add(right)
            adjacency[right].add(left)

        remaining = set(bindings)
        order = [min(remaining, key=lambda b: (estimates[b], b))]
        remaining.remove(order[0])
        connected = set(adjacency[order[0]])
        while remaining:
            candidates = connected & remaining
            pool = candidates if candidates else remaining
            chosen = min(pool, key=lambda b: (estimates[b], b))
            order.append(chosen)
            remaining.remove(chosen)
            connected |= adjacency[chosen]
        return order

    def _join_plan(
        self,
        order: List[str],
        inputs: Dict[str, PlanNode],
        joins: List[Comparison],
        residual: List[Comparison],
    ) -> PlanNode:
        """Left-deep joins in ``order``; every predicate not consumed by
        a hash join becomes a filter as soon as its bindings are bound
        (residual ones — theta joins, same-table comparisons — included)."""
        bound = [order[0]]
        plan, residual = self._filter_bound(inputs[order[0]], bound, residual)
        pending = list(joins)
        for binding in order[1:]:
            # First equality join condition connecting the new binding.
            hash_condition = None
            for i, condition in enumerate(pending):
                left, right = self._join_sides(condition)
                if {left, right} <= set(bound) | {binding} and binding in (left, right):
                    hash_condition = condition
                    pending = pending[:i] + pending[i + 1 :]
                    break
            if hash_condition is not None:
                left, right = self._join_sides(hash_condition)
                if left == binding:
                    new_ref, old_ref = hash_condition.left, hash_condition.right
                else:
                    new_ref, old_ref = hash_condition.right, hash_condition.left
                plan = HashJoinNode(
                    left=plan,
                    right=inputs[binding],
                    left_column="%s.%s" % (old_ref.qualifier, old_ref.name),
                    right_column="%s.%s" % (new_ref.qualifier, new_ref.name),
                )
            else:
                plan = NestedLoopJoinNode(left=plan, right=inputs[binding])
            bound.append(binding)
            plan, pending, residual = self._filter_bound(plan, bound, pending, residual)
        if pending:
            raise SQLError(
                "join conditions never became bound: %s"
                % ", ".join(str(c) for c in pending)
            )
        return plan

    def _filter_bound(self, plan: PlanNode, bound: List[str], *groups: List[Comparison]):
        """Filter ``plan`` by every condition in ``groups`` whose bindings
        are all in ``bound``; returns the plan, then each group's rest."""
        ready: List[Comparison] = []
        rests = []
        for group in groups:
            rest: List[Comparison] = []
            for condition in group:
                sides = set(self._join_sides(condition))
                (ready if sides <= set(bound) else rest).append(condition)
            rests.append(rest)
        if ready:
            plan = FilterNode(child=plan, conditions=tuple(ready))
        return (plan, *rests)

    def _finish(self, query: SelectQuery, plan: PlanNode) -> PlanNode:
        if query.select:
            columns = tuple(
                "%s.%s" % (c.qualifier, c.name) if c.qualifier else c.name
                for c in query.select
            )
            names = tuple(c.name for c in query.select)
            plan = ProjectNode(child=plan, columns=columns, output_names=names)
        if query.distinct:
            plan = DistinctNode(child=plan)
        if query.order_by:
            keys = tuple(
                (item.column.name, item.descending) for item in query.order_by
            )
            plan = SortNode(child=plan, keys=keys)
        if query.limit is not None:
            plan = LimitNode(child=plan, limit=query.limit)
        return plan
