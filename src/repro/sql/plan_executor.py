"""Plan interpreter: evaluates physical plans against a database.

Materialized evaluation, one operator at a time. I/O is charged through
the database's block device (full blocks for scans, bucket + data blocks
for index probes) and CPU per row processed, so results carry the same
:class:`~repro.sql.executor.ExecutionResult` receipt as the reference
executor.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.errors import ExecutionError, SQLError
from repro.sql.ast_nodes import Comparison, Literal
from repro.sql.executor import DEFAULT_CPU_MS_PER_ROW, ExecutionResult
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
from repro.sql.planner import resolve_column
from repro.storage.database import Database
from repro.storage.table import Row

Frame = Tuple[List[str], List[Row]]  # (qualified column names, rows)


class PlanExecutor:
    """Evaluates :class:`PlanNode` trees."""

    def __init__(
        self,
        database: Database,
        cpu_ms_per_row: float = DEFAULT_CPU_MS_PER_ROW,
    ) -> None:
        self.database = database
        self.cpu_ms_per_row = cpu_ms_per_row
        self._rows_processed = 0
        self._rows_filtered = 0

    def execute(self, plan: PlanNode) -> ExecutionResult:
        """Evaluate ``plan`` one row at a time: the plan-level reference
        that :meth:`repro.sql.columnar.ColumnarExecutor.execute_plan`
        must match row for row and receipt for receipt."""
        self._rows_processed = 0
        self._rows_filtered = 0
        with self.database.device.meter() as receipt:
            columns, rows = self._run(plan)
        return ExecutionResult(
            columns=columns,
            rows=rows,
            blocks_read=receipt.blocks_read,
            io_ms=receipt.elapsed_ms,
            cpu_ms=self._rows_processed * self.cpu_ms_per_row,
            rows_processed=self._rows_processed,
            rows_filtered_rowwise=self._rows_filtered,
        )

    # -- dispatch ---------------------------------------------------------------

    def _run(self, node: PlanNode) -> Frame:
        handler = self._HANDLERS.get(type(node))
        if handler is None:
            raise ExecutionError("no handler for plan node %r" % (node,))
        return handler(self, node)

    # -- leaves -----------------------------------------------------------------

    def _run_scan(self, node: ScanNode) -> Frame:
        table = self.database.table(node.relation)
        rows = list(self.database.device.scan(table))
        self._rows_processed += len(rows)
        columns = ["%s.%s" % (node.binding, a) for a in table.relation.attribute_names]
        return columns, rows

    def _run_index_probe(self, node: IndexProbeNode) -> Frame:
        index = self.database.index_on(node.relation, node.attribute)
        if index is None:
            raise ExecutionError(
                "plan expects an index on %s.%s that does not exist"
                % (node.relation, node.attribute)
            )
        self.database.device.charge(index.lookup_blocks(node.value))
        rows = index.lookup(node.value)
        self._rows_processed += len(rows)
        relation = self.database.relation(node.relation)
        columns = ["%s.%s" % (node.binding, a) for a in relation.attribute_names]
        return columns, rows

    # -- filters and joins ------------------------------------------------------------

    def _evaluate(self, condition: Comparison, columns: List[str], row: Row) -> bool:
        left = row[resolve_column(columns, condition.left)]
        if isinstance(condition.right, Literal):
            right = condition.right.value
        else:
            right = row[resolve_column(columns, condition.right)]
        return condition.op.evaluate(left, right)

    def _run_filter(self, node: FilterNode) -> Frame:
        columns, rows = self._run(node.child)
        positions = []
        for condition in node.conditions:
            left = resolve_column(columns, condition.left)
            right = (
                condition.right.value
                if isinstance(condition.right, Literal)
                else resolve_column(columns, condition.right)
            )
            positions.append((condition, left, right))
        kept = []
        self._rows_filtered += len(rows)
        for row in rows:
            ok = True
            for condition, left, right in positions:
                right_value = right if isinstance(condition.right, Literal) else row[right]
                if not condition.op.evaluate(row[left], right_value):
                    ok = False
                    break
            if ok:
                kept.append(row)
        return columns, kept

    def _run_hash_join(self, node: HashJoinNode) -> Frame:
        left_columns, left_rows = self._run(node.left)
        right_columns, right_rows = self._run(node.right)
        left_key = left_columns.index(node.left_column)
        right_key = right_columns.index(node.right_column)
        buckets: Dict[object, List[Row]] = {}
        for row in left_rows:
            key = row[left_key]
            if key is not None:
                buckets.setdefault(key, []).append(row)
        joined: List[Row] = []
        for row in right_rows:
            key = row[right_key]
            if key is None:
                continue
            for match in buckets.get(key, ()):
                joined.append(match + row)
        self._rows_processed += len(joined)
        return left_columns + right_columns, joined

    def _run_nested_loop(self, node: NestedLoopJoinNode) -> Frame:
        left_columns, left_rows = self._run(node.left)
        right_columns, right_rows = self._run(node.right)
        columns = left_columns + right_columns
        joined = []
        for left_row in left_rows:
            for right_row in right_rows:
                row = left_row + right_row
                if all(self._evaluate(c, columns, row) for c in node.conditions):
                    joined.append(row)
        self._rows_processed += len(joined)
        return columns, joined

    # -- shaping -----------------------------------------------------------------------

    def _run_project(self, node: ProjectNode) -> Frame:
        columns, rows = self._run(node.child)
        if not node.columns:
            return columns, rows
        positions = []
        for name in node.columns:
            if name in columns:
                positions.append(columns.index(name))
            else:  # unqualified projection target
                matches = [
                    i for i, c in enumerate(columns) if c.split(".", 1)[-1] == name
                ]
                if len(matches) != 1:
                    raise ExecutionError("cannot project %r from %s" % (name, columns))
                positions.append(matches[0])
        output = list(node.output_names) if node.output_names else list(node.columns)
        return output, [tuple(row[p] for p in positions) for row in rows]

    def _run_distinct(self, node: DistinctNode) -> Frame:
        columns, rows = self._run(node.child)
        seen = set()
        unique: List[Row] = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return columns, unique

    def _run_sort(self, node: SortNode) -> Frame:
        columns, rows = self._run(node.child)
        self._rows_processed += len(rows)
        key_positions = []
        for name, descending in node.keys:
            matches = [
                i
                for i, c in enumerate(columns)
                if c == name or c.split(".", 1)[-1] == name
            ]
            if len(matches) != 1:
                raise ExecutionError("cannot sort by %r in %s" % (name, columns))
            key_positions.append((matches[0], descending))
        for position, descending in reversed(key_positions):
            rows = sorted(
                rows,
                key=lambda row: (row[position] is None, row[position]),
                reverse=descending,
            )
        return columns, rows

    def _run_limit(self, node: LimitNode) -> Frame:
        columns, rows = self._run(node.child)
        return columns, rows[: node.limit]

    def _run_union(self, node: UnionAllNode) -> Frame:
        columns: List[str] = []
        rows: List[Row] = []
        for child in node.inputs:
            child_columns, child_rows = self._run(child)
            if not columns:
                columns = child_columns
            elif len(columns) != len(child_columns):
                raise SQLError("UNION ALL inputs disagree in arity")
            rows.extend(child_rows)
        return columns, rows

    def _run_group_having(self, node: GroupHavingCountNode) -> Frame:
        columns, rows = self._run(node.child)
        counts = Counter(rows)
        self._rows_processed += len(rows)
        if node.at_least:
            kept = [row for row, count in counts.items() if count >= node.count]
        else:
            kept = [row for row, count in counts.items() if count == node.count]
        return columns, kept

    _HANDLERS = {
        ScanNode: _run_scan,
        IndexProbeNode: _run_index_probe,
        FilterNode: _run_filter,
        HashJoinNode: _run_hash_join,
        NestedLoopJoinNode: _run_nested_loop,
        ProjectNode: _run_project,
        DistinctNode: _run_distinct,
        SortNode: _run_sort,
        LimitNode: _run_limit,
        UnionAllNode: _run_union,
        GroupHavingCountNode: _run_group_having,
    }
