"""Query executor.

Executes AST nodes against a :class:`~repro.storage.database.Database`,
charging I/O through the database's :class:`BlockDevice` so every
execution yields a *measured* cost (blocks × b ms).

Planning is deliberately simple — full scans only (the paper assumes no
indexes), selections pushed down, equality joins executed as hash joins,
everything else as filtered nested loops.

Two knobs matter for the Figure 15 experiment (estimated vs measured
cost):

* ``cpu_ms_per_row`` — the paper's estimate is I/O-only (Section 7.1
  assumption (a)); real execution also spends CPU per tuple. The
  executor charges a small per-row processing time, so measured cost
  sits slightly above the I/O-only estimate — the model inaccuracy
  Figure 15 quantifies.
* ``shared_scans`` — the paper's Formula (6) charges each sub-query of a
  UNION ALL for its own scans, which matches an engine with no buffer
  pool (``False``, the default). With ``True`` the executor keeps a
  per-statement scan cache (each base relation read once per statement),
  an ablation showing when Formula (6) overestimates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import BindError, ExecutionError
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
from repro.storage.database import Database
from repro.storage.table import Row


@dataclass
class ExecutionResult:
    """Rows plus the cost receipt of one statement execution.

    The trailing counters are execution-side diagnostics (not part of
    the simulated cost): the ``rows_filtered_*`` pair says how many
    rows each engine pushed through filter predicates vectorized vs one
    tuple at a time.
    """

    columns: List[str]
    rows: List[Row]
    blocks_read: int = 0
    io_ms: float = 0.0
    cpu_ms: float = 0.0
    rows_processed: int = 0
    rows_filtered_vectorized: int = 0
    rows_filtered_rowwise: int = 0

    @property
    def elapsed_ms(self) -> float:
        """Total simulated execution time: I/O plus per-tuple CPU."""
        return self.io_ms + self.cpu_ms

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class _Bindings:
    """Resolved FROM clause: binding name → (relation, column names)."""

    order: List[str] = field(default_factory=list)
    columns: Dict[str, List[str]] = field(default_factory=dict)
    relations: Dict[str, str] = field(default_factory=dict)

    def resolve(self, ref: ColumnRef) -> Tuple[str, int]:
        """(binding name, column index) for a column reference."""
        if ref.qualifier is not None:
            if ref.qualifier not in self.columns:
                raise BindError("unknown table or alias %r" % ref.qualifier)
            names = self.columns[ref.qualifier]
            if ref.name not in names:
                raise BindError("no column %s in %s" % (ref.name, ref.qualifier))
            return ref.qualifier, names.index(ref.name)
        matches = [
            binding for binding in self.order if ref.name in self.columns[binding]
        ]
        if not matches:
            raise BindError("unknown column %r" % ref.name)
        if len(matches) > 1:
            raise BindError(
                "ambiguous column %r (in %s)" % (ref.name, ", ".join(matches))
            )
        return matches[0], self.columns[matches[0]].index(ref.name)


DEFAULT_CPU_MS_PER_ROW = 0.0005


class Executor:
    """Evaluates queries against one database."""

    def __init__(
        self,
        database: Database,
        shared_scans: bool = False,
        cpu_ms_per_row: float = DEFAULT_CPU_MS_PER_ROW,
        use_indexes: bool = False,
        engine: str = "row",
    ) -> None:
        self.database = database
        self.shared_scans = shared_scans
        self.cpu_ms_per_row = cpu_ms_per_row
        # Off by default: the paper's Section 7.1 assumes full scans.
        # Enabling it lets equality selections probe any hash index the
        # database carries — the index ablation.
        self.use_indexes = use_indexes
        if engine not in ("row", "columnar"):
            raise ValueError("engine must be 'row' or 'columnar', got %r" % engine)
        self.engine = engine
        self._columnar = None
        if engine == "columnar":
            from repro.sql.columnar import ColumnarExecutor

            self._columnar = ColumnarExecutor(
                database,
                shared_scans=shared_scans,
                cpu_ms_per_row=cpu_ms_per_row,
                use_indexes=use_indexes,
            )
        self._rows_processed = 0
        self._rows_filtered = 0

    # -- public API -----------------------------------------------------------

    def execute(self, query: QueryNode) -> ExecutionResult:
        """Execute any query node, metering its I/O and per-tuple CPU.

        With ``engine="columnar"`` evaluation is delegated to the
        vectorized kernel (identical rows and cost receipts on the
        supported query shapes).
        """
        if self._columnar is not None:
            return self._columnar.execute(query)
        scan_cache: Optional[Dict[str, List[Row]]] = {} if self.shared_scans else None
        self._rows_processed = 0
        self._rows_filtered = 0
        with self.database.device.meter() as receipt:
            if isinstance(query, SelectQuery):
                columns, rows = self._run_select(query, scan_cache)
            elif isinstance(query, UnionAllQuery):
                columns, rows = self._run_union(query, scan_cache)
            elif isinstance(query, GroupByHavingCount):
                columns, rows = self._run_group(query, scan_cache)
            else:
                raise ExecutionError("cannot execute %r" % (query,))
        return ExecutionResult(
            columns=columns,
            rows=rows,
            blocks_read=receipt.blocks_read,
            io_ms=receipt.elapsed_ms,
            cpu_ms=self._rows_processed * self.cpu_ms_per_row,
            rows_processed=self._rows_processed,
            rows_filtered_rowwise=self._rows_filtered,
        )

    # -- scans ------------------------------------------------------------------

    def _scan(self, relation: str, cache: Optional[Dict[str, List[Row]]]) -> List[Row]:
        if cache is not None and relation in cache:
            return cache[relation]
        rows = list(self.database.device.scan(self.database.table(relation)))
        self._rows_processed += len(rows)
        if cache is not None:
            cache[relation] = rows
        return rows

    # -- SELECT ------------------------------------------------------------------

    def _bind(self, query: SelectQuery) -> _Bindings:
        bindings = _Bindings()
        for table in query.from_tables:
            relation = self.database.relation(table.relation)  # raises if unknown
            name = table.binding_name
            if name in bindings.columns:
                raise BindError("duplicate table binding %r" % name)
            bindings.order.append(name)
            bindings.columns[name] = relation.attribute_names
            bindings.relations[name] = table.relation
        return bindings

    def _run_select(
        self, query: SelectQuery, cache: Optional[Dict[str, List[Row]]]
    ) -> Tuple[List[str], List[Row]]:
        bindings = self._bind(query)

        # Classify each conjunct by the bindings it touches.
        resolved: List[Tuple[Comparison, Tuple[str, int], Optional[Tuple[str, int]]]] = []
        for condition in query.where:
            left = bindings.resolve(condition.left)
            right = (
                bindings.resolve(condition.right)
                if isinstance(condition.right, ColumnRef)
                else None
            )
            resolved.append((condition, left, right))

        # Incrementally join tables in FROM order.
        current: List[Tuple[Row, ...]] = []
        bound: List[str] = []
        pending = list(resolved)
        for position, binding in enumerate(bindings.order):
            relation = bindings.relations[binding]

            # Pure selections on this table filter before joining.
            local, pending = self._split_local(pending, binding)

            rows, local = self._access_path(relation, local, cache)
            for condition, left, right in local:
                column = left[1]
                value = condition.right.value  # type: ignore[union-attr]
                self._rows_filtered += len(rows)
                rows = [row for row in rows if condition.op.evaluate(row[column], value)]

            if position == 0:
                current = [(row,) for row in rows]
                bound.append(binding)
                # Column-to-column conditions within this table (e.g.
                # T.a = T.b) are bound already; apply them now.
                applicable, pending = self._split_bound(pending, bound)
                for condition, left, right in applicable:
                    current = self._filter(current, bound, condition, left, right)
                continue

            # Prefer a hash join on an applicable equality join condition.
            join_cond, pending = self._pick_hash_join(pending, bound, binding)
            if join_cond is not None:
                condition, left, right = join_cond
                assert right is not None
                if left[0] == binding:
                    new_side, old_side = left, right
                else:
                    new_side, old_side = right, left
                old_index = bound.index(old_side[0])
                buckets: Dict[object, List[Tuple[Row, ...]]] = {}
                for combo in current:
                    key = combo[old_index][old_side[1]]
                    if key is not None:
                        buckets.setdefault(key, []).append(combo)
                joined: List[Tuple[Row, ...]] = []
                for row in rows:
                    key = row[new_side[1]]
                    if key is None:
                        continue
                    for combo in buckets.get(key, ()):
                        joined.append(combo + (row,))
                current = joined
            else:
                current = [combo + (row,) for combo in current for row in rows]
            self._rows_processed += len(current)
            bound.append(binding)

            # Apply any remaining conditions that just became fully bound.
            applicable, pending = self._split_bound(pending, bound)
            for condition, left, right in applicable:
                current = self._filter(current, bound, condition, left, right)

        if pending:
            missing = ", ".join(str(p[0]) for p in pending)
            raise ExecutionError("conditions never became bound: %s" % missing)

        return self._project(query, bindings, bound, current)

    def _access_path(self, relation, local, cache):
        """Choose how to read ``relation``: index probe or full scan.

        With ``use_indexes`` on, an equality selection over an indexed
        attribute becomes a hash probe charged at bucket + data blocks;
        the probing condition is consumed, the rest stay as filters.
        Returns (rows, remaining local conditions).
        """
        if self.use_indexes:
            for i, (condition, left, right) in enumerate(local):
                if condition.op is not Operator.EQ:
                    continue
                index = self.database.index_on(relation, condition.left.name)
                if index is None:
                    continue
                value = condition.right.value  # type: ignore[union-attr]
                self.database.device.charge(index.lookup_blocks(value))
                rows = index.lookup(value)
                self._rows_processed += len(rows)
                return rows, local[:i] + local[i + 1 :]
        return self._scan(relation, cache), local

    @staticmethod
    def _split_local(pending, binding):
        local, rest = [], []
        for item in pending:
            condition, left, right = item
            if right is None and left[0] == binding:
                local.append(item)
            else:
                rest.append(item)
        return local, rest

    @staticmethod
    def _pick_hash_join(pending, bound, binding):
        for i, item in enumerate(pending):
            condition, left, right = item
            if condition.op.value != "=" or right is None:
                continue
            sides = {left[0], right[0]}
            # A genuine join: one side on the new table, the other on an
            # already-bound one. Same-table equalities (T.a = T.b) are
            # plain filters, applied once the table is bound.
            if len(sides) == 2 and binding in sides and (sides - {binding}) <= set(bound):
                return item, pending[:i] + pending[i + 1 :]
        return None, pending

    @staticmethod
    def _split_bound(pending, bound):
        bound_set = set(bound)
        applicable, rest = [], []
        for item in pending:
            condition, left, right = item
            touched = {left[0]} | ({right[0]} if right is not None else set())
            if touched <= bound_set:
                applicable.append(item)
            else:
                rest.append(item)
        return applicable, rest

    def _filter(self, current, bound, condition, left, right):
        self._rows_filtered += len(current)
        left_index = bound.index(left[0])
        if right is None:
            value = condition.right.value
            return [
                combo
                for combo in current
                if condition.op.evaluate(combo[left_index][left[1]], value)
            ]
        right_index = bound.index(right[0])
        return [
            combo
            for combo in current
            if condition.op.evaluate(combo[left_index][left[1]], combo[right_index][right[1]])
        ]

    def _project(
        self,
        query: SelectQuery,
        bindings: _Bindings,
        bound: List[str],
        current: List[Tuple[Row, ...]],
    ) -> Tuple[List[str], List[Row]]:
        if query.select:
            targets = [bindings.resolve(column) for column in query.select]
            names = [column.name for column in query.select]
            positions = [(bound.index(b), i) for b, i in targets]
        else:  # SELECT *
            names = []
            positions = []
            for b_index, binding in enumerate(bound):
                for c_index, column in enumerate(bindings.columns[binding]):
                    names.append("%s.%s" % (binding, column))
                    positions.append((b_index, c_index))
        rows = [tuple(combo[b][c] for b, c in positions) for combo in current]
        if query.distinct:
            seen = set()
            unique: List[Row] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        rows = self._order_and_limit(query, names, rows)
        return names, rows

    def _order_and_limit(
        self, query: SelectQuery, names: List[str], rows: List[Row]
    ) -> List[Row]:
        if query.order_by:
            key_positions = []
            for item in query.order_by:
                position = self._order_column_position(item.column, query, names)
                key_positions.append((position, item.descending))
            self._rows_processed += len(rows)  # the sort pass
            # Stable multi-key sort: apply keys right-to-left. NULLs sort
            # last ascending (and so first descending — the plain reverse).
            for position, descending in reversed(key_positions):
                rows = sorted(
                    rows,
                    key=lambda row: (row[position] is None, row[position]),
                    reverse=descending,
                )
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows

    @staticmethod
    def _order_column_position(column: ColumnRef, query: SelectQuery, names: List[str]) -> int:
        """Position of an ORDER BY key among the projected columns."""
        if query.select:
            for position, projected in enumerate(query.select):
                if projected == column:
                    return position
            matches = [
                position
                for position, projected in enumerate(query.select)
                if projected.name == column.name and column.qualifier is None
            ]
            if len(matches) == 1:
                return matches[0]
        else:  # SELECT *: names are 'binding.column'
            target = str(column)
            matches = [
                position
                for position, name in enumerate(names)
                if name == target or name.split(".", 1)[1] == target
            ]
            if len(matches) == 1:
                return matches[0]
        raise BindError("ORDER BY column %s is not in the projection" % column)

    # -- UNION ALL / GROUP BY -----------------------------------------------------

    def _run_union(
        self, query: UnionAllQuery, cache: Optional[Dict[str, List[Row]]]
    ) -> Tuple[List[str], List[Row]]:
        columns: List[str] = []
        rows: List[Row] = []
        for subquery in query.subqueries:
            sub_columns, sub_rows = self._run_select(subquery, cache)
            if not columns:
                columns = sub_columns
            rows.extend(sub_rows)
        return columns, rows

    def _run_group(
        self, query: GroupByHavingCount, cache: Optional[Dict[str, List[Row]]]
    ) -> Tuple[List[str], List[Row]]:
        columns, rows = self._run_union(query.source, cache)
        counts = Counter(rows)
        self._rows_processed += len(rows)  # the grouping pass touches every row
        if query.at_least:
            kept = [row for row, count in counts.items() if count >= query.count_equals]
        else:
            kept = [row for row, count in counts.items() if count == query.count_equals]
        return columns, kept
