"""Vectorized columnar execution kernel.

The row engine (:mod:`repro.sql.executor`) evaluates one tuple at a
time and is the reference. This module runs the planner's
:class:`~repro.sql.plan.PlanNode` trees with the bulk operators on numpy:

* :class:`~repro.storage.columns.Column` — typed column encodings:
  ``int64``/``float64``/``bool`` value arrays with null masks,
  dictionary-encoded strings compared on sorted-dictionary codes, and
  an exact Python-list fallback. Tables encode once
  (:meth:`~repro.storage.table.Table.encoded_columns`) and every frame
  built on them shares the arrays.
* :class:`ColumnFrame` — parallel columns plus an optional ``int64``
  *selection vector* (ordered row indices). Filters never copy data;
  they narrow the selection with boolean masks.
* :class:`ColumnarExecutor` — vectorized scan / filter / hash-join /
  project / distinct / sort / limit / group-having operators driven by
  the existing plan tree, so planning is unchanged and the block-I/O
  cost receipts stay identical to the row engine run in the plan's
  join order (:func:`repro.testing.reference.in_plan_order`): the same
  ``blocks_read`` / ``io_ms`` / ``cpu_ms`` / ``rows_processed``, with
  ``cpu_ms_per_row`` charged per selected row exactly as today. Filter
  predicates compile once per plan node into mask programs (resolved
  column positions + comparison kernels); hash joins factorize both key
  columns to a shared code domain and expand matches with
  ``bincount``/``repeat`` (order-identical to the row engine's bucket
  join); sort, distinct, and group-having run on ``lexsort``/``unique``
  over per-column codes. Any operand the typed kernels cannot reproduce
  exactly falls back to the original Python loop for that operator —
  bit-identical semantics always win.

Every plan node runs once per execution, so each UNION ALL branch of a
Formula (6) statement recomputes its base-query prefix and charges it
exactly as the row engine does (scans per the ``shared_scans`` setting,
index probes and join/sort/group work always). See
``docs/ALGORITHMS.md`` ("Vectorized execution").
"""

from __future__ import annotations

import operator as _op
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError, SQLError
from repro.sql.ast_nodes import Literal, Operator, QueryNode
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
from repro.sql.planner import Planner, resolve_column
from repro.storage.columns import Column
from repro.storage.database import Database
from repro.storage.table import Row

_OPERATOR_FN = {
    Operator.EQ: _op.eq,
    Operator.NE: _op.ne,
    Operator.LT: _op.lt,
    Operator.LE: _op.le,
    Operator.GT: _op.gt,
    Operator.GE: _op.ge,
}

_EMPTY_SEL = np.asarray([], dtype=np.int64)


class ColumnFrame:
    """An immutable columnar batch: typed columns + selection vector.

    ``data`` holds one :class:`~repro.storage.columns.Column` per
    attribute (plain value lists are encoded on construction); ``sel``
    is an ordered ``int64`` index array into those columns (``None``
    means all rows in storage order). Operators that only drop rows
    (filters, limits, sorts, distinct) share ``data`` and produce a new
    ``sel``; operators that build new rows (joins, unions, grouping)
    gather fresh columns.
    """

    __slots__ = ("columns", "data", "sel")

    def __init__(
        self,
        columns: Sequence[str],
        data: Sequence[object],
        sel: Optional[Sequence[int]] = None,
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.data: Tuple[Column, ...] = tuple(
            column if isinstance(column, Column) else Column.from_values(column)
            for column in data
        )
        if sel is None:
            self.sel: Optional[np.ndarray] = None
        elif isinstance(sel, np.ndarray):
            self.sel = sel.astype(np.int64, copy=False)
        else:
            self.sel = np.asarray(sel, dtype=np.int64)

    @property
    def n_rows(self) -> int:
        if self.sel is not None:
            return len(self.sel)
        return len(self.data[0]) if self.data else 0

    def selection(self) -> np.ndarray:
        """The selection vector, materialized (all rows when ``sel`` is None)."""
        if self.sel is not None:
            return self.sel
        n = len(self.data[0]) if self.data else 0
        return np.arange(n, dtype=np.int64)

    def column_values(self, position: int) -> List[object]:
        """One column's selected values, as exact Python objects, in
        selection order."""
        return self.data[position].materialize(self.sel)

    def rows(self) -> List[Row]:
        """Row-major materialization (a fresh list on every call)."""
        return list(zip(*(column.materialize(self.sel) for column in self.data)))


# -- vectorized operator helpers -----------------------------------------------------


def _symbol_op(symbol: str):
    return {
        "=": _op.eq,
        "<>": _op.ne,
        "<": _op.lt,
        "<=": _op.le,
        ">": _op.gt,
        ">=": _op.ge,
    }[symbol]


def _pair_mask(
    left: Column, right: Column, symbol: str, sel: np.ndarray
) -> Optional[np.ndarray]:
    """Boolean mask over ``sel`` for ``left OP right`` (NULLs never
    match), or None when the typed kernels cannot decide exactly."""
    if left.kind == "obj" or right.kind == "obj":
        return None
    if (
        left.kind == "dict"
        and right.kind == "dict"
        and left.dictionary is right.dictionary
    ):
        lcodes = left.codes[sel]
        rcodes = right.codes[sel]
        # Sorted dictionary: code order is value order, so every
        # comparison runs directly on codes.
        return (lcodes >= 0) & (rcodes >= 0) & _symbol_op(symbol)(lcodes, rcodes)
    ltag, lvalues, lvalid = left.compare_keys(sel)
    rtag, rvalues, rvalid = right.compare_keys(sel)
    if ltag != rtag:
        return None  # str vs num: Python semantics decide (fallback)
    return lvalid & rvalid & _symbol_op(symbol)(lvalues, rvalues)


def _join_takes(
    left: ColumnFrame, right: ColumnFrame, lcol: Column, rcol: Column
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Factorized equi-join: (left_take, right_take) storage indices in
    the row engine's output order (right-major, left insertion order
    within a key), or None for the Python fallback."""
    if lcol.kind == "obj" or rcol.kind == "obj":
        return None
    lsel = left.selection()
    rsel = right.selection()
    if (
        lcol.kind == "dict"
        and rcol.kind == "dict"
        and lcol.dictionary is rcol.dictionary
    ):
        lcodes = lcol.codes[lsel]
        rcodes = rcol.codes[rsel]
        lvalid = lcodes >= 0
        rvalid = rcodes >= 0
        lkeys = lcodes[lvalid]
        rkeys = rcodes[rvalid]
        domain = len(lcol.dictionary)
    else:
        ltag, lvalues, lvalid = lcol.compare_keys(lsel)
        rtag, rvalues, rvalid = rcol.compare_keys(rsel)
        if ltag != rtag:
            # String keys never equal numeric keys (1 != "1"), exactly
            # like the bucket join's Python dict.
            return _EMPTY_SEL, _EMPTY_SEL
        lcomp = lvalues[lvalid]
        rcomp = rvalues[rvalid]
        if len(lcomp) == 0 or len(rcomp) == 0:
            return _EMPTY_SEL, _EMPTY_SEL
        # Factorize both sides over one shared code domain.
        _, inverse = np.unique(np.concatenate([lcomp, rcomp]), return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        lkeys = inverse[: len(lcomp)]
        rkeys = inverse[len(lcomp):]
        domain = int(inverse.max()) + 1
    if len(lkeys) == 0 or len(rkeys) == 0 or domain == 0:
        return _EMPTY_SEL, _EMPTY_SEL
    lmatch = lsel[lvalid]
    rmatch = rsel[rvalid]
    counts = np.bincount(lkeys, minlength=domain)
    order = np.argsort(lkeys, kind="stable")  # build rows grouped by key
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    per_probe = counts[rkeys]
    total = int(per_probe.sum())
    if total == 0:
        return _EMPTY_SEL, _EMPTY_SEL
    # For each probe row, expand its key's contiguous build-run.
    run_base = np.repeat(np.cumsum(per_probe) - per_probe, per_probe)
    within = np.arange(total, dtype=np.int64) - run_base
    build_rows = order[np.repeat(starts[rkeys], per_probe) + within]
    left_take = lmatch[build_rows]
    right_take = rmatch[np.repeat(np.arange(len(rkeys), dtype=np.int64), per_probe)]
    return left_take, right_take


def _join_takes_py(
    left: ColumnFrame, right: ColumnFrame, lcol: Column, rcol: Column
) -> Tuple[np.ndarray, np.ndarray]:
    """The original bucket join, for operands the kernels punt on."""
    buckets: Dict[object, List[int]] = {}
    for i, key in zip(left.selection().tolist(), lcol.materialize(left.sel)):
        if key is not None:
            buckets.setdefault(key, []).append(i)
    left_take: List[int] = []
    right_take: List[int] = []
    for j, key in zip(right.selection().tolist(), rcol.materialize(right.sel)):
        if key is None:
            continue
        matches = buckets.get(key)
        if matches:
            left_take.extend(matches)
            right_take.extend([j] * len(matches))
    return (
        np.asarray(left_take, dtype=np.int64),
        np.asarray(right_take, dtype=np.int64),
    )


def _concat_columns(
    columns: List[Column], sels: List[Optional[np.ndarray]]
) -> Column:
    """Concatenate one output column across UNION ALL branches."""
    kinds = {column.kind for column in columns}
    if kinds == {"dict"}:
        dictionary = columns[0].dictionary
        if all(column.dictionary is dictionary for column in columns):
            codes = np.concatenate(
                [
                    column.codes if sel is None else column.codes[sel]
                    for column, sel in zip(columns, sels)
                ]
            )
            return Column("dict", codes=codes, dictionary=dictionary)
    if kinds == {"num"}:
        dtypes = {column.values.dtype for column in columns}
        if len(dtypes) == 1:
            values = np.concatenate(
                [
                    column.values if sel is None else column.values[sel]
                    for column, sel in zip(columns, sels)
                ]
            )
            if any(column.mask is not None for column in columns):
                mask = np.concatenate(
                    [
                        (column.mask if sel is None else column.mask[sel])
                        if column.mask is not None
                        else np.zeros(
                            len(column) if sel is None else len(sel), dtype=bool
                        )
                        for column, sel in zip(columns, sels)
                    ]
                )
            else:
                mask = None
            return Column("num", values=values, mask=mask)
    # Exactness fallback (mixed encodings/dtypes across branches):
    # merge the Python values and re-sniff — from_values never coerces.
    merged: List[object] = []
    for column, sel in zip(columns, sels):
        merged.extend(column.materialize(sel))
    return Column.from_values(merged)


_OP_LABEL = {
    ScanNode: "scan",
    IndexProbeNode: "scan",
    FilterNode: "filter",
    HashJoinNode: "join",
    NestedLoopJoinNode: "join",
    ProjectNode: "project",
    DistinctNode: "distinct",
    SortNode: "sort",
    LimitNode: "limit",
    UnionAllNode: "union",
    GroupHavingCountNode: "group",
}


class ColumnarExecutor:
    """Vectorized plan evaluation with receipt-identical cost metering.

    Drop-in alternative to :class:`~repro.sql.executor.Executor`'s
    row engine: ``execute`` takes
    any query node (planned through the ordinary
    :class:`~repro.sql.planner.Planner`), ``execute_plan`` takes a
    prepared plan. ``profile_ops=True`` accumulates exclusive wall-clock seconds per
    operator kind in ``op_times`` (across executions — benches read it
    after a loop); it costs a couple of timer reads per node, so it is
    off by default.
    """

    def __init__(
        self,
        database: Database,
        shared_scans: bool = False,
        cpu_ms_per_row: float = DEFAULT_CPU_MS_PER_ROW,
        use_indexes: bool = False,
        profile_ops: bool = False,
    ) -> None:
        self.database = database
        self.shared_scans = shared_scans
        self.cpu_ms_per_row = cpu_ms_per_row
        self.use_indexes = use_indexes
        self.profile_ops = profile_ops
        self.op_times: Dict[str, float] = {}
        self._op_stack: List[float] = []
        self._plan_cache: "OrderedDict[Tuple, PlanNode]" = OrderedDict()
        # Filter mask programs, compiled once per FilterNode: node id ->
        # (node, steps, child columns). The node reference pins the id.
        self._filter_programs: "OrderedDict[int, Tuple[FilterNode, List, Tuple]]" = (
            OrderedDict()
        )
        # Per-execution state.
        self._rows_processed = 0
        self._scanned: set = set()
        self._rows_filtered_vectorized = 0

    # -- public API -----------------------------------------------------------

    def plan(self, query: QueryNode) -> PlanNode:
        """Plan ``query``, memoizing on the AST + statistics snapshot."""
        key = (query, self.use_indexes, self.database.stats_token)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = Planner(self.database, use_indexes=self.use_indexes).plan(query)
            self._plan_cache[key] = plan
            while len(self._plan_cache) > 128:
                self._plan_cache.popitem(last=False)
        return plan

    def execute(self, query: QueryNode) -> ExecutionResult:
        """Plan and execute ``query``; see :meth:`execute_plan`."""
        return self.execute_plan(self.plan(query))

    def execute_plan(self, plan: PlanNode) -> ExecutionResult:
        """Execute a plan, metering I/O and per-selected-row CPU."""
        self._rows_processed = 0
        self._scanned = set()
        self._rows_filtered_vectorized = 0
        with self.database.device.meter() as receipt:
            frame = self._run(plan)
        return ExecutionResult(
            columns=list(frame.columns),
            rows=frame.rows(),
            blocks_read=receipt.blocks_read,
            io_ms=receipt.elapsed_ms,
            cpu_ms=self._rows_processed * self.cpu_ms_per_row,
            rows_processed=self._rows_processed,
            rows_filtered_vectorized=self._rows_filtered_vectorized,
        )

    # -- cost metering ---------------------------------------------------------

    def _charge_scan(self, relation: str, blocks: int, rows: int) -> None:
        if self.shared_scans and relation in self._scanned:
            return
        self._scanned.add(relation)
        self.database.device.charge(blocks)
        self._rows_processed += rows

    def _charge_probe(self, blocks: int, rows: int) -> None:
        self.database.device.charge(blocks)
        self._rows_processed += rows

    def _charge_work(self, rows: int) -> None:
        self._rows_processed += rows

    # -- dispatch ---------------------------------------------------------------

    def _run(self, node: PlanNode) -> ColumnFrame:
        if not self.profile_ops:
            return self._run_node(node)
        started = time.perf_counter()
        self._op_stack.append(0.0)
        try:
            return self._run_node(node)
        finally:
            children = self._op_stack.pop()
            elapsed = time.perf_counter() - started
            if self._op_stack:
                self._op_stack[-1] += elapsed
            label = _OP_LABEL.get(type(node), "other")
            self.op_times[label] = self.op_times.get(label, 0.0) + (
                elapsed - children
            )

    def _run_node(self, node: PlanNode) -> ColumnFrame:
        handler = self._HANDLERS.get(type(node))
        if handler is None:
            raise ExecutionError("no handler for plan node %r" % (node,))
        return handler(self, node)

    # -- leaves -----------------------------------------------------------------

    def _run_scan(self, node: ScanNode) -> ColumnFrame:
        table = self.database.table(node.relation)
        columns = [
            "%s.%s" % (node.binding, a) for a in table.relation.attribute_names
        ]
        self._charge_scan(node.relation, table.block_count, len(table))
        return ColumnFrame(columns, table.encoded_columns())

    def _run_index_probe(self, node: IndexProbeNode) -> ColumnFrame:
        index = self.database.index_on(node.relation, node.attribute)
        if index is None:
            raise ExecutionError(
                "plan expects an index on %s.%s that does not exist"
                % (node.relation, node.attribute)
            )
        rows = index.lookup(node.value)
        self._charge_probe(index.lookup_blocks(node.value), len(rows))
        relation = self.database.relation(node.relation)
        columns = ["%s.%s" % (node.binding, a) for a in relation.attribute_names]
        data = [
            Column.from_typed(
                [row[position] for row in rows], attribute.data_type
            )
            for position, attribute in enumerate(relation.attributes)
        ]
        return ColumnFrame(columns, data)

    # -- filters ----------------------------------------------------------------

    def _filter_program(self, node: FilterNode, columns: Tuple[str, ...]) -> List:
        """The node's conditions compiled to resolved positions +
        comparison kernels, cached per plan node."""
        entry = self._filter_programs.get(id(node))
        if entry is not None and entry[0] is node and entry[2] == columns:
            return entry[1]
        steps: List = []
        for condition in node.conditions:
            position = resolve_column(columns, condition.left)
            symbol = condition.op.value
            compare = _OPERATOR_FN[condition.op]
            if isinstance(condition.right, Literal):
                steps.append(
                    ("lit", position, symbol, compare, condition.right.value)
                )
            else:
                steps.append(
                    (
                        "col",
                        position,
                        symbol,
                        compare,
                        resolve_column(columns, condition.right),
                    )
                )
        self._filter_programs[id(node)] = (node, steps, columns)
        while len(self._filter_programs) > 4096:
            self._filter_programs.popitem(last=False)
        return steps

    def _run_filter(self, node: FilterNode) -> ColumnFrame:
        frame = self._run(node.child)
        steps = self._filter_program(node, frame.columns)
        data = frame.data
        sel = frame.sel
        n_all = len(data[0]) if data else 0
        for step in steps:
            self._rows_filtered_vectorized += len(sel) if sel is not None else n_all
            if step[0] == "lit":
                _, position, symbol, compare, value = step
                if value is None:
                    sel = _EMPTY_SEL
                    continue
                column = data[position]
                mask = column.literal_mask(symbol, value, sel)
                if mask is not None:
                    sel = np.flatnonzero(mask) if sel is None else sel[mask]
                else:
                    sel = _filter_literal_py(column, compare, value, sel)
            else:
                _, position, symbol, compare, right_position = step
                sel_arr = (
                    sel if sel is not None else np.arange(n_all, dtype=np.int64)
                )
                mask = _pair_mask(data[position], data[right_position], symbol, sel_arr)
                if mask is not None:
                    sel = sel_arr[mask]
                else:
                    sel = _filter_pair_py(
                        data[position], data[right_position], compare, sel, sel_arr
                    )
        return ColumnFrame(frame.columns, frame.data, sel)

    # -- joins ------------------------------------------------------------------

    def _run_hash_join(self, node: HashJoinNode) -> ColumnFrame:
        left = self._run(node.left)
        right = self._run(node.right)
        left_column = left.data[left.columns.index(node.left_column)]
        right_column = right.data[right.columns.index(node.right_column)]
        takes = _join_takes(left, right, left_column, right_column)
        if takes is None:
            takes = _join_takes_py(left, right, left_column, right_column)
        left_take, right_take = takes
        data = [column.gather(left_take) for column in left.data]
        data.extend(column.gather(right_take) for column in right.data)
        self._charge_work(len(left_take))
        return ColumnFrame(left.columns + right.columns, data)

    def _run_nested_loop(self, node: NestedLoopJoinNode) -> ColumnFrame:
        left = self._run(node.left)
        right = self._run(node.right)
        columns = left.columns + right.columns
        left_sel = left.selection()
        right_sel = right.selection()
        left_take = np.repeat(left_sel, len(right_sel))
        right_take = np.tile(right_sel, len(left_sel))
        data = [column.gather(left_take) for column in left.data]
        data.extend(column.gather(right_take) for column in right.data)
        self._charge_work(len(left_take))
        return ColumnFrame(columns, data)

    # -- shaping ----------------------------------------------------------------

    def _run_project(self, node: ProjectNode) -> ColumnFrame:
        frame = self._run(node.child)
        if not node.columns:
            return frame
        positions = []
        for name in node.columns:
            if name in frame.columns:
                positions.append(frame.columns.index(name))
            else:  # unqualified projection target
                matches = [
                    i
                    for i, c in enumerate(frame.columns)
                    if c.split(".", 1)[-1] == name
                ]
                if len(matches) != 1:
                    raise ExecutionError(
                        "cannot project %r from %s" % (name, list(frame.columns))
                    )
                positions.append(matches[0])
        output = list(node.output_names) if node.output_names else list(node.columns)
        return ColumnFrame(output, [frame.data[p] for p in positions], frame.sel)

    def _run_distinct(self, node: DistinctNode) -> ColumnFrame:
        frame = self._run(node.child)
        sel = frame.selection()
        if len(sel) == 0:
            return ColumnFrame(frame.columns, frame.data, sel)
        codes = _frame_group_codes(frame)
        if codes is None:
            keep = _distinct_keep_py(frame)
        else:
            _, first = (
                np.unique(codes[0], return_index=True)
                if len(codes) == 1
                else np.unique(np.stack(codes, axis=1), axis=0, return_index=True)
            )
            keep = np.sort(first)
        return ColumnFrame(frame.columns, frame.data, sel[keep])

    def _run_sort(self, node: SortNode) -> ColumnFrame:
        frame = self._run(node.child)
        indices = frame.selection()
        self._charge_work(len(indices))
        key_positions = []
        for name, descending in node.keys:
            matches = [
                i
                for i, c in enumerate(frame.columns)
                if c == name or c.split(".", 1)[-1] == name
            ]
            if len(matches) != 1:
                raise ExecutionError(
                    "cannot sort by %r in %s" % (name, list(frame.columns))
                )
            key_positions.append((matches[0], descending))
        for position, descending in reversed(key_positions):
            column = frame.data[position]
            key = column.sort_key(indices)
            if key is None:
                values = column.materialize(indices)
                order = np.asarray(
                    sorted(
                        range(len(values)),
                        key=lambda k: (values[k] is None, values[k]),
                        reverse=descending,
                    ),
                    dtype=np.int64,
                )
            else:
                nulls, keys = key
                if descending:
                    # Stable descending = stable ascending of the
                    # reversed keys, mapped back and reversed.
                    perm = np.lexsort((keys[::-1], nulls[::-1]))
                    order = (len(indices) - 1 - perm)[::-1]
                else:
                    order = np.lexsort((keys, nulls))
            indices = indices[order]
        return ColumnFrame(frame.columns, frame.data, indices)

    def _run_limit(self, node: LimitNode) -> ColumnFrame:
        frame = self._run(node.child)
        return ColumnFrame(frame.columns, frame.data, frame.selection()[: node.limit])

    def _run_union(self, node: UnionAllNode) -> ColumnFrame:
        columns: Tuple[str, ...] = ()
        parts: List[ColumnFrame] = []
        for child in node.inputs:
            frame = self._run(child)
            if not columns:
                columns = frame.columns
            elif len(columns) != len(frame.columns):
                raise SQLError("UNION ALL inputs disagree in arity")
            parts.append(frame)
        data = [
            _concat_columns(
                [part.data[position] for part in parts],
                [part.sel for part in parts],
            )
            for position in range(len(columns))
        ]
        return ColumnFrame(columns, data)

    def _run_group_having(self, node: GroupHavingCountNode) -> ColumnFrame:
        frame = self._run(node.child)
        sel = frame.selection()
        self._charge_work(len(sel))
        if len(sel) == 0:
            return ColumnFrame(
                frame.columns, [column.gather(_EMPTY_SEL) for column in frame.data]
            )
        codes = _frame_group_codes(frame)
        if codes is None:
            return ColumnFrame(frame.columns, _group_columns_py(frame, node))
        _, first, counts = (
            np.unique(codes[0], return_index=True, return_counts=True)
            if len(codes) == 1
            else np.unique(
                np.stack(codes, axis=1), axis=0, return_index=True, return_counts=True
            )
        )
        keep = counts >= node.count if node.at_least else counts == node.count
        representatives = sel[np.sort(first[keep])]
        data = [column.gather(representatives) for column in frame.data]
        return ColumnFrame(frame.columns, data)

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


# -- Python fallbacks (exact row-engine semantics for obj operands) ------------------


def _filter_literal_py(
    column: Column, compare, value: object, sel: Optional[np.ndarray]
) -> np.ndarray:
    if sel is None:
        values = column.materialize(None)
        return np.asarray(
            [i for i, v in enumerate(values) if v is not None and compare(v, value)],
            dtype=np.int64,
        )
    values = column.materialize(sel)
    keep = [k for k, v in enumerate(values) if v is not None and compare(v, value)]
    return sel[np.asarray(keep, dtype=np.int64)]


def _filter_pair_py(
    left: Column,
    right: Column,
    compare,
    sel: Optional[np.ndarray],
    sel_arr: np.ndarray,
) -> np.ndarray:
    lvalues = left.materialize(sel)
    rvalues = right.materialize(sel)
    keep = [
        k
        for k in range(len(lvalues))
        if lvalues[k] is not None
        and rvalues[k] is not None
        and compare(lvalues[k], rvalues[k])
    ]
    return sel_arr[np.asarray(keep, dtype=np.int64)]


def _frame_group_codes(frame: ColumnFrame) -> Optional[List[np.ndarray]]:
    """Per-column group codes over the frame's selection, or None when
    any column needs the Python row-tuple path."""
    codes: List[np.ndarray] = []
    for column in frame.data:
        column_codes = column.group_codes(frame.sel)
        if column_codes is None:
            return None
        codes.append(column_codes)
    return codes if codes else None


def _distinct_keep_py(frame: ColumnFrame) -> np.ndarray:
    materialized = [column.materialize(frame.sel) for column in frame.data]
    seen: set = set()
    keep: List[int] = []
    for k, row in enumerate(zip(*materialized)):
        if row not in seen:
            seen.add(row)
            keep.append(k)
    return np.asarray(keep, dtype=np.int64)


def _group_columns_py(frame: ColumnFrame, node: GroupHavingCountNode) -> List[Column]:
    from collections import Counter

    materialized = [column.materialize(frame.sel) for column in frame.data]
    counts = Counter(zip(*materialized))
    if node.at_least:
        kept = [row for row, count in counts.items() if count >= node.count]
    else:
        kept = [row for row, count in counts.items() if count == node.count]
    return [
        Column.from_values([row[position] for row in kept])
        for position in range(len(frame.columns))
    ]
