"""Tuple-state reference versions of the Section 5 hot loops.

The search layer runs FINDBOUNDARY (Figure 5) and the first-fit
``Horizontal2`` growth (Figures 7, 10, 11) on int bitmasks. These are
the straightforward tuple-state loops they replaced, kept as the oracle
the mask loops are checked against call for call: same boundary list in
the same order, same work counters (states examined, transitions,
neighbor batches, peak memory) and same evaluator traffic (evaluations,
cache hits and misses). See ``tests/core/test_mask_search.py``.

:func:`in_plan_order` is the execution oracle's half of this module:
it hands the row :class:`~repro.sql.executor.Executor` the planner's
join order, so the executor's rows and cost receipt pin those of any
engine that runs the planned tree (see ``tests/sql/test_columnar.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import List, Optional, Sequence, Set

from repro.core.algorithms.base import PruneBook
from repro.core.space import SearchSpace
from repro.core.state import State
from repro.core.stats import SearchStats, container_bytes
from repro.sql.ast_nodes import GroupByHavingCount, QueryNode, SelectQuery, UnionAllQuery
from repro.sql.plan import IndexProbeNode, PlanNode, ScanNode
from repro.sql.planner import Planner
from repro.storage.database import Database


def vertical_by_budget(
    space: SearchSpace, state: State, stats: Optional[SearchStats] = None
) -> List[State]:
    """The Vertical neighbors of ``state``, ordered by decreasing budget.

    Replicates ``neighbors.sort(key=space.budget_value, reverse=True)``
    exactly (stable order for equal budgets) while evaluating the whole
    neighbor set in one batched estimator call.
    """
    neighbors = space.vertical(state)
    if len(neighbors) > 1:
        pref_mask = space.pref_mask
        values = space.budget_mask_many([pref_mask(neighbor) for neighbor in neighbors])
        if stats is not None:
            stats.neighbor_batches += 1
        order = sorted(
            range(len(neighbors)), key=values.__getitem__, reverse=True
        )
        neighbors = [neighbors[i] for i in order]
    return neighbors


def find_boundaries(
    space: SearchSpace,
    stats: SearchStats,
    seeds: Optional[Sequence[State]] = None,
) -> List[State]:
    """Phase 1: the breadth-first boundary sweep, on rank tuples.

    Same contract as :func:`repro.core.algorithms.c_boundaries.find_boundaries`,
    including the ``seeds=`` warm start.
    """
    boundaries: List[State] = []
    book = PruneBook()
    queue: "deque[State]" = deque()
    stats.track_container("RQ", lambda: container_bytes(queue))
    stats.track_container("Boundaries", lambda: container_bytes(boundaries))

    if space.k == 0:
        return boundaries
    warm = seeds is not None
    if seeds is None:
        seeds = ((0,),)
    for seed in seeds:
        book.mark(seed)
        queue.append(seed)
    while queue:
        state = queue.popleft()
        stats.examined()
        if book.below_any_boundary(state):
            continue  # a boundary recorded since enqueue covers this state
        if space.within_budget(state):
            boundaries.append(state)
            book.add_boundary(state)
            if warm:
                continue  # the next group is covered by its own seeds
            successor = space.horizontal(state)
            if successor is not None and not book.prune(successor):
                stats.moved()
                queue.append(successor)  # tail: next group, breadth-first
        else:
            # The paper orders Vertical neighbors by decreasing cost and
            # pushes them at the head so a group is finished before the
            # next one starts; the whole neighbor set is priced in one
            # batched estimator call.
            neighbors = vertical_by_budget(space, state, stats)
            for neighbor in reversed(neighbors):
                if not book.prune(neighbor):
                    stats.moved()
                    queue.appendleft(neighbor)
        stats.sample_memory()
    return boundaries


def greedy_extend(
    space: SearchSpace,
    state: State,
    stats: SearchStats,
    forbidden: Optional[Set[int]] = None,
) -> State:
    """First-fit ``Horizontal2`` growth, on rank tuples.

    Same contract as :func:`repro.core.algorithms.base.greedy_extend`.
    """
    current = state
    grown = True
    while grown:
        grown = False
        for candidate in space.horizontal2(current):
            inserted = (set(candidate) - set(current)).pop()
            if forbidden is not None and inserted in forbidden:
                continue
            if space.within_budget(candidate):
                current = candidate
                stats.moved()
                grown = True
                break
    return current


def _leaf_bindings(plan: PlanNode) -> List[str]:
    """The bindings of ``plan``'s access paths, left to right."""
    if isinstance(plan, (ScanNode, IndexProbeNode)):
        return [plan.binding]
    return [binding for child in plan.children() for binding in _leaf_bindings(child)]


def in_plan_order(database: Database, query: QueryNode) -> QueryNode:
    """``query`` with every SELECT's FROM list in the planner's join order.

    The row :class:`~repro.sql.executor.Executor` joins in FROM order
    and applies each predicate as soon as its tables are bound, like
    the planned tree, so ``Executor(database).execute(in_plan_order(
    database, query))`` returns the planned engine's rows in order and
    its full receipt, ``rows_processed`` included. UNION ALL branches
    are reordered one by one; the HAVING COUNT wrapper is kept.
    """
    if isinstance(query, SelectQuery):
        tables = {table.binding_name: table for table in query.from_tables}
        order = _leaf_bindings(Planner(database).plan(query))
        return replace(query, from_tables=tuple(tables[b] for b in order))
    if isinstance(query, UnionAllQuery):
        return UnionAllQuery(
            tuple(in_plan_order(database, sub) for sub in query.subqueries)
        )
    if isinstance(query, GroupByHavingCount):
        return replace(query, source=in_plan_order(database, query.source))
    raise TypeError("cannot reorder %r" % (query,))
