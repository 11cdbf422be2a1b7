"""Algorithm C-BOUNDARIES (Figure 5) — exact, on the cost state space.

Phase 1 (``FINDBOUNDARY``) sweeps the space group by group: a state that
satisfies the budget constraint while its Vertical predecessors do not
is a *boundary*. Boundaries of one group seed the next group through
their Horizontal neighbors (Proposition 4), so the breadth-first sweep
finds every boundary (Theorem 1) and stops at the first group with none
(Proposition 5).

Phase 2 (``C_FINDMAXDOI``, shared in :mod:`base`) finds the best-doi
node at or below the boundaries — the optimum, by Theorem 2.

With a :class:`~repro.core.frontier_cache.FrontierMemo` attached to the
space, phase 1 reuses earlier sweeps against the same space: a limit
inside a stored sweep's verdict span skips the sweep outright, and a
cached frontier of a *looser* span seeds the sweep (``seeds=``) instead
of the root — the resumed sweep expands only the region between the old
and new boundaries, and its span is clipped to the seeds'. Both paths
are exact; see the frontier-cache module docstring for the argument and
``tests/core/test_frontier_cache.py`` for the property-based
equivalence check.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.algorithms.base import (
    CQPAlgorithm,
    find_max_doi_below,
    node_sizes,
    register,
)
from repro.core.frontier_cache import VerdictSpan, canonical_frontier
from repro.core.space import SearchSpace
from repro.core.state import BoundaryBook, Mask, State, mask_of, state_of
from repro.core.stats import SearchStats

# One queue entry: rank mask, P-index mask, packed rank word, group.
_Entry = Tuple[Mask, Mask, int, int]


def find_boundaries(
    space: SearchSpace,
    stats: SearchStats,
    seeds: Optional[Sequence[State]] = None,
    verdicts: Optional[VerdictSpan] = None,
) -> List[State]:
    """Phase 1: the breadth-first boundary sweep.

    ``seeds`` warm-starts the sweep: instead of the root ``(0,)``, the
    queue begins at the given states (a canonical frontier recorded
    under a looser limit, in ascending group order) and Horizontal
    expansion is switched off. The feasible set of each group is
    up-closed along Vertical moves, so every boundary under the tighter
    limit dominates a cached seed *of its own group* and the connecting
    Vertical chain runs only through states infeasible under the new
    limit — exactly what the loop expands; a group without cached seeds
    had no feasible state under the looser limit and therefore has none
    now, so the cross-group Horizontal entries (only needed to *reach* a
    group from the one before it) would merely re-explore regions the
    seeds already cover. An *empty* seed sequence is meaningful: no
    feasible state existed under the looser limit, so none exists now,
    and the sweep returns immediately.

    The sweep runs on int masks. A state travels as its rank mask
    (the visited-set key), its P-index mask (what the evaluator prices;
    a Vertical move ``r -> r+1`` flips two of its bits) and its packed
    rank word (:class:`~repro.core.state.RankWords`), against which the
    paper's ``prune(.)`` dominance is one subtraction per recorded
    boundary of the group (:class:`~repro.core.state.BoundaryBook`).

    The visit order is the paper's, unchanged: Vertical neighbors are
    pushed at the head in decreasing budget order (stable for ties),
    Horizontal successors at the tail, and pruning happens on enqueue
    and again on dequeue against the boundaries recorded *so far* —
    the work counters, evaluator traffic and recorded boundary list
    (returned as rank tuples in recording order) match the tuple-state
    reference in :mod:`repro.testing.reference` call for call. The
    memory probe keeps running byte totals of the queue and the
    boundary list under the same :func:`node_bytes` accounting.

    ``verdicts``, when given, is widened to note every budget test: the
    sweep repeats exactly under any feasible limit in its span.
    """
    recorded: List[Mask] = []
    live = [0, 0]  # accounted bytes: queue, recorded boundaries
    stats.track_container("RQ", lambda: live[0])
    stats.track_container("Boundaries", lambda: live[1])

    k = space.k
    if k == 0:
        return []
    bits = space.pref_bits
    price = space.budget
    price_many = space.budget_many
    limit = space.feasible_limit
    words = space.words
    width = words.width
    sizes = node_sizes(k)
    book = BoundaryBook(words)
    covered = book.covered

    queue: "deque[_Entry]" = deque()
    visited: Set[Mask] = set()
    passed = float("-inf")  # the largest budget that passed
    failed = float("inf")  # the smallest budget that failed
    warm = seeds is not None
    if seeds is None:
        seeds = ((0,),)
    for seed in seeds:
        rmask = mask_of(seed)
        pmask = space.pref_mask(rmask)
        word = words.pack(rmask)
        visited.add(rmask)
        queue.append((rmask, pmask, word, len(seed)))
        live[0] += sizes[len(seed)]
    while queue:
        rmask, pmask, word, group = queue.popleft()
        live[0] -= sizes[group]
        stats.examined()
        if covered(word, group):
            continue  # a boundary recorded since enqueue covers this state
        value = price(pmask)
        if value <= limit:
            if value > passed:
                passed = value
            recorded.append(rmask)
            book.add(word, group)
            live[1] += sizes[group]
            if warm:
                continue  # the next group is covered by its own seeds
            rank = rmask.bit_length()  # the Horizontal move appends it
            if rank < k:
                successor = rmask | (1 << rank)
                grown = (word << width) | rank
                if successor not in visited and not covered(grown, group + 1):
                    visited.add(successor)
                    stats.moved()
                    # tail: next group, breadth-first
                    queue.append((successor, pmask | bits[rank], grown, group + 1))
                    live[0] += sizes[group + 1]
        else:
            if value < failed:
                failed = value
            # The paper orders Vertical neighbors by decreasing cost and
            # pushes them at the head so a group is finished before the
            # next one starts; the whole neighbor set is priced in one
            # batched estimator call. Neighbors are generated rightmost
            # position first.
            neighbors: List[_Entry] = []
            field = 0
            rest = rmask
            while rest:
                rank = rest.bit_length() - 1
                rest ^= 1 << rank
                if rank + 1 < k and not (rmask >> (rank + 1)) & 1:
                    neighbors.append((
                        rmask + (1 << rank),
                        pmask ^ bits[rank] ^ bits[rank + 1],
                        word + (1 << (field * width)),
                        group,
                    ))
                field += 1
            if len(neighbors) > 1:
                values = price_many([neighbor[1] for neighbor in neighbors])
                stats.neighbor_batches += 1
                order = sorted(
                    range(len(neighbors)), key=values.__getitem__, reverse=True
                )
                neighbors = [neighbors[i] for i in order]
            for neighbor in reversed(neighbors):
                if neighbor[0] not in visited and not covered(neighbor[2], group):
                    visited.add(neighbor[0])
                    stats.moved()
                    queue.appendleft(neighbor)
                    live[0] += sizes[group]
        stats.sample_memory()
    if verdicts is not None:
        verdicts.note(passed, failed)
    return [state_of(rmask) for rmask in recorded]


@register
class CBoundaries(CQPAlgorithm):
    """Exact boundary enumeration + best-doi-below search."""

    name = "c_boundaries"
    exact = True
    space_kind = "cost"

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        memo = space.frontier
        if memo is None:
            frontier = canonical_frontier(find_boundaries(space, stats))
        else:
            exact, seeds = memo.lookup(space.limit)
            if exact is not None:
                stats.frontier_cache_hits += 1
                frontier = exact
            else:
                stats.frontier_cache_misses += 1
                span = VerdictSpan()
                if seeds is None:
                    recorded = find_boundaries(space, stats, verdicts=span)
                else:
                    stats.states_warm_started += len(seeds.frontier)
                    recorded = find_boundaries(
                        space, stats, seeds=seeds.frontier, verdicts=span
                    )
                    # Seeds are valid only below the top of their span.
                    span.high = min(span.high, seeds.ceiling)
                frontier = canonical_frontier(recorded)
                memo.store(span.low, span.high, frontier)
        return find_max_doi_below(space, frontier, stats)
