"""Algorithm C-MAXBOUNDS (Figure 7) — greedy maximal boundaries.

C-BOUNDARIES emits a superset of the boundaries needed: some are subsets
of others (hence dominated in doi) or reachable from others. C-MAXBOUNDS
instead grows *maximal* boundaries greedily: each round seeds from the
most expensive not-yet-examined preference ``c_k`` and inflates it with
``Horizontal2`` insertions (most expensive first) as long as the budget
holds; Vertical neighbors of each maximal boundary that still contain
the seed continue the round. Rounds stop once a maximal boundary already
covers every remaining preference (``k + LastSolutionSize > K``).

Heuristic: the maximal-boundary set may miss the region containing the
optimum, though in practice the quality gap is ~1e-7 (Figure 14).

With a :class:`~repro.core.frontier_cache.FrontierMemo` attached to the
space, a limit inside the verdict span of an earlier run against the
same space reuses that run's maximal boundaries and skips phase 1.

Deviations from the pseudocode (DESIGN.md §4): the ``Horizontal2`` loop
exits when no insertion fits (as written it would spin forever), and a
feasible seed that admits no extension is still recorded (as written,
``R ≠ R0`` silently drops it, returning "infeasible" under tight budgets
where singleton solutions exist).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from repro.core.algorithms.base import (
    CQPAlgorithm,
    find_max_doi_below,
    greedy_extend,
    node_sizes,
    register,
)
from repro.core.frontier_cache import VerdictSpan
from repro.core.space import SearchSpace
from repro.core.state import (
    BoundaryBook,
    Mask,
    State,
    mask_group_size,
    mask_of,
    pack_masks,
    state_of,
    unpack_masks,
    vertical_moves,
)
from repro.core.stats import SearchStats


def find_max_bounds(
    space: SearchSpace,
    stats: SearchStats,
    verdicts: Optional[VerdictSpan] = None,
) -> List[State]:
    """Phase 1: the FINDMAXBOUND rounds, seed rank by seed rank.

    Returns the maximal boundaries in the frontier format, most recent
    first (Figure 7 pushes each at the head). ``prune(.)`` is a visited
    set of rank masks plus dominance against the maximal boundaries
    recorded so far, as packed rank words. ``verdicts``, when given, is
    widened to note every budget test, the growth's included: the rounds
    repeat exactly under any feasible limit in its span.
    """
    k = space.k
    bits = space.pref_bits
    price = space.budget
    limit = space.feasible_limit
    passed = float("-inf")
    failed = float("inf")
    width = space.words.width
    pack = space.words.pack
    book = BoundaryBook(space.words)
    sizes = node_sizes(k)
    max_bounds: List[Mask] = []  # recording order; read reversed
    seen_bounds: Set[Mask] = set()
    visited: Set[Mask] = set()
    queue: "deque[Tuple[Mask, Mask, int]]" = deque()
    live = [0, 0]  # accounted bytes: queue, maximal boundaries
    stats.track_container("RQ", lambda: live[0])
    stats.track_container("MaxBounds", lambda: live[1])

    last_solution_size = 0
    seed = 0
    while seed < k and seed + last_solution_size < k:
        start = 1 << seed
        # Figure 7 enqueues the seed unconditionally (only Vertical
        # neighbors go through prune): a seed below an earlier boundary
        # can still grow into a new maximal boundary.
        if start not in visited:
            visited.add(start)
            queue.append((start, bits[seed], 1))
            live[0] += sizes[1]
        while queue:
            ranks, pmask, group = queue.popleft()
            live[0] -= sizes[group]
            stats.examined()
            value = price(pmask)
            if value > limit:
                # Inserting preferences only raises the budget, so an
                # infeasible node cannot be extended into a boundary.
                if value < failed:
                    failed = value
                continue
            if value > passed:
                passed = value
            ranks, pmask = greedy_extend(space, ranks, pmask, stats, verdicts=verdicts)
            group = mask_group_size(ranks)
            word = pack(ranks)
            if ranks not in seen_bounds:
                seen_bounds.add(ranks)
                max_bounds.append(ranks)
                book.add(word, group)
                live[1] += sizes[group]
            for rank, field in vertical_moves(ranks, k):
                if rank == seed:
                    continue  # this round only builds boundaries containing c_k
                neighbor = ranks + (1 << rank)
                if neighbor in visited or book.covered(
                    word + (1 << (field * width)), group
                ):
                    continue
                visited.add(neighbor)
                stats.moved()
                queue.append((neighbor, pmask ^ bits[rank] ^ bits[rank + 1], group))
                live[0] += sizes[group]
            stats.sample_memory()
        if max_bounds:
            last_solution_size = mask_group_size(max_bounds[-1])
        seed += 1
    if verdicts is not None:
        verdicts.note(passed, failed)
    return [state_of(ranks) for ranks in reversed(max_bounds)]


@register
class CMaxBounds(CQPAlgorithm):
    """Greedy maximal boundaries + best-doi-below search."""

    name = "c_maxbounds"
    exact = False
    space_kind = "cost"

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        memo = space.frontier
        if memo is None:
            return find_max_doi_below(space, find_max_bounds(space, stats), stats)
        # The memo holds the maximal boundaries packed into one int, in
        # the order find_max_bounds returns them: phase 2 breaks ties on it.
        packed, _ = memo.lookup(space.limit, self.name)
        if packed is not None:
            stats.frontier_cache_hits += 1
            bounds = [state_of(ranks) for ranks in unpack_masks(packed, space.k)]
        else:
            stats.frontier_cache_misses += 1
            span = VerdictSpan()
            bounds = find_max_bounds(space, stats, span)
            packed = pack_masks((mask_of(bound) for bound in bounds), space.k)
            memo.store(span.low, span.high, packed, self.name)
        return find_max_doi_below(space, bounds, stats)
