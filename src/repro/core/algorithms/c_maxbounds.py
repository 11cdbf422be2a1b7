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
from repro.core.space import SearchSpace
from repro.core.state import (
    BoundaryBook,
    Mask,
    State,
    mask_group_size,
    state_of,
    vertical_moves,
)
from repro.core.stats import SearchStats


def find_max_bounds(space: SearchSpace, stats: SearchStats) -> List[State]:
    """Phase 1: the FINDMAXBOUND rounds, seed rank by seed rank.

    Returns the maximal boundaries in the frontier format, most recent
    first (Figure 7 pushes each at the head). ``prune(.)`` is a visited
    set of rank masks plus dominance against the maximal boundaries
    recorded so far, as packed rank words.
    """
    k = space.k
    bits = space.pref_bits
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
            if not space.within_budget(pmask):
                # Inserting preferences only raises the budget, so an
                # infeasible node cannot be extended into a boundary.
                continue
            ranks, pmask = greedy_extend(space, ranks, pmask, stats)
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
    return [state_of(ranks) for ranks in reversed(max_bounds)]


@register
class CMaxBounds(CQPAlgorithm):
    """Greedy maximal boundaries + best-doi-below search."""

    name = "c_maxbounds"
    exact = False
    space_kind = "cost"

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        return find_max_doi_below(space, find_max_bounds(space, stats), stats)
