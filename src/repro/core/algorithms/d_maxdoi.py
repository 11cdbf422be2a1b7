"""Algorithm D-MAXDOI (Figure 9) — exact, on the doi state space.

``FINDOPTIMAL`` walks the doi-ordered vector: from each feasible state
it applies Horizontal transitions while the budget holds, records the
last feasible node of the chain as a candidate solution, then branches
into the Vertical neighbors of the chain's first infeasible successor.
Vertical moves here are "blind" with respect to cost (Table 5), which is
exactly why the paper finds this algorithm explores a large share of the
space — the behavior Figure 12(a) shows.

``D_FINDMAXDOI`` then scans the recorded solutions in decreasing group
size with the BestExpectedDoi early exit. Unlike C_FINDMAXDOI it needs
no pointer trick: solutions are evaluated directly (Figure 9).

Pseudocode gap (DESIGN.md §4): on the infeasible branch the paper
references ``R'`` which was never assigned; we branch into
``Vertical(R)`` there, and into ``Vertical(R')`` of the first infeasible
Horizontal successor on the feasible branch, per the prose. Pruning is
visited-set only — below-solution dominance in the doi space can cut
states whose *extensions* beat every recorded solution, which would
break Theorem 3.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from repro.core.algorithms.base import CQPAlgorithm, node_sizes, register
from repro.core.space import SearchSpace
from repro.core.state import Mask, State, mask_of, state_of, vertical_moves
from repro.core.stats import SearchStats


def find_optimal(space: SearchSpace, stats: SearchStats) -> List[State]:
    """Phase 1: collect chain-maximal feasible states (FINDOPTIMAL).

    Runs on (rank mask, P-index mask, group) entries; the recorded
    solutions come back in the frontier format, in recording order
    (duplicates included, as recorded).
    """
    k = space.k
    bits = space.pref_bits
    sizes = node_sizes(k)
    solutions: List[Mask] = []
    visited: Set[Mask] = set()
    queue: "deque[Tuple[Mask, Mask, int]]" = deque()
    live = [0, 0]  # accounted bytes: queue, solutions
    stats.track_container("RQ", lambda: live[0])
    stats.track_container("Solutions", lambda: live[1])

    if k == 0:
        return []
    visited.add(1)
    queue.append((1, bits[0], 1))
    live[0] += sizes[1]
    while queue:
        ranks, pmask, group = queue.popleft()
        live[0] -= sizes[group]
        stats.examined()
        if space.within_budget(pmask):
            # The Horizontal chain: append the next rank while it fits.
            rank = ranks.bit_length()
            while rank < k and space.within_budget(pmask | bits[rank]):
                stats.moved()
                ranks |= 1 << rank
                pmask |= bits[rank]
                group += 1
                rank += 1
            solutions.append(ranks)
            live[1] += sizes[group]
            if rank < k:  # branch at the first infeasible successor
                ranks |= 1 << rank
                pmask |= bits[rank]
                group += 1
        for rank, _ in vertical_moves(ranks, k):
            neighbor = ranks + (1 << rank)
            if neighbor in visited:
                continue
            visited.add(neighbor)
            stats.moved()
            queue.appendleft((neighbor, pmask ^ bits[rank] ^ bits[rank + 1], group))
            live[0] += sizes[group]
        stats.sample_memory()
    return [state_of(ranks) for ranks in solutions]


def d_find_max_doi(
    space: SearchSpace, solutions: List[State], stats: SearchStats
) -> Optional[Mask]:
    """Phase 2: pick the best recorded solution (D_FINDMAXDOI).

    Solutions are scanned in decreasing group size — within a group in
    the iteration order of their tuple set, which decides among tied
    optima. Returns the P-index mask of the best one.
    """
    ordered = sorted(set(solutions), key=len, reverse=True)
    best_doi = -1.0
    best: Optional[Mask] = None
    current_group = len(ordered[0]) if ordered else 0
    for state in ordered:
        if len(state) < current_group:
            current_group = len(state)
            if best_doi > space.upper_bound(current_group):
                break
        stats.examined()
        pmask = space.pref_mask(mask_of(state))
        if not space.extra_feasible(pmask):
            continue
        doi = space.objective(pmask)
        if doi > best_doi:
            best_doi = doi
            best = pmask
    return best


@register
class DMaxDoi(CQPAlgorithm):
    """Exact search over the doi space (Theorem 3)."""

    name = "d_maxdoi"
    exact = True
    space_kind = "doi"

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        solutions = find_optimal(space, stats)
        return d_find_max_doi(space, solutions, stats)
