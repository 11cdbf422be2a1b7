"""Algorithm D-SINGLEMAXDOI (Figure 10) — single-phase greedy, doi space.

The doi-space sibling of C-MAXBOUNDS: each round seeds from the next
preference in doi order, greedily inflates it with ``Horizontal2``
insertions (highest remaining doi first) under the budget, records the
result if it beats the incumbent, and recurses into Vertical neighbors
that retain the seed. Rounds stop when the incumbent beats
BestExpectedDoi — the doi of *all* preferences from the current seed on
(Figure 10 line 3.4).

Heuristic: a round's greedy inflation can commit to an expensive
high-doi preference that crowds out a better combination.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Set, Tuple

from repro.core.algorithms.base import (
    CQPAlgorithm,
    best_expected_doi,
    greedy_extend,
    node_sizes,
    register,
)
from repro.core.space import SearchSpace
from repro.core.state import Mask, mask_group_size, vertical_moves
from repro.core.stats import SearchStats


@register
class DSingleMaxDoi(CQPAlgorithm):
    """Greedy single-phase search over the doi space."""

    name = "d_singlemaxdoi"
    exact = False
    space_kind = "doi"

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        k = space.k
        bits = space.pref_bits
        sizes = node_sizes(k)
        best_doi = -1.0
        best: Optional[Mask] = None
        visited: Set[Mask] = set()  # prune(.): no boundaries are recorded
        queue: "deque[Tuple[Mask, Mask, int]]" = deque()
        live = [0]
        stats.track_container("RQ", lambda: live[0])

        seed = 0
        while seed < k:
            if best is not None and best_doi > best_expected_doi(space, seed):
                break
            start = 1 << seed
            if start not in visited:
                visited.add(start)
                queue.append((start, bits[seed], 1))
                live[0] += sizes[1]
            while queue:
                ranks, pmask, group = queue.popleft()
                live[0] -= sizes[group]
                stats.examined()
                if space.within_budget(pmask):
                    ranks, pmask = greedy_extend(space, ranks, pmask, stats)
                    group = mask_group_size(ranks)
                    if space.fully_feasible(pmask):
                        doi = space.objective(pmask)
                        if doi > best_doi:
                            best_doi = doi
                            best = pmask
                for rank, _ in vertical_moves(ranks, k):
                    if rank == seed:
                        continue  # rounds only grow states containing the seed
                    neighbor = ranks + (1 << rank)
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    stats.moved()
                    queue.append((neighbor, pmask ^ bits[rank] ^ bits[rank + 1], group))
                    live[0] += sizes[group]
                stats.sample_memory()
            seed += 1
        return best
