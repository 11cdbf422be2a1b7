"""Algorithm D-HEURDOI (Figure 11) — greedy build + cheapest-drop repair.

Built on the same idea as D-SINGLEMAXDOI but with a much smaller
exploration budget. Per round:

(a) greedily inflate the seed with ``Horizontal2`` insertions under the
    budget and record the result;
(b) repair: repeatedly *drop the cheapest preference* of the current
    node (freeing budget), forbid it from re-insertion, re-inflate
    greedily, and record — until the node is reduced to the seed.

The rounds' early exit reuses Figure 10's BestExpectedDoi suffix bound.

Interpretation notes (DESIGN.md §4): the prose seeds rounds with "the
most expensive preference not yet examined", but the loop bound indexes
the doi-ordered P — we follow the doi order, matching the bound. The
repair step follows the prose ("remove the cheapest preference … until
the current node is reduced to the initial preference"); Figure 11's
prefix-truncation loop is an equivalent compression of the same walk.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithms.base import (
    CQPAlgorithm,
    best_expected_doi,
    greedy_extend,
    register,
)
from repro.core.space import SearchSpace
from repro.core.state import Mask, mask_group_size
from repro.core.stats import SearchStats, node_bytes


def _cheapest_rank(space: SearchSpace, ranks: Mask, seed: int) -> int:
    """The rank whose preference has the lowest sub-query cost, never
    the seed (the walk ends at the bare seed); ties go to the lowest
    rank."""
    costs = space.evaluator.cost_values
    vector = space.vector
    cheapest = -1
    lowest = 0.0
    rest = ranks & ~(1 << seed)
    while rest:
        low = rest & -rest
        rest ^= low
        rank = low.bit_length() - 1
        cost = costs[vector[rank]]
        if cheapest < 0 or cost < lowest:
            cheapest, lowest = rank, cost
    return cheapest


@register
class DHeurDoi(CQPAlgorithm):
    """The paper's fastest heuristic: tiny frontier, near-optimal quality."""

    name = "d_heurdoi"
    exact = False
    space_kind = "doi"

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        bits = space.pref_bits
        best_doi = -1.0
        best: Optional[Mask] = None

        def record(pmask: Mask) -> None:
            nonlocal best_doi, best
            stats.examined()
            if not space.fully_feasible(pmask):
                return
            doi = space.objective(pmask)
            if doi > best_doi:
                best_doi = doi
                best = pmask

        seed = 0
        while seed < space.k:
            if best is not None and best_doi > best_expected_doi(space, seed):
                break
            if space.within_budget(bits[seed]):
                current, pmask = greedy_extend(space, 1 << seed, bits[seed], stats)
                record(pmask)
                forbidden = 0
                # The current node plus the forbidden set is the whole
                # live memory of a round.
                stats.track_container(
                    "current",
                    lambda: node_bytes(range(mask_group_size(current)))
                    + 8 * mask_group_size(forbidden),
                )
                while mask_group_size(current) > 1:
                    dropped = _cheapest_rank(space, current, seed)
                    forbidden |= 1 << dropped
                    current, pmask = greedy_extend(
                        space,
                        current ^ (1 << dropped),
                        pmask ^ bits[dropped],
                        stats,
                        forbidden=forbidden,
                    )
                    record(pmask)
                    stats.sample_memory()
            else:
                record(bits[seed])  # unreachable budget: still counts the visit
            seed += 1
        return best
