"""The O(2^K) exhaustive baseline.

Enumerates every non-empty subset of P, keeps the best fully feasible
one. Used as the correctness oracle in tests and as the yardstick the
paper's complexity discussion starts from. Guarded against being run at
sizes where 2^K is unreasonable.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from repro.core.algorithms.base import CQPAlgorithm, register
from repro.core.space import SearchSpace
from repro.core.state import Mask
from repro.core.stats import SearchStats
from repro.errors import SearchError

MAX_EXHAUSTIVE_K = 22


@register
class Exhaustive(CQPAlgorithm):
    """Try everything; provably optimal, exponentially slow."""

    name = "exhaustive"
    exact = True
    space_kind = "any"

    def __init__(self, k_guard: int = MAX_EXHAUSTIVE_K) -> None:
        self.k_guard = k_guard

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        if space.k > self.k_guard:
            raise SearchError(
                "exhaustive search over K=%d exceeds the 2^%d guard"
                % (space.k, self.k_guard)
            )
        best_doi = -1.0
        best: Optional[Mask] = None
        # Lexicographic rank order within each group: combinations of
        # the rank-ordered P-index bits, each summed into its mask.
        for group in range(1, space.k + 1):
            for bits in combinations(space.pref_bits, group):
                pmask = sum(bits)
                stats.examined()
                if not space.fully_feasible(pmask):
                    continue
                doi = space.objective(pmask)
                if doi > best_doi:
                    best_doi = doi
                    best = pmask
        return best
