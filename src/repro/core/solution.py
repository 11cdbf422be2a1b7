"""The result record of a CQP search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.core.state import Mask, state_of
from repro.core.stats import SearchStats


@dataclass
class CQPSolution:
    """A personalized-query choice: which preferences to integrate and the
    parameters the estimator predicts for the resulting query."""

    pref_indices: Tuple[int, ...]  # positions into P (doi order)
    doi: float
    cost: float
    size: float
    algorithm: str = ""
    stats: SearchStats = field(default_factory=SearchStats)

    @classmethod
    def priced(
        cls, evaluator, mask: Mask, algorithm: str, stats: SearchStats
    ) -> "CQPSolution":
        """The record of a P-index mask, priced by ``evaluator``."""
        return cls(
            pref_indices=state_of(mask),
            doi=evaluator.doi_mask(mask),
            cost=evaluator.cost_mask(mask),
            size=evaluator.size_mask(mask),
            algorithm=algorithm,
            stats=stats,
        )

    @property
    def group_size(self) -> int:
        return len(self.pref_indices)

    def __str__(self) -> str:
        return "CQPSolution(%s: %d prefs, doi=%.4f, cost=%.1f, size=%.1f)" % (
            self.algorithm or "?",
            self.group_size,
            self.doi,
            self.cost,
            self.size,
        )
