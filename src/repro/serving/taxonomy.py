"""Per-response outcome classification and the per-tier scoreboard.

The WIN / IMPROVED / NEUTRAL / REGRESSION taxonomy is borrowed from the
querytorque architecture spec (SNIPPETS.md shared vocabulary), re-based
on SLA deadlines instead of speedup ratios:

===========  =======================================================
Status       Meaning for one served response
===========  =======================================================
WIN          met its tier deadline with margin (≤ half the deadline),
             undegraded
IMPROVED     met the deadline, undegraded
NEUTRAL      met the deadline but degraded (the algorithm was
             downgraded to fit the budget) — the graceful-degradation
             bargain working as designed
REGRESSION   missed its tier deadline
===========  =======================================================

Rejected requests never reach classification — they are counted
separately on the scoreboard (an admission rejection is backpressure,
not a served outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

STATUSES = ("WIN", "IMPROVED", "NEUTRAL", "REGRESSION")

WIN_MARGIN = 0.5  # fraction of the deadline a WIN must come in under


def classify(latency_s: float, deadline_s: float, degraded: bool) -> str:
    """One response's status under its tier's deadline."""
    if latency_s > deadline_s:
        return "REGRESSION"
    if degraded:
        return "NEUTRAL"
    if latency_s <= WIN_MARGIN * deadline_s:
        return "WIN"
    return "IMPROVED"


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]


@dataclass
class TierScoreboard:
    """Running per-tier tallies: statuses, rejections, latencies."""

    statuses: Dict[str, Dict[str, int]] = field(default_factory=dict)
    rejections: Dict[str, int] = field(default_factory=dict)
    latencies_s: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, tier: str, status: str, latency_s: float) -> None:
        if status not in STATUSES:
            raise ValueError("unknown status %r" % status)
        per_tier = self.statuses.setdefault(
            tier, {name: 0 for name in STATUSES}
        )
        per_tier[status] += 1
        self.latencies_s.setdefault(tier, []).append(latency_s)

    def record_rejection(self, tier: str) -> None:
        self.rejections[tier] = self.rejections.get(tier, 0) + 1

    def served(self, tier: str) -> int:
        return sum(self.statuses.get(tier, {}).values())

    def report(self) -> Dict[str, Dict]:
        """One JSON-ready block per tier: counts, taxonomy, latency
        percentiles (the shape the benchmark trajectory records)."""
        tiers = sorted(set(self.statuses) | set(self.rejections))
        out: Dict[str, Dict] = {}
        for tier in tiers:
            ordered = sorted(self.latencies_s.get(tier, []))
            out[tier] = {
                "served": self.served(tier),
                "rejected": self.rejections.get(tier, 0),
                "taxonomy": dict(
                    self.statuses.get(tier, {name: 0 for name in STATUSES})
                ),
                "p50_ms": round(1000.0 * _percentile(ordered, 0.50), 3),
                "p95_ms": round(1000.0 * _percentile(ordered, 0.95), 3),
                "p99_ms": round(1000.0 * _percentile(ordered, 0.99), 3),
            }
        return out
