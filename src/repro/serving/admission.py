"""Admission control: bounded-queue backpressure with retry-after.

The controller tracks one number — outstanding depth (requests admitted
but not yet answered) — and admits a request only while that depth is
under the request's *tier* budget. Budgets shrink down the tier ladder,
so as the queue deepens the server sheds bronze first, then silver,
then gold: tier-ordered admission without any cross-request
bookkeeping. A rejection is never silent — it always carries the tier's
retry-after hint and the depth that triggered it.

Sans-IO like the batcher: no clock, no sleeps; the asyncio server
drives it with plain method calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serving.config import SlaTier


@dataclass(frozen=True)
class Rejection:
    """Why a request was turned away, and when to come back."""

    tier: str
    retry_after_s: float
    queue_depth: int
    queue_budget: int

    @property
    def retry_after_ms(self) -> float:
        return self.retry_after_s * 1000.0

    def describe(self) -> str:
        return (
            "tier %r rejected at depth %d (budget %d); retry after %.0f ms"
            % (self.tier, self.queue_depth, self.queue_budget, self.retry_after_ms)
        )


class AdmissionRejected(Exception):
    """Raised to an async submitter whose request was not admitted."""

    def __init__(self, rejection: Rejection) -> None:
        super().__init__(rejection.describe())
        self.rejection = rejection

    @property
    def retry_after_s(self) -> float:
        return self.rejection.retry_after_s


class AdmissionController:
    """The bounded queue's gatekeeper."""

    def __init__(self) -> None:
        self._outstanding = 0
        self.admitted = 0
        self.rejected = 0

    @property
    def depth(self) -> int:
        """Requests admitted and not yet released (queued + in flight)."""
        return self._outstanding

    def try_admit(self, tier: SlaTier) -> Optional[Rejection]:
        """Admit under ``tier``'s budget; a :class:`Rejection` otherwise."""
        if self._outstanding >= tier.queue_budget:
            self.rejected += 1
            return Rejection(
                tier=tier.name,
                retry_after_s=tier.retry_after_s,
                queue_depth=self._outstanding,
                queue_budget=tier.queue_budget,
            )
        self._outstanding += 1
        self.admitted += 1
        return None

    def release(self, count: int = 1) -> None:
        """Mark ``count`` admitted requests as answered."""
        if count < 0 or count > self._outstanding:
            raise ValueError(
                "cannot release %d of %d outstanding" % (count, self._outstanding)
            )
        self._outstanding -= count
