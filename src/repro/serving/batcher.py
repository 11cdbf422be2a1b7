"""Micro-batching: coalesce concurrent requests under a latency budget.

The batcher is sans-IO: it never sleeps and never reads a clock — every
method takes ``now`` explicitly, so the flush policy is a pure function
of (pending set, time) and the unit tests can walk it through any
timeline with plain float times. The asyncio server supplies its event
loop's ``time()``.

Flush policy, in order:

* **flush-on-full-batch** — the moment ``max_batch`` requests are
  pending, a batch is due (no waiting out the window);
* **flush-on-deadline** — otherwise the batch is due at the earliest
  per-request flush deadline: ``arrival + min(batch window,
  flush_deadline_fraction × tier deadline)``. A gold request with a
  tight deadline therefore drags its batch out early rather than
  burning its budget waiting for bronze companions.

A due flush drains up to ``max_batch`` requests in (tier priority,
arrival) order; the remainder stays pending (and is typically due
immediately, so an overloaded loop dispatches back-to-back batches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.service import BatchRequest
from repro.serving.config import ServingConfig, SlaTier


@dataclass
class PendingRequest:
    """One admitted request waiting for its batch to flush.

    ``completion`` is whatever the driver uses to deliver the result
    (the server's asyncio future); the batcher never touches it.
    """

    seq: int
    request: BatchRequest
    tier: SlaTier
    arrived_at: float
    flush_by: float
    completion: Any = None
    requested_algorithm: Optional[str] = None


@dataclass
class MicroBatcher:
    config: ServingConfig
    _pending: List[PendingRequest] = field(default_factory=list)
    _seq: int = 0

    def add(
        self, request: BatchRequest, tier: SlaTier, now: float, completion: Any = None
    ) -> PendingRequest:
        """Enqueue one admitted request; returns its pending record."""
        window_s = min(
            self.config.batch_window_ms / 1000.0,
            self.config.flush_deadline_fraction * tier.deadline_s,
        )
        pending = PendingRequest(
            seq=self._seq,
            request=request,
            tier=tier,
            arrived_at=now,
            flush_by=now + window_s,
            completion=completion,
            requested_algorithm=request.algorithm,
        )
        self._seq += 1
        self._pending.append(pending)
        return pending

    @property
    def depth(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.config.max_batch

    def next_deadline(self) -> Optional[float]:
        """When the pending set next becomes due (None when empty)."""
        if not self._pending:
            return None
        return min(pending.flush_by for pending in self._pending)

    def due(self, now: float) -> bool:
        if not self._pending:
            return False
        return self.full or self.next_deadline() <= now

    def take_due(self, now: float) -> List[PendingRequest]:
        """The next batch, when one is due; ``[]`` otherwise.

        Drains up to ``max_batch`` requests, highest tier first, arrival
        order within a tier — the tier-ordered dispatch half of the SLA
        story (admission is the other half). ``now=math.inf`` takes the
        next batch regardless of deadlines (the server's flush).
        """
        if not self.due(now):
            return []
        ordered = sorted(
            self._pending, key=lambda pending: (pending.tier.priority, pending.seq)
        )
        batch = ordered[: self.config.max_batch]
        taken = {pending.seq for pending in batch}
        self._pending = [p for p in self._pending if p.seq not in taken]
        return batch
