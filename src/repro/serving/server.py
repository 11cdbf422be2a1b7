"""The asyncio front-end: concurrent submits, micro-batched solves.

:class:`AsyncPersonalizationServer` is the thin IO shell over the
sans-IO policy components (batcher, admission controller, degradation
policy, scoreboard). Its responsibilities are exactly the ones that
need an event loop and nothing more:

* ``submit()`` — validate, admit (or raise
  :class:`~repro.serving.admission.AdmissionRejected` with a
  retry-after), enqueue, and await the response future;
* one dispatcher loop that owns the service. It takes the next due
  batch only when no solve is in flight (flush-on-full wakes it
  immediately; flush-on-deadline bounds its wait), stamps the dispatch
  time and resolves degradation at that moment — so the wait behind the
  previous solve counts as queue time and burns the degradation budget
  — then awaits the scheduler-backed
  :meth:`~repro.core.service.PersonalizationService.request_many`
  through ``loop.run_in_executor`` so the event loop never blocks, and
  classifies, accounts, and completes the futures.

One solve is in flight at a time: the service's batch path is not
reentrant, and the scheduler already fans each supergroup across
workers, so concurrency lives in the queue, exactly where admission
control and degradation can see it. Every timestamp is the event
loop's ``time()``, so tests drive this same server on a virtual-time
loop.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Union

from repro.core.context import SearchContext, problem_for_context
from repro.core.service import BatchRequest, PersonalizationService, ServiceResponse
from repro.errors import PreferenceError
from repro.serving.admission import AdmissionController, AdmissionRejected
from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.config import ServingConfig
from repro.serving.degradation import DegradationPolicy
from repro.serving.taxonomy import TierScoreboard, classify


@dataclass
class ServedResponse:
    """One answered request: the service payload plus how serving went."""

    response: ServiceResponse
    tier: str
    status: str  # WIN / IMPROVED / NEUTRAL / REGRESSION
    latency_ms: float  # admission -> completion, on the event loop's clock
    queue_ms: float  # admission -> dispatch (includes the wait for the solver)
    deadline_ms: float
    batch_size: int
    algorithm: Optional[str]  # what was dispatched (None = service default)

    @property
    def degraded(self) -> bool:
        return self.response.degraded


class AsyncPersonalizationServer:
    """Serve a :class:`PersonalizationService` to concurrent callers.

    Use as an async context manager, or call :meth:`start`/:meth:`stop`
    explicitly.
    """

    def __init__(
        self,
        service: PersonalizationService,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServingConfig()
        self.scoreboard = TierScoreboard()
        self.admission = AdmissionController()
        self.batcher = MicroBatcher(self.config)
        self.policy = DegradationPolicy(self.config)
        self.batches_dispatched = 0
        self.requests_served = 0
        self._wake: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._flushing = False  # take batches regardless of deadline
        self._closing = False  # end the loop once flushed

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> "AsyncPersonalizationServer":
        if self._dispatcher is not None:
            raise RuntimeError("server already started")
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._flushing = self._closing = False
        self._dispatcher = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Flush everything pending, answer it, and end the loop."""
        if self._dispatcher is None:
            return
        self._flushing = self._closing = True
        self._wake.set()
        await self._dispatcher
        self._dispatcher = None

    async def __aenter__(self) -> "AsyncPersonalizationServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def drain(self) -> None:
        """Flush all pending batches now, deadline or not, and return once
        the batcher is empty and nothing is in flight."""
        self._flushing = True
        self._idle.clear()
        self._wake.set()
        await self._idle.wait()

    # -- the submit path -----------------------------------------------------------

    async def submit(
        self,
        request: Union[BatchRequest, str],
        tier: Optional[str] = None,
        user: Optional[str] = None,
        context: Optional[SearchContext] = None,
        k_limit: Optional[int] = None,
    ) -> ServedResponse:
        """One request through the front door.

        Accepts a prepared :class:`BatchRequest`, or a SQL string with
        ``user=`` plus a ``context=`` the problem policy can price
        (an unconstrained context is rejected — Section 1's
        over-personalization degeneracy). Validation errors raise
        immediately; an admission rejection raises
        :class:`AdmissionRejected` carrying the tier's retry-after.
        Otherwise the call parks on the response future until its batch
        is flushed, solved, and classified.
        """
        if self._dispatcher is None or self._closing:
            raise RuntimeError("server is not running (use 'async with server')")
        if isinstance(request, str):
            if user is None:
                raise PreferenceError("a SQL-string submit needs user=")
            request = BatchRequest(
                user=user, query=request, context=context, k_limit=k_limit
            )
        tier_cfg = self.config.tier(tier if tier is not None else self.config.default_tier)
        # Validate before admitting: a bad request must fail its caller,
        # never poison the batch it would have joined.
        self.service.profile_of(request.user)
        if request.problem is None:
            if request.context is None:
                raise PreferenceError("a request needs a context or a problem")
            # Unknown contexts fail here; the resolved problem rides on
            # the request so the degradation policy sees what will run.
            request = replace(request, problem=problem_for_context(request.context))
        rejection = self.admission.try_admit(tier_cfg)
        if rejection is not None:
            self.scoreboard.record_rejection(tier_cfg.name)
            raise AdmissionRejected(rejection)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.batcher.add(request, tier_cfg, loop.time(), completion=future)
        self._wake.set()
        return await future

    # -- the dispatcher loop -------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            now = loop.time()
            batch = self.batcher.take_due(math.inf if self._flushing else now)
            if batch:
                await self._solve(batch, now)
                continue
            if self._flushing:  # everything flushed and answered
                self._flushing = False
                self._idle.set()
                if self._closing:
                    return
            deadline = self.batcher.next_deadline()
            self._wake.clear()
            try:
                await asyncio.wait_for(
                    self._wake.wait(), None if deadline is None else deadline - now
                )
            except asyncio.TimeoutError:
                pass

    async def _solve(self, batch: List[PendingRequest], dispatched_at: float) -> None:
        # Depth at dispatch = everything admitted and unanswered; that is
        # the load signal the degradation thresholds are written against.
        depth = self.admission.depth
        degradations = [
            self.policy.resolve(pending, depth, dispatched_at) for pending in batch
        ]
        requests = [
            replace(pending.request, algorithm=degradation.algorithm)
            if degradation.degraded
            else pending.request
            for pending, degradation in zip(batch, degradations)
        ]
        loop = asyncio.get_running_loop()
        try:
            responses = await loop.run_in_executor(
                None, self.service.request_many, requests
            )
        except Exception as error:  # noqa: BLE001 — every waiter must hear
            self.admission.release(len(batch))
            for pending in batch:
                if not pending.completion.done():
                    pending.completion.set_exception(error)
            return
        completed_at = loop.time()
        self.batches_dispatched += 1
        for pending, degradation, response in zip(batch, degradations, responses):
            if degradation.degraded:
                response = replace(response, degradation_reason=degradation.reason)
            latency_s = completed_at - pending.arrived_at
            status = classify(latency_s, pending.tier.deadline_s, response.degraded)
            served = ServedResponse(
                response=response,
                tier=pending.tier.name,
                status=status,
                latency_ms=1000.0 * latency_s,
                queue_ms=1000.0 * (dispatched_at - pending.arrived_at),
                deadline_ms=pending.tier.deadline_ms,
                batch_size=len(batch),
                algorithm=degradation.algorithm,
            )
            self.scoreboard.record(pending.tier.name, status, latency_s)
            self.requests_served += 1
            self.admission.release()
            if not pending.completion.done():
                pending.completion.set_result(served)

    # -- reporting -----------------------------------------------------------------

    def report(self) -> dict:
        """The per-tier scoreboard plus server-level counters."""
        return {
            "tiers": self.scoreboard.report(),
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected,
            "served": self.requests_served,
            "batches": self.batches_dispatched,
            "mean_batch": round(
                self.requests_served / self.batches_dispatched, 2
            )
            if self.batches_dispatched
            else 0.0,
            "downgrades": self.policy.downgrades,
        }
