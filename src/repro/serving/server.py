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
  — then awaits
  :meth:`~repro.core.service.PersonalizationService.request_many`
  through ``loop.run_in_executor`` so the event loop never blocks, and
  classifies, accounts, and completes the futures.

One solve is in flight at a time: the service's batch path is not
reentrant and solves its supergroups one after another, so concurrency
lives in the queue, exactly where admission control and degradation
can see it. Every timestamp is the event
loop's ``time()``, so tests drive this same server on a virtual-time
loop.

**Heap discipline.** A full (generation-2) garbage collection stalls
every outstanding request, and its length grows with the objects the
collector tracks. The set-up heap — profiles, statistics, encoded
columns, a snapshot's caches — is built before any server starts and
lives as long as the service, so :meth:`start` collects once and
freezes it (``gc.freeze``): later collections skip it. :meth:`stop`
unfreezes it, so a heap dropped after its server stops can be
collected again. A server that finds the heap already frozen leaves
the freeze to whoever made it. The collector is never disabled. While
a server runs, a ``gc.callbacks`` hook counts the full collections and
their longest pause for :meth:`report`.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
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


class _FullCollections:
    """A ``gc.callbacks`` hook: count generation-2 collections and
    time the longest (wall clock, in whichever thread collected)."""

    def __init__(self) -> None:
        self.count = 0
        self.max_pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.count += 1
            pause = time.perf_counter() - self._started
            self.max_pause_s = max(self.max_pause_s, pause)


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
        self._full_collections = _FullCollections()
        self._froze_heap = False

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> "AsyncPersonalizationServer":
        if self._dispatcher is not None:
            raise RuntimeError("server already started")
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._flushing = self._closing = False
        if gc.get_freeze_count() == 0:
            gc.collect()
            gc.freeze()
            self._froze_heap = True
        gc.callbacks.append(self._full_collections)
        self._dispatcher = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Flush everything pending, answer it, and end the loop."""
        if self._dispatcher is None:
            return
        self._flushing = self._closing = True
        self._wake.set()
        try:
            await self._dispatcher
        finally:
            self._dispatcher = None
            gc.callbacks.remove(self._full_collections)
            if self._froze_heap:
                gc.unfreeze()
                self._froze_heap = False

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
            "gc": {
                "full_collections": self._full_collections.count,
                "max_full_pause_ms": round(
                    1000.0 * self._full_collections.max_pause_s, 3
                ),
            },
        }
