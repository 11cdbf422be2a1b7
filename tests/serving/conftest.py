"""Fixtures for the serving suite: a registered service, a workload, and
a virtual-time event loop.

Everything here runs on the shared session-scoped movie database. The
sans-IO components take plain float ``now`` values; the server itself
reads time only from its event loop, so timeline tests run the real
:class:`~repro.serving.server.AsyncPersonalizationServer` on
:class:`VirtualTimeLoop` — no test in this directory may call
``time.sleep`` or depend on wall-clock time.
"""

from __future__ import annotations

import asyncio
import itertools
import selectors

import pytest

from repro.core.frontier_cache import FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.serving.config import ServingConfig, SlaTier
from repro.serving.server import AsyncPersonalizationServer
from repro.testing.differential import table1_problems

K_LIMIT = 5

# Small, round-number tiers the tests can reason about exactly: gold
# flushes within 50 ms and degrades past depth 4; bronze waits up to
# 500 ms and sheds first (budget 4 vs gold's 8).
GOLD = SlaTier(
    name="gold",
    priority=0,
    deadline_ms=200.0,
    queue_budget=8,
    retry_after_ms=50.0,
    degrade_queue_depth=4,
)
BRONZE = SlaTier(
    name="bronze",
    priority=1,
    deadline_ms=2000.0,
    queue_budget=4,
    retry_after_ms=250.0,
    degrade_queue_depth=2,
)


def tiny_config(**overrides) -> ServingConfig:
    defaults = dict(
        tiers=(GOLD, BRONZE),
        default_tier="bronze",
        max_batch=4,
        batch_window_ms=20.0,
        flush_deadline_fraction=0.25,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


@pytest.fixture()
def serving_service(movie_db, movie_profile):
    service = PersonalizationService(
        movie_db,
        param_cache=ParameterCache(),
        frontier_cache=FrontierCache(),
    )
    service.register("pat", movie_profile)
    return service


def make_requests(service, query, k_limit: int = K_LIMIT):
    """The six Table 1 problems as one batch, alternating between an
    explicit algorithm and service-side resolution."""
    probe = service.personalizer.personalize(
        query,
        service.profile_of("pat"),
        CQPProblem.problem2(cmax=float("inf")),
        algorithm="c_maxbounds",
        k_limit=k_limit,
    )
    problems = table1_problems(probe.preference_space)
    return [
        BatchRequest(
            user="pat",
            query=query,
            problem=problems[n],
            algorithm="c_boundaries" if n % 2 else None,
            k_limit=k_limit,
        )
        for n in sorted(problems)
    ]


@pytest.fixture()
def serving_requests(serving_service, movie_query):
    return make_requests(serving_service, movie_query)


class _JumpingSelector(selectors.DefaultSelector):
    """Polls instead of blocking; an idle wait jumps the clock instead."""

    now = 0.0

    def select(self, timeout=None):
        events = super().select(0)
        if not events and timeout != 0:
            if timeout is None:
                raise RuntimeError("deadlock: the loop is idle with nothing scheduled")
            self.now += timeout
        return events


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock moves only when the loop would block.

    ``time()`` is a virtual counter that starts at 0 and jumps straight
    to the next timer whenever nothing is ready, so timelines run
    instantly and exactly. ``run_in_executor`` runs the call inline and
    completes its future after the next scripted solve duration
    (``solve_s`` is cycled).
    """

    def __init__(self, solve_s=(0.0,)) -> None:
        self._clock = _JumpingSelector()
        super().__init__(self._clock)
        self._solve_s = itertools.cycle(solve_s)

    def time(self) -> float:
        return self._clock.now

    def run_in_executor(self, executor, fn, *args):
        future = self.create_future()
        try:
            settle, value = future.set_result, fn(*args)
        except Exception as error:  # noqa: BLE001 — delivered to the awaiter
            settle, value = future.set_exception, error
        self.call_later(
            next(self._solve_s), lambda: future.done() or settle(value)
        )
        return future


def run_virtual(coro, solve_s=(0.0,)):
    """Run ``coro`` to completion on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop(solve_s)
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def serve_timeline(service, arrivals, config, solve_s=(0.0,)):
    """Replay ``(offset_s, request, tier)`` arrivals against the real
    server on virtual time.

    Returns ``(outcomes, server)``: one outcome per arrival, in arrival
    order — a :class:`~repro.serving.server.ServedResponse` or the
    exception its submit raised.
    """

    async def scenario():
        async with AsyncPersonalizationServer(service, config) as server:

            async def arrive(offset, request, tier):
                await asyncio.sleep(offset)
                return await server.submit(request, tier=tier)

            outcomes = await asyncio.gather(
                *[arrive(*arrival) for arrival in arrivals], return_exceptions=True
            )
        return outcomes, server

    return run_virtual(scenario(), solve_s)
