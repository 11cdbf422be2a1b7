"""Heap discipline on the request path.

A full garbage collection stalls every outstanding request, and its
length grows with what the collector tracks. These tests pin what keeps
that small: the request path leaves no reference cycles and keeps few
tracked objects per request, the server freezes the set-up heap only
while it runs, and nothing disables the collector.
"""

from __future__ import annotations

import asyncio
import gc
import types

import pytest

from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.serving.config import ServingConfig
from repro.serving.server import AsyncPersonalizationServer
from repro.workloads.profiles import generate_profiles
from repro.workloads.queries import generate_queries

# Objects the reachability walk does not enter: a class or a function
# leads to its module's globals, and from there to everything.
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
)


def _collect() -> None:
    # CPython untracks a tuple of untracked items only when a collection
    # examines it, innermost first, so nested keys need a few passes.
    for _ in range(3):
        gc.collect()


def _tracked_reachable(root) -> int:
    """How many objects the collector tracks that ``root`` reaches."""
    seen = set()
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _OPAQUE) or not gc.is_tracked(obj):
            continue
        count += 1
        stack.extend(gc.get_referents(obj))
    return count


def _from_repro(obj) -> bool:
    """An instance of a repro type, or a function defined in repro."""
    if isinstance(obj, types.FunctionType):
        module = obj.__module__
    else:
        module = type(obj).__module__
    return (module or "").startswith("repro")


@pytest.fixture(scope="module")
def population(movie_db):
    """60 users and 6 queries: 360 (user, query) pairs."""
    profiles = generate_profiles(movie_db, count=60, seed=7)
    return profiles, generate_queries(count=6, seed=3)


def _service(movie_db, profiles) -> PersonalizationService:
    service = PersonalizationService(movie_db)
    for index, profile in enumerate(profiles):
        service.register("u%d" % index, profile)
    return service


def _pairs(profiles, queries):
    return [
        (user, query) for query in range(len(queries)) for user in range(len(profiles))
    ]


class TestRequestPath:
    def test_a_served_batch_leaves_no_repro_garbage(
        self, serving_service, serving_requests
    ):
        # The batch carries all six Table 1 problems, so Problem 4's
        # minimal-state search runs too.
        _collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            serving_service.request_many(list(serving_requests))
            gc.collect()
            leaked = [obj for obj in gc.garbage if _from_repro(obj)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []

    def test_never_repeated_requests_keep_few_tracked_objects(
        self, movie_db, population
    ):
        profiles, queries = population
        service = _service(movie_db, profiles)
        pairs = _pairs(profiles, queries)

        def serve(first, last):
            for start in range(first, last, 20):
                batch = []
                for index in range(start, min(last, start + 20)):
                    user, query = pairs[index]
                    problem = (
                        CQPProblem.problem2(cmax=30.0 + index % 7)
                        if index % 2
                        else CQPProblem.problem4(dmin=0.9)
                    )
                    batch.append(
                        BatchRequest(
                            user="u%d" % user,
                            query=queries[query],
                            problem=problem,
                            k_limit=8,
                        )
                    )
                service.request_many(batch)

        serve(0, 40)  # fills the fixed-size pools
        _collect()
        before = _tracked_reachable(service)
        served = 300
        serve(40, 40 + served)
        _collect()
        grown = _tracked_reachable(service) - before
        # Plans and pricing keys hold none; what is left is one frontier
        # memo per new space and the bounded pools.
        assert grown < 4 * served, grown


class TestServerHeap:
    def test_freeze_is_released_after_each_server(
        self, serving_service, serving_requests
    ):
        before = gc.get_freeze_count()
        for _ in range(2):
            seen = []

            async def scenario():
                async with AsyncPersonalizationServer(
                    serving_service, ServingConfig.passthrough(1)
                ) as server:
                    seen.append(gc.get_freeze_count())
                    await server.submit(serving_requests[0])

            asyncio.run(scenario())
            if before == 0:
                assert seen[0] > 0  # the set-up heap was frozen
            assert gc.get_freeze_count() == before

    def test_server_never_disables_the_collector(
        self, serving_service, serving_requests, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        enabled = []
        answer = serving_service.request_many

        def watched(requests):
            enabled.append(gc.isenabled())
            return answer(requests)

        monkeypatch.setattr(serving_service, "request_many", watched)

        async def scenario():
            async with AsyncPersonalizationServer(
                serving_service, ServingConfig.passthrough(len(serving_requests))
            ) as server:
                await asyncio.gather(
                    *[server.submit(request) for request in serving_requests]
                )

        asyncio.run(scenario())
        assert calls == []
        assert enabled and all(enabled)


@pytest.mark.tier2
def test_served_heap_levels_off(movie_db, population):
    """Saturate-shaped bundles through the server in two equal halves,
    each asking every (user, query) pair of a fixed population twice:
    the unfrozen tracked objects grow no more in the second half, when
    every cache has its working set, than in the first."""
    profiles, queries = population
    service = _service(movie_db, profiles)
    pairs = _pairs(profiles[:30], queries[:4])
    clients, rounds_per_half = 8, 2

    def bundle(index):
        # Alternating shapes, two problems sharing one extraction each:
        # Problem 4 at K = 12 under two dmin, Problem 3 at K = 8 under one
        # cmax and two smax (saturate's P3_K is below its P4 K as well).
        user, query = pairs[index % len(pairs)]
        if (index // len(pairs) + index) % 2:
            problems = [CQPProblem.problem4(dmin) for dmin in (0.9, 0.95)]
            k_limit = 12
        else:
            cmax = 20.0 + index % 11
            problems = [
                CQPProblem.problem3(cmax, smin=1.0, smax=smax) for smax in (300.0, 600.0)
            ]
            k_limit = 8
        return [
            BatchRequest(
                user="u%d" % user, query=queries[query], problem=problem, k_limit=k_limit
            )
            for problem in problems
        ]

    async def half(server, first):
        work = iter(range(first, first + rounds_per_half * len(pairs)))

        async def client():
            for index in work:
                await asyncio.gather(
                    *[server.submit(request, tier="gold") for request in bundle(index)]
                )

        await asyncio.gather(*[client() for _ in range(clients)])

    async def scenario():
        counts = []
        async with AsyncPersonalizationServer(service, ServingConfig()) as server:
            for first in (0, rounds_per_half * len(pairs)):
                _collect()
                counts.append(len(gc.get_objects()))  # frozen objects excluded
                await half(server, first)
            _collect()
            counts.append(len(gc.get_objects()))
        return counts

    start, middle, end = asyncio.run(scenario())
    first_half, second_half = middle - start, end - middle
    assert second_half <= first_half, (first_half, second_half)
