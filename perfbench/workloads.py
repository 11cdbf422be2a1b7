"""The workloads: set-up, timed phase and correctness gate.

* ``saturate`` — closed loop: one coroutine client per request slot of a
  full batch (``ServingConfig().max_batch`` clients) on one event loop,
  each sending a bundle of requests that share an extraction key to
  :class:`AsyncPersonalizationServer` (default :class:`ServingConfig`)
  over a cold service.
* ``cold`` — one synchronous caller of ``PersonalizationService.request``
  on never-repeated (user, query, problem) keys: no server, no
  batching, no request-level reuse.

The database, profiles and query templates are the same on every seed;
the seed drives the traffic: which users and queries are asked, under
which constraints and tiers (see :mod:`perfbench.streams`).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import streams
from perfbench.drivers import Outcome, closed_loop, sync_loop
from perfbench.gate import Gate, fingerprint

GATE_SAMPLE = 48  # distinct keys re-solved on a fresh service per phase
SETUP_REPEATS = {"saturate": 5, "cold": 9}


def dataset():
    from repro.datasets.movies import MovieDatasetConfig

    return MovieDatasetConfig(n_movies=1500, n_directors=300, n_actors=700)


def make_problem(spec_problem):
    from repro.core.problem import CQPProblem

    kind = spec_problem[0]
    if kind == "p2":
        return CQPProblem.problem2(spec_problem[1])
    if kind == "p3":
        _, cmax, smin, smax = spec_problem
        return CQPProblem.problem3(cmax, smin=smin, smax=smax)
    if kind == "p4":
        return CQPProblem.problem4(spec_problem[1])
    raise ValueError("unknown problem %r" % (spec_problem,))


def user_name(index: int) -> str:
    return "u%02d" % index


@dataclass
class Env:
    """One set-up: the database, the users, and the service under test."""

    database: object
    profiles: list
    queries: list
    service: object
    timings: Dict[str, float] = field(default_factory=dict)

    def request_for(self, spec, algorithm: Optional[str] = None):
        from repro.core.service import BatchRequest

        return BatchRequest(
            user=user_name(spec.user),
            query=self.queries[spec.query],
            problem=make_problem(spec.problem),
            algorithm=algorithm,
            k_limit=spec.k_limit,
        )

    def fresh_service(self, user: int):
        """A default service over the same data with one user and empty
        caches: the reference the served answers are checked against."""
        from repro.core.service import PersonalizationService

        service = PersonalizationService(self.database)
        service.register(user_name(user), self.profiles[user])
        return service


def set_up(workload: str) -> Env:
    """Build everything up to the first timed request, timing each step."""
    from repro.core.service import PersonalizationService
    from repro.datasets.movies import build_movie_database
    from repro.workloads.profiles import generate_profiles
    from repro.workloads.queries import generate_queries

    clock = time.perf_counter
    started = clock()
    database = build_movie_database(dataset(), seed=streams.POPULATION_SEED)
    timings = {"db.build_s": clock() - started}
    saturate = workload == "saturate"
    queries = generate_queries(
        count=streams.SATURATE_QUERIES if saturate else streams.N_QUERIES,
        seed=streams.POPULATION_SEED,
    )
    profiles = generate_profiles(
        database,
        count=streams.SATURATE_USERS if saturate else streams.N_USERS,
        seed=streams.POPULATION_SEED,
    )
    service = PersonalizationService(database)
    for index, profile in enumerate(profiles):
        service.register(user_name(index), profile)
    timings["setup_s"] = clock() - started
    return Env(database, profiles, queries, service, timings)


def set_up_repeated(workload: str):
    """Set up ``SETUP_REPEATS`` times, one after another, each on a heap
    cleared of the one before; median timings and the last Env."""
    runs = []
    for _ in range(SETUP_REPEATS[workload]):
        env = None
        gc.collect()
        env = set_up(workload)
        runs.append(env.timings)
    timings = {
        name: statistics.median(run[name] for run in runs) for name in runs[-1]
    }
    return env, timings


def compile_and_boot(env: Env, work_dir: str) -> Dict[str, float]:
    """Compile a small working set over ``env``'s data, save it as a
    snapshot and boot a service from it: the compiler and snapshot
    layers' timings."""
    from repro.core.service import PersonalizationService
    from repro.storage.snapshot import save_snapshot
    from repro.workloads.compiler import compile_workload

    clock = time.perf_counter
    timings = {}
    mark = clock()
    compiled = compile_workload(
        env.database,
        env.profiles[: streams.COMPILE_USERS],
        env.queries[: streams.COMPILE_QUERIES],
        [make_problem(problem) for problem in streams.COMPILE_PROBLEMS],
        k_limit=streams.COMPILE_K,
    )
    timings["compile.s"] = clock() - mark
    path = os.path.join(work_dir, "snapshot")
    shutil.rmtree(path, ignore_errors=True)
    mark = clock()
    saved = save_snapshot(compiled, path)
    timings["snapshot.save_s"] = clock() - mark
    timings["snapshot.bytes"] = float(saved["bytes"])
    mark = clock()
    PersonalizationService(env.database, snapshot=path)
    timings["snapshot.boot_s"] = clock() - mark
    return timings


@dataclass(frozen=True)
class Answer:
    """What the benchmark keeps of one answered request."""

    print_: tuple  # gate fingerprint
    algorithm: Optional[str]  # as dispatched (None = service default)
    frame_hits: int
    frame_misses: int
    queue_ms: float = 0.0


def record_response(response, algorithm=None, queue_ms=0.0) -> Answer:
    return Answer(
        fingerprint(response), algorithm, response.frame_cache_hits,
        response.frame_cache_misses, queue_ms,
    )


def record_served(served) -> Answer:
    return record_response(served.response, served.algorithm, served.queue_ms)


@dataclass
class Phase:
    """What one timed phase produced."""

    outcomes: List[Outcome]
    wall_s: float
    cpu_s: float
    server: Optional[Dict] = None
    cache_deltas: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _cache_counters(service) -> Dict[str, Dict[str, int]]:
    return {
        "param_cache": dict(service.param_cache.counters()),
        "frontier_cache": dict(service.frontier_cache.counters()),
    }


def run_phase(workload: str, env: Env, seed: int, seconds: float, tracer=None) -> Phase:
    """Run one timed phase of ``seconds`` against ``env``'s service."""
    # Garbage left by earlier set-ups is collected now, not by a pause
    # in the middle of the timed phase.
    gc.collect()
    clock = time.perf_counter
    before = _cache_counters(env.service)
    server_report = None
    if tracer is not None:
        tracer.open_root()
    cpu_start = time.process_time()
    start = clock()
    if workload == "cold":
        rids = itertools.count(1)
        service = env.service

        def call(spec):
            if tracer is not None:
                tracer.set_rid(next(rids))
            request = env.request_for(spec)
            return service.request(
                request.user, request.query, problem=request.problem,
                k_limit=request.k_limit,
            )

        outcomes = sync_loop(
            call, streams.cold_stream(seed), start + seconds, clock, record_response
        )
    else:
        outcomes, server_report = asyncio.run(
            _saturate(env, seed, start + seconds, clock)
        )
    wall_s = clock() - start
    cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.close_root()
    after = _cache_counters(env.service)
    deltas = {
        cache: {name: after[cache][name] - before[cache].get(name, 0)
                for name in ("hits", "misses")}
        for cache in after
    }
    return Phase(outcomes, wall_s, cpu_s, server_report, deltas)


async def _saturate(env, seed, stop_at, clock):
    from repro.serving.config import ServingConfig
    from repro.serving.server import AsyncPersonalizationServer

    config = ServingConfig()
    async with AsyncPersonalizationServer(env.service, config) as server:

        async def submit(spec):
            return await server.submit(env.request_for(spec), tier=spec.tier)

        outcomes = await closed_loop(
            submit, streams.saturate_bundles(seed), config.max_batch,
            stop_at, clock, record_served,
        )
        return outcomes, server.report()


def check(workload: str, env: Env, phase: Phase, seed: int) -> Gate:
    """Run the correctness gate over one phase's answers."""
    gate = Gate()
    for outcome in phase.outcomes:
        if outcome.ok:
            spec, answer = outcome.spec, outcome.value
            key = (spec.user, spec.query, spec.problem, spec.k_limit, answer.algorithm)
            gate.observe(key, answer.print_)
    if workload == "cold" and gate.repeats:
        gate.errors.append("cold workload repeated %d request keys" % gate.repeats)

    def resolve(key):
        user, query, problem, k_limit, algorithm = key
        request = env.request_for(streams.Spec(user, query, problem, k_limit=k_limit))
        return fingerprint(
            env.fresh_service(user).request(
                request.user, request.query, problem=request.problem,
                algorithm=algorithm, k_limit=request.k_limit,
            )
        )

    gate.verify(resolve, GATE_SAMPLE, seed)
    return gate
