"""Performance smoke check (opt-in, markers ``perfsmoke`` / ``tier2``).

A tiny K=15 workload asserting the cache machinery actually pays:

* warm-cache preference-space extraction must beat cold extraction by a
  sanity margin (pricing dominates extraction, so a working cache shows
  up immediately);
* a replayed constraint sweep with a shared frontier cache must beat
  cold solves, with the hit counters proving phase 1 was skipped;
* the cache counters must prove *why* — the warm pass re-prices
  nothing;
* columnar execution with shared base frames must beat the row engine
  on the same personalized queries, with identical rows and receipts
  (the gate that frame reuse stays profitable);
* the vectorized kernels *alone* (frame reuse off) must beat the row
  engine 4x, the byte-budgeted frame cache must keep its eviction rate
  under 10% on a service-shaped batch, and the process backend's
  batched path must track the warm single-core batch within pool
  overhead (beating it outright where there are cores to win with);
* ``parallelism=4`` must never be slower than ``parallelism=1`` on the
  same stream (the ``auto`` backend degrades to serial whenever a pool
  cannot pay, including on single-CPU hosts), and the process backend's
  structurally batched :class:`SolvePlan` path must beat the cold
  serial loop it replaces — identical receipts both times.

Timing assertions are kept deliberately loose (best-of-N, 0.9x margin)
so the check catches "the cache stopped working", not scheduler noise.

Run it::

    PYTHONPATH=src python -m pytest benchmarks/check_perf_smoke.py -m perfsmoke
    PYTHONPATH=src python benchmarks/check_perf_smoke.py   # same, scripted
"""

from __future__ import annotations

import time

import pytest

from repro.core.param_cache import ParameterCache
from repro.core.preference_space import extract_preference_space
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.workloads.profiles import generate_profile
from repro.workloads.queries import generate_queries

K = 15
ROUNDS = 3  # best-of, to shrug off scheduler noise
WARM_MARGIN = 0.9  # warm must be at least 10% faster than cold
TINY_DATASET = MovieDatasetConfig(n_movies=1200, n_directors=200, n_actors=500)


def _workload():
    database = build_movie_database(TINY_DATASET, seed=0)
    database.analyze()
    profile = generate_profile(database, seed=0)
    query = generate_queries(count=1, seed=0)[0]
    return database, profile, query


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_warm_extraction_beats_cold():
    database, profile, query = _workload()
    constraints = CQPProblem.problem2(cmax=400.0).constraints

    def extract(cache):
        started = time.perf_counter()
        extract_preference_space(
            database, query, profile,
            constraints=constraints, k_limit=K, param_cache=cache,
        )
        return time.perf_counter() - started

    cold_times, warm_times = [], []
    warm_cache = ParameterCache()
    extract(warm_cache)  # prime once
    for _ in range(ROUNDS):
        cold_times.append(extract(ParameterCache()))
        warm_times.append(extract(warm_cache))

    # Deterministic part: the warm passes re-priced nothing new.
    counters = warm_cache.counters()
    assert counters["hits"] > 0
    assert counters["misses"] == counters["entries"]  # only the priming pass missed

    cold, warm = min(cold_times), min(warm_times)
    assert warm <= cold * WARM_MARGIN, (
        "warm extraction %.4fs not faster than cold %.4fs by the %.0f%% margin"
        % (warm, cold, 100 * (1 - WARM_MARGIN))
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_warm_sweep_beats_cold_sweep():
    """The frontier-cache gate: a replayed constraint sweep with a
    shared :class:`FrontierCache` must beat cold solves — because the
    counters prove the warm passes hit stored frontiers and skip the
    boundary sweep (phase 1) outright."""
    import random

    from repro.core import adapters
    from repro.core.frontier_cache import FrontierCache
    from repro.workloads.scenarios import make_synthetic_pspace

    rng = random.Random(3)
    k = 14
    pspace = make_synthetic_pspace(
        [round(rng.uniform(0.2, 1.0), 3) for _ in range(k)],
        [round(rng.uniform(5.0, 60.0), 1) for _ in range(k)],
    )
    supreme = pspace.supreme_cost()
    stream = [
        CQPProblem.problem2(cmax=(0.5 - 0.03 * step) * supreme) for step in range(10)
    ]

    def sweep(cache):
        started = time.perf_counter()
        solutions = [
            adapters.solve(pspace, problem, "c_boundaries", frontier_cache=cache)
            for problem in stream
        ]
        return time.perf_counter() - started, solutions

    warm_cache = FrontierCache()
    _, primer = sweep(warm_cache)  # prime once

    cold_times, warm_times = [], []
    cold_solutions = warm_solutions = None
    for _ in range(ROUNDS):
        elapsed, cold_solutions = sweep(None)
        cold_times.append(elapsed)
        elapsed, warm_solutions = sweep(warm_cache)
        warm_times.append(elapsed)

    # Deterministic part: identical solutions, and the warm passes hit
    # stored frontiers for every limit — phase 1 never ran again.
    def keys(solutions):
        return [
            None if s is None else (s.pref_indices, s.doi, s.cost)
            for s in solutions
        ]

    assert keys(warm_solutions) == keys(cold_solutions) == keys(primer)
    assert warm_cache.counters()["hits"] >= ROUNDS * len(stream)
    assert all(s.stats.frontier_cache_hits == 1 for s in warm_solutions if s)
    warm_examined = sum(s.stats.states_examined for s in warm_solutions if s)
    cold_examined = sum(s.stats.states_examined for s in cold_solutions if s)
    assert warm_examined < cold_examined

    cold, warm = min(cold_times), min(warm_times)
    assert warm <= cold * WARM_MARGIN, (
        "warm sweep %.4fs not faster than cold %.4fs by the %.0f%% margin"
        % (warm, cold, 100 * (1 - WARM_MARGIN))
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_batched_beats_request_loop():
    database, profile, query = _workload()
    problem = CQPProblem.problem2(cmax=400.0)

    def service():
        svc = PersonalizationService(database)
        svc.register("al", profile)
        return svc

    stream = [
        BatchRequest("al", query, problem=problem, k_limit=K) for _ in range(8)
    ]

    loop_service = service()
    started = time.perf_counter()
    for req in stream:
        loop_service.request(req.user, req.query, problem=req.problem, k_limit=req.k_limit)
    loop_time = time.perf_counter() - started

    batch_service = service()
    started = time.perf_counter()
    responses = batch_service.request_many(stream)
    batch_time = time.perf_counter() - started

    # Deterministic part: one group, one shared outcome.
    assert all(r.outcome is responses[0].outcome for r in responses)
    assert batch_time <= loop_time * WARM_MARGIN, (
        "batched %.4fs not faster than the request loop %.4fs"
        % (batch_time, loop_time)
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_columnar_shared_beats_row_engine():
    """The execution-engine gate: columnar + shared base frames must not
    be slower than the row engine on the smoke workload's personalized
    queries — and must return the same rows for the same receipts."""
    from collections import Counter

    from repro.core.personalizer import Personalizer
    from repro.sql.columnar import ColumnarExecutor, FrameCache
    from repro.sql.executor import Executor
    from repro.sql.plan_executor import PlanExecutor
    from repro.sql.planner import Planner

    database, profile, _ = _workload()
    problem = CQPProblem.problem2(cmax=400.0)
    personalizer = Personalizer(database)
    targets = [
        personalizer.personalize(query, profile, problem, k_limit=K).personalized_query
        for query in generate_queries(count=3, seed=0)
    ]

    row_engine = Executor(database)
    columnar = ColumnarExecutor(database)

    # Deterministic part first: same rows and blocks as the reference
    # executor, bit-identical receipt vs the plan interpreter (the
    # FROM-order reference may join in a different order, which moves
    # rows_processed but never blocks or results), frames shared.
    cache = FrameCache()
    for target in targets:
        row_result = row_engine.execute(target)
        planned = PlanExecutor(database).execute(Planner(database).plan(target))
        col_result = columnar.execute(target, frame_cache=cache)
        assert Counter(col_result.rows) == Counter(row_result.rows)
        assert col_result.blocks_read == row_result.blocks_read
        assert col_result.rows == planned.rows
        assert col_result.blocks_read == planned.blocks_read
        assert col_result.rows_processed == planned.rows_processed
    assert cache.hits > 0

    def run_row():
        for target in targets:
            row_engine.execute(target)

    def run_columnar_shared():
        shared = FrameCache()
        for target in targets:
            columnar.execute(target, frame_cache=shared)

    row_times, columnar_times = [], []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        run_row()
        row_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        run_columnar_shared()
        columnar_times.append(time.perf_counter() - started)

    row_best, columnar_best = min(row_times), min(columnar_times)
    assert columnar_best <= row_best * WARM_MARGIN, (
        "columnar+shared %.4fs not faster than the row engine %.4fs"
        % (columnar_best, row_best)
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_snapshot_warm_boot_beats_uncompiled_cold_start():
    """The workload-compiler gate: a fresh service booted from a
    compiled snapshot must answer the workload's first requests faster
    than an uncompiled fresh service — with bit-identical responses and
    the counters proving *why* (every warm request is answered without
    a single cache miss)."""
    from repro.testing.differential import Receipt
    from repro.workloads.compiler import compile_workload
    from repro.workloads.queries import generate_queries as _queries

    database, profile, _ = _workload()
    queries = _queries(count=3, seed=0)
    problem = CQPProblem.problem2(cmax=400.0)
    # c_boundaries: the one Table 1 algorithm that exercises all three
    # caches (pricing, frontier memos, frames) on the serve path.
    compiled = compile_workload(
        database, [profile], queries, [problem],
        algorithms=["c_boundaries"], k_limit=K,
    )

    def first_touch(snapshot):
        service = PersonalizationService(database, snapshot=snapshot)
        service.register("al", profile)
        started = time.perf_counter()
        responses = [
            service.request(
                "al", query, problem=problem,
                algorithm="c_boundaries", k_limit=K,
            )
            for query in queries
        ]
        elapsed = time.perf_counter() - started
        prints = [
            (r.outcome.sql, Receipt.of(r.outcome.solution), r.rows)
            for r in responses
        ]
        return elapsed, prints, service

    cold_times, warm_times = [], []
    cold_prints = warm_prints = warm_service = None
    for _ in range(ROUNDS):
        elapsed, prints, _service = first_touch(None)
        cold_times.append(elapsed)
        assert cold_prints is None or prints == cold_prints
        cold_prints = prints
        elapsed, prints, warm_service = first_touch(compiled)
        warm_times.append(elapsed)
        assert warm_prints is None or prints == warm_prints
        warm_prints = prints

    # Deterministic part: identical responses, and the warm service
    # never missed — the compiler precomputed everything this workload
    # touches.
    assert warm_prints == cold_prints
    telemetry = warm_service.cache_telemetry()
    for cache in ("param_cache", "frontier_cache", "frame_cache"):
        assert telemetry[cache]["hits"] > 0, cache
        assert telemetry[cache]["misses"] == 0, cache

    cold, warm = min(cold_times), min(warm_times)
    assert warm <= cold * WARM_MARGIN, (
        "snapshot-warm cold start %.4fs not faster than uncompiled %.4fs"
        % (warm, cold)
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_columnar_cold_beats_row_by_4x():
    """The vectorization gate: even *without* frame reuse, the typed
    kernels (dictionary-encoded comparisons, selection vectors,
    factorized joins) must beat the tuple-at-a-time interpreter by 4x
    on the smoke workload's personalized queries. This isolates the
    kernels themselves — ``test_columnar_shared_beats_row_engine``
    above is allowed to win via caching; this one is not."""
    from repro.core.personalizer import Personalizer
    from repro.sql.columnar import ColumnarExecutor
    from repro.sql.executor import Executor

    database, profile, _ = _workload()
    problem = CQPProblem.problem2(cmax=400.0)
    personalizer = Personalizer(database)
    targets = [
        personalizer.personalize(query, profile, problem, k_limit=K).personalized_query
        for query in generate_queries(count=6, seed=0)
    ]

    row_engine = Executor(database)
    cold_engine = ColumnarExecutor(database, frame_reuse=False)

    def best(run) -> float:
        times = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        return min(times)

    row_best = best(lambda: [row_engine.execute(t) for t in targets])
    cold_best = best(lambda: [cold_engine.execute(t) for t in targets])
    # Measured ~6.3x on this workload; 4x is the "vectorization still
    # works" floor, not a performance target.
    assert cold_best * 4.0 <= row_best, (
        "columnar-cold %.4fs is less than 4x faster than the row engine %.4fs"
        % (cold_best, row_best)
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_frame_cache_eviction_rate_stays_low():
    """The byte-budget gate: a batch sized like the service's real
    groups must fit the cost-aware frame cache almost entirely — an
    eviction rate at or above 10% means the budget heuristics regressed
    into thrash (the failure mode the byte-budgeted policy replaced)."""
    database, profile, query = _workload()
    problem = CQPProblem.problem2(cmax=400.0)
    service = PersonalizationService(database)
    service.register("al", profile)
    stream = [
        BatchRequest("al", q, problem=problem, k_limit=K)
        for q in generate_queries(count=6, seed=0)
        for _ in range(4)
    ]
    responses = service.request_many(stream)
    frames = responses[0].cache_telemetry["frame_cache"]
    assert frames["puts"] > 0
    assert frames["eviction_rate"] < 0.10, (
        "frame cache thrashing: eviction rate %.3f (%s evictions / %s puts)"
        % (frames["eviction_rate"], frames["evictions"], frames["puts"])
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_multicore_batch_tracks_warm_batch():
    """The process-backend bargain at the service level: with the
    slimmed outcome envelopes (workers ship solutions + paths, the
    parent rebuilds the rest), ``parallelism=4`` batches must beat the
    warm single-core batch wherever there are cores to win with, and on
    a single-CPU host must stay within pool overhead of it."""
    import os

    from repro.core.algorithms.scheduler import fork_available

    if not fork_available():
        pytest.skip("no fork on this platform")

    database, profile, query = _workload()
    problem = CQPProblem.problem2(cmax=400.0)
    stream = [
        BatchRequest("al", q, problem=problem, k_limit=K)
        for q in generate_queries(count=6, seed=0)
        for _ in range(4)
    ]

    def batch_time(service) -> float:
        service.request_many(stream)  # warm-up pass primes the caches
        started = time.perf_counter()
        responses = service.request_many(stream)
        assert len(responses) == len(stream)
        return time.perf_counter() - started

    warm_service = PersonalizationService(database)
    warm_service.register("al", profile)
    warm = batch_time(warm_service)

    multicore_service = PersonalizationService(
        database, parallelism=4, backend="process"
    )
    multicore_service.register("al", profile)
    multicore = batch_time(multicore_service)

    # Fixed pool spin-up (forking 4 workers, attaching shared columns)
    # that this deliberately tiny stream cannot amortize; the bench's
    # 600-request stream is where the ratio itself is judged.
    pool_grace = 0.25
    if (os.cpu_count() or 1) > 1:
        assert multicore <= warm + pool_grace, (
            "multicore batch %.4fs slower than warm single-core batch %.4fs"
            % (multicore, warm)
        )
    else:
        # One CPU: a pool cannot win, only lose by its overhead. The
        # slimmed envelopes bound that loss — anything past 2x means
        # serialization weight crept back into the worker results.
        assert multicore <= warm * 2.0 + pool_grace, (
            "single-CPU pool overhead out of bounds: multicore %.4fs vs "
            "warm %.4fs" % (multicore, warm)
        )


def _ladder(seed: int = 3, k: int = 14, steps: int = 10, repeats: int = 3):
    """A replayed descending-cmax ladder over one synthetic space."""
    import random

    from repro.workloads.scenarios import make_synthetic_pspace

    rng = random.Random(seed)
    pspace = make_synthetic_pspace(
        [round(rng.uniform(0.2, 1.0), 3) for _ in range(k)],
        [round(rng.uniform(5.0, 60.0), 1) for _ in range(k)],
    )
    supreme = pspace.supreme_cost()
    ladder = [
        CQPProblem.problem2(cmax=(0.5 - 0.03 * step) * supreme)
        for step in range(steps)
    ]
    return pspace, ladder * repeats


def _receipts(solutions):
    return [
        None if s is None else (s.pref_indices, s.doi, s.cost)
        for s in solutions
    ]


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_parallelism_never_slower_than_serial():
    """The auto backend's bargain: asking for workers can only help.

    On a single-CPU host (or any batch where a pool cannot pay) the
    scheduler resolves ``auto`` to the serial loop, so ``parallelism=4``
    must track ``parallelism=1`` within noise — never a pool-overhead
    regression."""
    from repro.core import adapters
    from repro.core.algorithms.scheduler import SolveScheduler

    pspace, stream = _ladder()
    solve = lambda problem: adapters.solve(  # noqa: E731
        pspace, problem, "c_boundaries"
    )

    serial_times, wide_times = [], []
    serial_solutions = wide_solutions = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        serial_solutions = SolveScheduler(1).map(solve, stream)
        serial_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        wide_solutions = SolveScheduler(4, backend="auto").map(solve, stream)
        wide_times.append(time.perf_counter() - started)

    assert _receipts(wide_solutions) == _receipts(serial_solutions)
    serial, wide = min(serial_times), min(wide_times)
    # 10% + 50ms of grace: this is a no-regression gate, not a race.
    assert wide <= serial * 1.10 + 0.05, (
        "parallelism=4 (%.4fs) slower than parallelism=1 (%.4fs)"
        % (wide, serial)
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_process_plans_beat_the_cold_serial_loop():
    """The process backend's bargain: structurally batched SolvePlans
    (stacked frontier kernel + per-worker caches) must beat the cold
    solve-per-problem loop they replace, pool spin-up included —
    even on one CPU, because the batching does the heavy lifting."""
    from repro.core import adapters
    from repro.core.algorithms.scheduler import (
        SolvePlan,
        SolveScheduler,
        fork_available,
    )

    if not fork_available():
        pytest.skip("no fork on this platform")

    pspace, stream = _ladder()

    started = time.perf_counter()
    cold_solutions = [
        adapters.solve(pspace, problem, "c_boundaries") for problem in stream
    ]
    cold = time.perf_counter() - started

    parallelism = 4
    chunks = [stream[i::parallelism] for i in range(parallelism)]
    plans = [
        SolvePlan(pspace, tuple(chunk), algorithm="c_boundaries")
        for chunk in chunks if chunk
    ]
    started = time.perf_counter()
    with SolveScheduler(parallelism, backend="process") as scheduler:
        solved = scheduler.solve_plans(plans)
    batched = time.perf_counter() - started

    solutions = [None] * len(stream)
    for offset, chunk_solutions in enumerate(solved):
        solutions[offset::parallelism] = chunk_solutions
    assert _receipts(solutions) == _receipts(cold_solutions)
    assert batched <= cold, (
        "process-backend plans %.4fs not faster than the cold loop %.4fs"
        % (batched, cold)
    )


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_served_p95_beats_unbatched():
    """The serving layer's bargain: under a burst, micro-batching must
    cut tail latency. The same request burst goes through the async
    server twice — once with coalescing on (one ``request_many``
    supergroup) and once with ``max_batch=1`` (one solve dispatch per
    request, solves serialized). Queue time counts for both, so the
    batched p95 wins exactly as far as batching amortizes solves and
    shares duplicate groups. Answers must match bit-identically."""
    import asyncio

    from repro.serving.config import ServingConfig
    from repro.serving.loadgen import run_burst
    from repro.serving.server import AsyncPersonalizationServer
    from repro.testing.differential import Receipt

    database, profile, query = _workload()
    problem = CQPProblem.problem2(cmax=400.0)
    service = PersonalizationService(database)
    service.register("al", profile)
    stream = [
        BatchRequest("al", query, problem=problem, k_limit=K) for _ in range(12)
    ]
    # Warm caches (measure serving, not pricing) and pin the answer
    # every served response must match bit-identically.
    reference = Receipt.of(service.request_many(stream)[0].outcome.solution)

    def burst(capacity: int):
        config = ServingConfig.passthrough(32)
        if capacity == 1:
            config = ServingConfig.passthrough(1)

        async def run():
            async with AsyncPersonalizationServer(service, config=config) as server:
                result = await run_burst(server, stream, tier="bronze")
                return result, result.summary(server)

        return asyncio.run(run())

    batched_times, unbatched_times = [], []
    for _ in range(ROUNDS):
        batched_result, batched = burst(32)
        _, unbatched = burst(1)
        batched_times.append(batched["tiers"]["bronze"]["p95_ms"])
        unbatched_times.append(unbatched["tiers"]["bronze"]["p95_ms"])
        assert batched["served"] == len(stream) == unbatched["served"]
        for _, _, item in batched_result.served:
            assert Receipt.of(item.response.outcome.solution) == reference

    batched_p95 = min(batched_times)
    unbatched_p95 = min(unbatched_times)
    assert batched_p95 <= unbatched_p95 * WARM_MARGIN, (
        "served p95 %.2f ms (batched) not faster than %.2f ms (unbatched)"
        % (batched_p95, unbatched_p95)
    )


if __name__ == "__main__":
    raise SystemExit(
        pytest.main([__file__, "-m", "perfsmoke", "-v"])
    )
