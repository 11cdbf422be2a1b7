"""Performance smoke check (opt-in, markers ``perfsmoke`` / ``tier2``).

A tiny K=15 workload asserting the cache machinery actually pays:

* warm-cache preference-space extraction must beat cold extraction by a
  sanity margin (pricing dominates extraction, so a working cache shows
  up immediately);
* a replayed constraint sweep with a shared frontier cache must beat
  cold solves, with the hit counters proving phase 1 was skipped;
* the cache counters must prove *why* — the warm pass re-prices
  nothing;
* columnar execution must beat the row engine on the same
  personalized queries, with identical rows and receipts;
* the vectorized kernels must beat the row engine 4x on a larger
  query set;
* FINDBOUNDARY on int masks must beat the tuple-state reference sweep
  by 1.5x on K = 30 movie-database spaces;
* one stacked :func:`~repro.core.adapters.solve_many` call must beat
  the cold solve-per-problem loop on the same stream, with identical
  receipts.

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


MASK_SWEEP_SPEEDUP = 1.5  # mask FINDBOUNDARY vs the tuple reference


@pytest.mark.perfsmoke
@pytest.mark.tier2
def test_mask_sweep_beats_reference_sweep():
    """The search-kernel gate: FINDBOUNDARY on int masks must beat the
    tuple-state reference sweep it replaced by ``MASK_SWEEP_SPEEDUP`` on
    movie-database spaces at K = 30, under the tight cost budgets the
    benchmark's cold Problem 3 requests use. Both run on fresh spaces
    (cold evaluator caches) and must record the same boundaries; the
    correctness tests alone would not notice the sweep getting slower."""
    from repro.core.algorithms.c_boundaries import find_boundaries
    from repro.core.space import SpaceBundle
    from repro.core.stats import SearchStats
    from repro.testing import reference

    database, profile, _ = _workload()
    constraints = CQPProblem.problem2(cmax=400.0).constraints
    pspaces = [
        extract_preference_space(
            database, query, profile, constraints=constraints, k_limit=30
        )
        for query in generate_queries(count=2, seed=0)
    ]
    assert all(pspace.k == 30 for pspace in pspaces)
    budgets = (20.0, 24.0, 28.0, 32.0)

    def sweep(loop):
        spaces = [
            SpaceBundle(pspace, CQPProblem.problem2(cmax)).cost_space()
            for pspace in pspaces
            for cmax in budgets
        ]
        started = time.perf_counter()
        boundaries = [loop(space, SearchStats()) for space in spaces]
        return time.perf_counter() - started, boundaries

    mask_times, reference_times = [], []
    for _ in range(ROUNDS):
        elapsed, expected = sweep(reference.find_boundaries)
        reference_times.append(elapsed)
        elapsed, got = sweep(find_boundaries)
        mask_times.append(elapsed)
        assert got == expected

    mask, tuple_ = min(mask_times), min(reference_times)
    assert mask * MASK_SWEEP_SPEEDUP <= tuple_, (
        "mask sweep %.4fs not %.1fx faster than the reference %.4fs"
        % (mask, MASK_SWEEP_SPEEDUP, tuple_)
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
    """The execution-engine gate: the columnar engine must not be slower
    than the row engine on the smoke workload's personalized queries —
    and must return the same rows for the same receipts."""
    from collections import Counter

    from repro.core.personalizer import Personalizer
    from repro.sql.columnar import ColumnarExecutor
    from repro.sql.executor import Executor
    from repro.testing.reference import in_plan_order

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
    # executor, and rows in order plus the full receipt of the row
    # engine run in the plan's join order (the FROM-order reference may
    # join in a different order, which moves rows_processed but never
    # blocks or results).
    for target in targets:
        row_result = row_engine.execute(target)
        planned = row_engine.execute(in_plan_order(database, target))
        col_result = columnar.execute(target)
        assert Counter(col_result.rows) == Counter(row_result.rows)
        assert col_result.blocks_read == row_result.blocks_read
        assert col_result.rows == planned.rows
        for name in ("blocks_read", "io_ms", "cpu_ms", "rows_processed"):
            assert getattr(col_result, name) == getattr(planned, name), name

    def run_row():
        for target in targets:
            row_engine.execute(target)

    def run_columnar():
        for target in targets:
            columnar.execute(target)

    row_times, columnar_times = [], []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        run_row()
        row_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        run_columnar()
        columnar_times.append(time.perf_counter() - started)

    row_best, columnar_best = min(row_times), min(columnar_times)
    assert columnar_best <= row_best * WARM_MARGIN, (
        "columnar %.4fs not faster than the row engine %.4fs"
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
    # c_boundaries: the one Table 1 algorithm that exercises both
    # caches (pricing, frontier memos) on the serve path.
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
    for cache in ("param_cache", "frontier_cache"):
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
    """The vectorization gate: the typed kernels (dictionary-encoded
    comparisons, selection vectors, factorized joins) must beat the
    tuple-at-a-time interpreter by 4x on the smoke workload's
    personalized queries."""
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
    cold_engine = ColumnarExecutor(database)

    def timed(run) -> float:
        # CPU time of this process: another process sharing the host
        # does not stretch it, as it stretches wall time.
        started = time.process_time()
        run()
        return time.process_time() - started

    # The two engines alternate within each round, so a slow stretch
    # of the host lands on both sides instead of on one side's rounds.
    row_times, cold_times = [], []
    for _ in range(ROUNDS):
        row_times.append(timed(lambda: [row_engine.execute(t) for t in targets]))
        cold_times.append(timed(lambda: [cold_engine.execute(t) for t in targets]))
    row_best, cold_best = min(row_times), min(cold_times)
    # Measured ~6.3x on this workload; 4x is the "vectorization still
    # works" floor, not a performance target.
    assert cold_best * 4.0 <= row_best, (
        "columnar-cold %.4fs is less than 4x faster than the row engine %.4fs"
        % (cold_best, row_best)
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
def test_solve_many_beats_the_cold_serial_loop():
    """The stacked frontier kernel's bargain: one
    :func:`~repro.core.adapters.solve_many` call over the whole stream
    must beat the cold solve-per-problem loop it replaces."""
    from repro.core import adapters

    pspace, stream = _ladder()

    started = time.perf_counter()
    cold_solutions = [
        adapters.solve(pspace, problem, "c_boundaries") for problem in stream
    ]
    cold = time.perf_counter() - started

    started = time.perf_counter()
    solutions = adapters.solve_many(pspace, stream, algorithm="c_boundaries")
    batched = time.perf_counter() - started

    assert _receipts(solutions) == _receipts(cold_solutions)
    assert batched <= cold, (
        "solve_many %.4fs not faster than the cold loop %.4fs" % (batched, cold)
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
