"""Ablation benches for the design choices DESIGN.md calls out.

* **Structure vs generic metaheuristics** (Section 2's claim): the
  paper's structured algorithms against simulated annealing / tabu /
  genetic baselines on the same instance — time *and* quality.
* **Shared scans** (Figure 15's modeling assumption): executing the same
  personalized query with and without a per-statement scan cache shows
  when Formula (6)'s sum-of-sub-queries overestimates a buffered engine.
* **Pointer trick vs region search** (the C_FINDMAXDOI second phase):
  the Problem 2 fast path against the Problem 3 region search on the
  same boundaries.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_CONFIG
from repro.core import adapters
from repro.core.problem import CQPProblem
from repro.core.rewriter import QueryRewriter
from repro.sql.executor import Executor

K = 12
STRUCTURED = ("c_maxbounds", "d_heurdoi", "c_boundaries")
GENERIC = ("simulated_annealing", "tabu", "genetic")


@pytest.mark.parametrize("algorithm", STRUCTURED + GENERIC)
def test_ablation_structured_vs_generic(benchmark, bench_workbench, algorithm):
    pspace = bench_workbench.preference_space(0, 0).truncated(K)
    problem = CQPProblem.problem2(cmax=0.5 * pspace.supreme_cost())
    reference = adapters.solve(pspace, problem, "c_boundaries")

    solution = benchmark(adapters.solve, pspace, problem, algorithm)

    benchmark.extra_info["ablation"] = "structured_vs_generic"
    benchmark.extra_info["found"] = solution is not None
    if solution is not None and reference is not None:
        benchmark.extra_info["quality_gap"] = reference.doi - solution.doi
        assert solution.doi <= reference.doi + 1e-9


@pytest.mark.parametrize("shared_scans", [False, True], ids=["per-subquery", "shared"])
def test_ablation_shared_scans(benchmark, bench_workbench, shared_scans):
    pspace = bench_workbench.preference_space(0, 0).truncated(K)
    personalized = QueryRewriter(
        pspace.query, schema=bench_workbench.database.schema
    ).personalized_query(pspace.paths)
    executor = Executor(bench_workbench.database, shared_scans=shared_scans)

    result = benchmark(executor.execute, personalized)

    benchmark.extra_info["ablation"] = "shared_scans"
    benchmark.extra_info["blocks_read"] = result.blocks_read
    benchmark.extra_info["measured_ms"] = result.elapsed_ms
    if shared_scans:
        # A buffered engine reads each base relation at most once.
        total_blocks = sum(
            bench_workbench.database.blocks(name)
            for name in bench_workbench.database.relation_names
        )
        assert result.blocks_read <= total_blocks


@pytest.mark.parametrize("use_indexes", [False, True], ids=["full-scan", "hash-index"])
def test_ablation_indexes(benchmark, bench_workbench, use_indexes):
    """Section 7.1 assumption (c) dropped: hash indexes on the selection
    attributes turn equality sub-queries into probes. Shows how much the
    no-index assumption inflates personalized-query cost."""
    database = bench_workbench.database
    if use_indexes and database.index_on("GENRE", "genre") is None:
        for relation, attribute in (
            ("GENRE", "genre"),
            ("DIRECTOR", "name"),
            ("ACTOR", "name"),
        ):
            database.create_index(relation, attribute)
    pspace = bench_workbench.preference_space(0, 0).truncated(K)
    personalized = QueryRewriter(
        pspace.query, schema=database.schema
    ).personalized_query(pspace.paths)
    executor = Executor(database, use_indexes=use_indexes)

    result = benchmark(executor.execute, personalized)

    benchmark.extra_info["ablation"] = "indexes"
    benchmark.extra_info["blocks_read"] = result.blocks_read
    benchmark.extra_info["measured_ms"] = result.elapsed_ms


@pytest.mark.parametrize("mode", ["pointer", "region"])
def test_ablation_second_phase(benchmark, bench_workbench, mode):
    from repro.core.algorithms.base import find_max_doi_below
    from repro.core.algorithms.c_boundaries import find_boundaries
    from repro.core.space import SpaceBundle
    from repro.core.stats import SearchStats

    pspace = bench_workbench.preference_space(0, 0).truncated(K)
    cmax = 0.5 * pspace.supreme_cost()
    if mode == "pointer":
        problem = CQPProblem.problem2(cmax=cmax)
    else:
        problem = CQPProblem.problem3(cmax=cmax, smin=0.0, smax=pspace.base_size)
    space = SpaceBundle(pspace, problem).cost_space()
    boundaries = find_boundaries(space, SearchStats())

    best = benchmark(find_max_doi_below, space, boundaries, SearchStats())

    benchmark.extra_info["ablation"] = "second_phase"
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["boundaries"] = len(boundaries)
    assert best is not None


@pytest.mark.parametrize("cached", [False, True], ids=["plain-eval", "cached-eval"])
def test_ablation_evaluation_cache(benchmark, bench_workbench, cached):
    """Section 5.2.1's caching device ("costs that may be re-used are
    cached"): the same exact search with and without the state-parameter
    cache."""
    from repro.core.algorithms.base import get_algorithm
    from repro.core.space import SpaceBundle

    pspace = bench_workbench.preference_space(0, 0).truncated(K)
    problem = CQPProblem.problem2(cmax=0.5 * pspace.supreme_cost())

    def solve():
        bundle = SpaceBundle(pspace, problem)
        if not cached:
            bundle.evaluator = pspace.evaluator()
        return get_algorithm("c_boundaries").solve(bundle.cost_space())

    solution = benchmark(solve)

    benchmark.extra_info["ablation"] = "evaluation_cache"
    benchmark.extra_info["cached"] = cached
    assert solution is not None
