"""Differential lattice runner: one oracle, every configuration.

The CQP stack runs one fast path per layer — the bitmask evaluation
kernel, the columnar engine, two caches, structural batching — each
proven equivalent in isolation. This module cross-validates them as a
*lattice*: every Table 1 problem is solved per algorithm in
{c_boundaries, c_maxbounds, exhaustive} at a handful of points —
caches off / on / warm, batched solving, a snapshot-warm boot, the
async front-end — each running a code path no other point runs, and
checked three ways:

* **against the oracle** — an independent brute-force enumeration
  (:func:`exhaustive_oracle`) that shares nothing with the search
  machinery beyond the state evaluator's arithmetic. Exact algorithms
  must match its optimum; the greedy ``c_maxbounds`` must stay feasible
  and never beat it.
* **against each other** — within one algorithm, every lattice point
  must produce a receipt (pref indices, doi, cost, size) **bit
  identical** to the cold reference, and on the service path identical
  *rows*: caches, batching and the serving front-end are claimed
  to be pure-reuse transformations, so any drift is a bug;
* **against the row engine** — each service reference answer's rows
  and ``blocks_read`` receipt must equal the row-at-a-time
  :class:`~repro.sql.executor.Executor` running the same personalized
  query. The reference point answers through ``service.request()``
  (a one-request batch on the ``request_many`` pipeline) one problem
  at a time with caches off, every other point through
  ``request_many``.

Every scenario is generated from one integer seed and every failure
message carries ``(seed, problem, lattice point)`` — rerunning the
runner with that seed reproduces the exact failing solve (see
docs/TESTING.md).

Run standalone: ``python -m repro.testing.differential --seeds 5``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import adapters
from repro.core.frontier_cache import FRONTIER_BYTES, FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.problem import CQPProblem, Parameter
from repro.core.solution import CQPSolution
from repro.testing import reference
from repro.testing.invariants import check_search_stats

_TOL = 1e-6

DOI_ALGORITHMS = ("c_boundaries", "c_maxbounds", "exhaustive")
EXACT_ALGORITHMS = frozenset({"c_boundaries", "exhaustive", "min_cost"})
# The algorithms whose phase 1 a FrontierCache serves by verdict span.
SPAN_SERVED = ("c_boundaries", "c_maxbounds")
CACHE_MODES = ("off", "on", "warm")


class DifferentialFailure(AssertionError):
    """A lattice point disagreed with the oracle or the reference.

    The message is a reproduction recipe: scenario seed, Table 1
    problem, and the exact lattice point that diverged.
    """


@dataclass(frozen=True)
class LatticePoint:
    """One configuration of the correctness lattice.

    ``batched`` (solver lattice only) routes the point's problems
    through one :func:`repro.core.adapters.solve_many` call instead of
    one solve per problem. ``snapshot`` (service lattice only) boots
    the point's service warm from a workload snapshot compiled on the
    spot (:func:`repro.workloads.compiler.compile_workload`) — restored
    pricing and frontiers must leave every response bit-identical to
    the cold services. ``serving`` (service lattice
    only) routes the point's batch through the asyncio front-end
    (:class:`~repro.serving.server.AsyncPersonalizationServer` in
    pass-through configuration) instead of calling ``request_many``
    directly — micro-batched admission and the executor bridge must
    change nothing about any answer.
    """

    algorithm: str
    cache: str = "off"
    batched: bool = False
    snapshot: str = "off"
    serving: str = "sync"

    def __str__(self) -> str:
        return "%s/cache=%s/batched=%s/snapshot=%s/serving=%s" % (
            self.algorithm,
            self.cache,
            self.batched,
            self.snapshot,
            self.serving,
        )


@dataclass
class Receipt:
    """The comparable fingerprint of one solve."""

    feasible: bool
    pref_indices: Tuple[int, ...] = ()
    doi: float = 0.0
    cost: float = 0.0
    size: float = 0.0

    @classmethod
    def of(cls, solution: Optional[CQPSolution]) -> "Receipt":
        if solution is None:
            return cls(feasible=False)
        return cls(
            feasible=True,
            pref_indices=solution.pref_indices,
            doi=solution.doi,
            cost=solution.cost,
            size=solution.size,
        )

    def __eq__(self, other) -> bool:  # bit-identical, no tolerance
        return (
            self.feasible == other.feasible
            and self.pref_indices == other.pref_indices
            and self.doi == other.doi
            and self.cost == other.cost
            and self.size == other.size
        )


@dataclass
class DifferentialReport:
    """What one runner invocation covered."""

    scenarios: int = 0
    solves: int = 0
    oracle_checks: int = 0
    receipt_checks: int = 0
    problems_covered: set = field(default_factory=set)

    def absorb(self, other: "DifferentialReport") -> None:
        self.scenarios += other.scenarios
        self.solves += other.solves
        self.oracle_checks += other.oracle_checks
        self.receipt_checks += other.receipt_checks
        self.problems_covered |= other.problems_covered


# -- scenarios ----------------------------------------------------------------------


def table1_problems(pspace) -> Dict[int, CQPProblem]:
    """All six Table 1 problems, scaled to one preference space.

    Constraint values sit at fixed fractions of the space's supreme
    cost and base size so every problem is *binding* but rarely
    infeasible — the regime the paper's experiments run in.
    """
    supreme = pspace.supreme_cost()
    base = pspace.base_size
    return {
        1: CQPProblem.problem1(smin=base * 0.05, smax=base * 0.9),
        2: CQPProblem.problem2(cmax=supreme * 0.5),
        3: CQPProblem.problem3(cmax=supreme * 0.5, smin=base * 0.05, smax=base * 0.9),
        4: CQPProblem.problem4(dmin=0.3),
        5: CQPProblem.problem5(dmin=0.3, smin=base * 0.05, smax=base * 0.9),
        6: CQPProblem.problem6(smin=base * 0.05, smax=base * 0.9),
    }


def synthetic_scenario(seed: int, k_min: int = 3, k_max: int = 7):
    """One seeded random preference space (no database needed)."""
    from repro.workloads.scenarios import make_synthetic_pspace

    rng = random.Random(seed)
    k = rng.randint(k_min, k_max)
    dois = [rng.uniform(0.05, 1.0) for _ in range(k)]
    costs = [rng.uniform(1.0, 120.0) for _ in range(k)]
    base_size = 1000.0
    sizes = [base_size * rng.uniform(0.05, 1.0) for _ in range(k)]
    return make_synthetic_pspace(dois, costs, sizes, base_size=base_size)


# -- the oracle ---------------------------------------------------------------------


def exhaustive_oracle(pspace, problem: CQPProblem) -> Receipt:
    """Brute-force optimum, independent of the search machinery.

    Enumerates every subset of P (the empty set too for the
    cost-minimization problems, matching the minimal-state search),
    prices each through the plain index-sequence formulas of
    :mod:`repro.testing.reference` — not the mask kernel the searches
    run on — and keeps the best fully feasible one.
    """
    evaluator = pspace.evaluator()
    k = pspace.k
    maximizing = problem.objective is Parameter.DOI
    best: Optional[Tuple[float, Tuple[int, ...]]] = None
    smallest = 1 if maximizing else 0
    for group in range(smallest, k + 1):
        for subset in combinations(range(k), group):
            doi = reference.doi(evaluator, subset)
            cost = reference.cost(evaluator, subset)
            size = reference.size(evaluator, subset)
            if not problem.satisfies(doi, cost, size):
                continue
            objective = doi if maximizing else -cost
            if best is None or objective > best[0]:
                best = (objective, subset)
    if best is None:
        return Receipt(feasible=False)
    indices = best[1]
    return Receipt(
        feasible=True,
        pref_indices=indices,
        doi=reference.doi(evaluator, indices),
        cost=reference.cost(evaluator, indices),
        size=reference.size(evaluator, indices),
    )


# -- the solver lattice (synthetic spaces, no execution) ----------------------------


def solver_lattice() -> List[LatticePoint]:
    """The solve-only lattice, four points per algorithm: the unbatched
    solve under each cache mode, then with caches on the batched
    :func:`adapters.solve_many` path."""
    points = []
    for algorithm in DOI_ALGORITHMS + ("min_cost",):
        for cache in CACHE_MODES:
            points.append(LatticePoint(algorithm=algorithm, cache=cache))
        points.append(LatticePoint(algorithm=algorithm, cache="on", batched=True))
    return points


def _solve_problems(
    pspace,
    problems: Sequence[CQPProblem],
    algorithm: str,
    cache: Optional[FrontierCache],
    batched: bool = False,
) -> List[Optional[CQPSolution]]:
    """The solves of one lattice point: one :func:`adapters.solve_many`
    call when ``batched`` (which dedupes and primes the stacked frontier
    kernel), else one :func:`adapters.solve` per problem."""
    if batched:
        return adapters.solve_many(
            pspace, list(problems), algorithm=algorithm, frontier_cache=cache
        )
    return [
        adapters.solve(pspace, problem, algorithm, frontier_cache=cache)
        for problem in problems
    ]


def _check_oracle(
    point: LatticePoint,
    problem_number: int,
    seed: int,
    oracle: Receipt,
    receipt: Receipt,
    maximizing: bool,
) -> None:
    """One lattice point's solve against the brute-force optimum."""
    context = "seed=%d problem=%d point=%s" % (seed, problem_number, point)
    if point.algorithm in EXACT_ALGORITHMS:
        if oracle.feasible != receipt.feasible:
            raise DifferentialFailure(
                "%s: oracle feasible=%s but solver said %s"
                % (context, oracle.feasible, receipt.feasible)
            )
        if not oracle.feasible:
            return
        objective = receipt.doi if maximizing else receipt.cost
        target = oracle.doi if maximizing else oracle.cost
        if abs(objective - target) > _TOL * max(1.0, abs(target)):
            raise DifferentialFailure(
                "%s: exact solver objective %.12g != oracle %.12g"
                % (context, objective, target)
            )
        return
    # Greedy: whatever it returns must be feasible and never beat the
    # oracle (it may return nothing even when the oracle found a state).
    if not receipt.feasible:
        return
    if not oracle.feasible:
        raise DifferentialFailure(
            "%s: greedy returned %r but the oracle says the problem is "
            "infeasible" % (context, receipt.pref_indices)
        )
    if maximizing and receipt.doi > oracle.doi + _TOL:
        raise DifferentialFailure(
            "%s: greedy doi %.12g beats the oracle optimum %.12g — the "
            "oracle (or feasibility) is wrong" % (context, receipt.doi, oracle.doi)
        )


def run_solver_lattice(
    seeds: Iterable[int],
    k_min: int = 3,
    k_max: int = 7,
    points: Optional[Sequence[LatticePoint]] = None,
) -> DifferentialReport:
    """Differential sweep over synthetic scenarios.

    For each seed: build a random space, compute the six oracle optima,
    then walk every lattice point. Receipts within one algorithm must be
    bit-identical to that algorithm's cold reference;
    exact algorithms must match the oracle.
    """
    report = DifferentialReport()
    lattice = list(points) if points is not None else solver_lattice()
    for seed in seeds:
        pspace = synthetic_scenario(seed, k_min=k_min, k_max=k_max)
        problems = table1_problems(pspace)
        numbers = sorted(problems)
        oracles = {n: exhaustive_oracle(pspace, problems[n]) for n in numbers}
        report.scenarios += 1
        report.problems_covered |= set(numbers)
        # One shared warm cache per scenario: the "warm" points ride
        # the phase-1 results this pre-pass left.
        warm_cache = FrontierCache()
        for number in numbers:
            pre_pass = dict.fromkeys(_algorithm_for(problems[number], a) for a in SPAN_SERVED)
            for algorithm in pre_pass:
                adapters.solve(
                    pspace, problems[number], algorithm, frontier_cache=warm_cache
                )
        references: Dict[Tuple[str, int], Receipt] = {}
        for point in lattice:
            cache = {
                "off": None,
                "on": FrontierCache(),
                "warm": warm_cache,
            }[point.cache]
            # Problems 4-6 run the dedicated minimal-state search
            # whatever the doi algorithm axis says (and vice versa);
            # each is covered by its own points.
            applicable = [
                number
                for number in numbers
                if _algorithm_for(problems[number], point.algorithm)
                == point.algorithm
            ]
            if not applicable:
                continue
            hits_before = warm_cache.hits
            solutions = _solve_problems(
                pspace,
                [problems[number] for number in applicable],
                point.algorithm,
                cache,
                batched=point.batched,
            )
            _check_span_served(point, seed, warm_cache.hits - hits_before)
            for number, solution in zip(applicable, solutions):
                problem = problems[number]
                maximizing = problem.objective is Parameter.DOI
                receipt = Receipt.of(solution)
                if solution is not None:
                    check_search_stats(solution.stats)
                report.solves += 1
                _check_oracle(
                    point, number, seed, oracles[number], receipt, maximizing
                )
                report.oracle_checks += 1
                key = (point.algorithm, number)
                reference = references.get(key)
                if reference is None:
                    references[key] = receipt
                else:
                    report.receipt_checks += 1
                    if receipt != reference:
                        raise DifferentialFailure(
                            "seed=%d problem=%d point=%s: receipt %r diverged "
                            "from the cold reference %r"
                            % (seed, number, point, receipt, reference)
                        )
    return report


def _check_span_served(point: LatticePoint, seed: int, hits: int) -> None:
    """A warm point of a span-served algorithm must hit its memo: its
    problems were all solved before, so a stored verdict span holds
    each limit."""
    if point.cache == "warm" and point.algorithm in SPAN_SERVED and hits < 1:
        raise DifferentialFailure(
            "seed=%d point=%s: no stored verdict span served a phase 1"
            % (seed, point)
        )


def _algorithm_for(problem: CQPProblem, requested: str) -> str:
    """Cost-minimization problems always run the minimal-state search."""
    if problem.objective is Parameter.DOI:
        return requested if requested != "min_cost" else "c_boundaries"
    return "min_cost"


# -- the service lattice (full pipeline, row-engine reference) -----------------------


def service_lattice() -> List[LatticePoint]:
    """The end-to-end lattice, five points per algorithm: the reference
    (caches off, answered one ``request()`` — a one-request batch — at
    a time), ``request_many`` with caches on and warm, a snapshot-warm
    boot and the async front-end. Receipts come from each response's
    ``outcome.solution``, whose ``stats`` carry the search counters."""
    points = []
    for algorithm in DOI_ALGORITHMS:
        for cache in CACHE_MODES:
            points.append(LatticePoint(algorithm=algorithm, cache=cache))
        points.append(
            LatticePoint(algorithm=algorithm, cache="on", snapshot="restored")
        )
        points.append(LatticePoint(algorithm=algorithm, cache="on", serving="async"))
    return points


def _check_row_engine(database, service, response, context: str) -> None:
    """A reference answer against the row-at-a-time engine.

    The service executes on the columnar engine only; its rows and its
    ``blocks_read`` receipt must equal what the reference
    :class:`~repro.sql.executor.Executor` returns for the same
    personalized query.
    """
    from repro.sql.executor import Executor

    query = response.outcome.personalized_query
    row = Executor(database).execute(query)
    if tuple(row.rows) != response.rows:
        raise DifferentialFailure(
            "%s: rows diverged from the row engine (%d vs %d rows)"
            % (context, len(response.rows), len(row.rows))
        )
    columnar = service.personalizer.execute(response.outcome)
    if columnar.blocks_read != row.blocks_read:
        raise DifferentialFailure(
            "%s: blocks_read %d diverged from the row engine's %d"
            % (context, columnar.blocks_read, row.blocks_read)
        )


def serve_batch_async(service, batch: Sequence) -> List:
    """Answer ``batch`` through the asyncio front-end, pass-through mode.

    Boots an :class:`~repro.serving.server.AsyncPersonalizationServer`
    over ``service`` in :meth:`~repro.serving.config.ServingConfig.
    passthrough` configuration (admit everything, window zero, no
    degradation), submits every request concurrently, and returns the
    unwrapped :class:`~repro.core.service.ServiceResponse` list in
    input order — the shape ``request_many`` would have returned, so
    lattice receipt checks run unchanged.
    """
    import asyncio

    from repro.serving.config import ServingConfig
    from repro.serving.server import AsyncPersonalizationServer

    config = ServingConfig.passthrough(len(batch))

    async def run() -> List:
        async with AsyncPersonalizationServer(service, config=config) as server:
            submits = [
                asyncio.ensure_future(server.submit(request)) for request in batch
            ]
            served = await asyncio.gather(*submits)
        return [item.response for item in served]

    return asyncio.run(run())


def run_service_lattice(
    database,
    profile,
    query,
    seed: int = 0,
    k_limit: int = 7,
    points: Optional[Sequence[LatticePoint]] = None,
    problems: Optional[Dict[int, CQPProblem]] = None,
) -> DifferentialReport:
    """Differential sweep through the full service pipeline.

    One (database, profile, query) scenario is pushed through
    :class:`~repro.core.service.PersonalizationService` at every lattice
    point; across points of one algorithm, the *rows* and the solution
    receipt must be identical, and exact algorithms must match the
    oracle on the extracted space. Each reference answer is also
    checked against the row engine. The reference point
    (``LatticePoint(algorithm)``: caches off) answers one
    problem at a time through ``service.request()``; every other point
    answers the whole batch through ``request_many`` or the async
    front-end. ``problems`` defaults to all six Table 1 instances
    scaled to the scenario's extracted space.
    """
    from repro.core.personalizer import Personalizer
    from repro.core.service import BatchRequest, PersonalizationService

    report = DifferentialReport(scenarios=1)
    # Extract once to scale constraints; the extraction is pure, so this
    # does not perturb any lattice point.
    probe = Personalizer(database).personalize(
        query,
        profile,
        CQPProblem.problem2(cmax=float("inf")),
        algorithm="c_maxbounds",
        k_limit=k_limit,
    )
    pspace = probe.preference_space
    if problems is None:
        problems = table1_problems(pspace)
    numbers = sorted(problems)
    report.problems_covered |= set(numbers)
    oracles = {n: exhaustive_oracle(pspace, problems[n]) for n in numbers}
    lattice = list(points) if points is not None else service_lattice()

    references: Dict[Tuple[str, int], Tuple[Receipt, Tuple]] = {}
    for point in lattice:
        snapshot = None
        if point.snapshot == "restored":
            # Compile this scenario's workload on the spot: the point's
            # service must answer every request out of *restored* state
            # yet stay bit-identical to the cold points.
            from repro.workloads.compiler import compile_workload

            snapshot = compile_workload(
                database,
                [profile],
                [query],
                [problems[number] for number in numbers],
                algorithms=[
                    _algorithm_for(problems[number], point.algorithm)
                    for number in numbers
                ],
                k_limit=k_limit,
            )
        service = PersonalizationService(
            database,
            param_cache=ParameterCache(0 if point.cache == "off" else 65536),
            frontier_cache=FrontierCache(0 if point.cache == "off" else FRONTIER_BYTES),
            snapshot=snapshot,
        )
        service.register("lattice-user", profile)
        batch = [
            BatchRequest(
                user="lattice-user",
                query=query,
                problem=problems[number],
                algorithm=_algorithm_for(problems[number], point.algorithm),
                k_limit=k_limit,
            )
            for number in numbers
        ]
        passes = 2 if point.cache == "warm" else 1
        for _ in range(passes):
            if point.serving == "async":
                responses = serve_batch_async(service, batch)
            elif point == LatticePoint(point.algorithm):
                responses = [
                    service.request(
                        request.user,
                        request.query,
                        problem=request.problem,
                        algorithm=request.algorithm,
                        k_limit=request.k_limit,
                    )
                    for request in batch
                ]
            else:
                responses = service.request_many(batch)
        if point.cache == "warm" and service.param_cache.walk_counters()["hits"] < 1:
            # The warm point asks one (user, query) pair under several
            # extraction keys, twice over: the walk memo must serve.
            raise DifferentialFailure(
                "seed=%d point=%s: the walk memo served no extraction" % (seed, point)
            )
        # ...and on the second pass a stored span must serve phase 1.
        _check_span_served(point, seed, service.frontier_cache.hits)
        for number, response in zip(numbers, responses):
            problem = problems[number]
            maximizing = problem.objective is Parameter.DOI
            receipt = Receipt.of(response.outcome.solution)
            report.solves += 1
            if response.outcome.solution is not None:
                check_search_stats(response.outcome.solution.stats)
            if _algorithm_for(problem, point.algorithm) == point.algorithm:
                _check_oracle(
                    point, number, seed, oracles[number], receipt, maximizing
                )
                report.oracle_checks += 1
            key = (_algorithm_for(problem, point.algorithm), number)
            fingerprint = (receipt, response.rows)
            reference = references.get(key)
            if reference is None:
                _check_row_engine(
                    database,
                    service,
                    response,
                    "seed=%d problem=%d point=%s" % (seed, number, point),
                )
                references[key] = fingerprint
            else:
                report.receipt_checks += 1
                if fingerprint[0] != reference[0]:
                    raise DifferentialFailure(
                        "seed=%d problem=%d point=%s: receipt %r diverged "
                        "from reference %r"
                        % (seed, number, point, fingerprint[0], reference[0])
                    )
                if fingerprint[1] != reference[1]:
                    raise DifferentialFailure(
                        "seed=%d problem=%d point=%s: rows diverged "
                        "(%d vs %d rows)"
                        % (seed, number, point, len(fingerprint[1]), len(reference[1]))
                    )
    return report


# -- standalone entry point ---------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="synthetic scenarios")
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--k-max", type=int, default=7)
    parser.add_argument(
        "--service", action="store_true", help="also run the end-to-end service lattice"
    )
    options = parser.parse_args(argv)
    report = run_solver_lattice(
        range(options.seed_base, options.seed_base + options.seeds),
        k_max=options.k_max,
    )
    if options.service:
        from repro.datasets.movies import MovieDatasetConfig, build_movie_database
        from repro.sql.parser import parse_select
        from repro.workloads.profiles import generate_profile

        database = build_movie_database(
            MovieDatasetConfig(
                n_movies=300, n_directors=60, n_actors=120, cast_per_movie=2
            ),
            seed=7,
        )
        service_report = run_service_lattice(
            database,
            generate_profile(database, seed=21),
            parse_select("select title from MOVIE"),
            seed=7,
        )
        report.absorb(service_report)
    print(
        "differential lattice OK: %d scenario(s), %d solve(s), %d oracle "
        "check(s), %d receipt check(s), problems %s"
        % (
            report.scenarios,
            report.solves,
            report.oracle_checks,
            report.receipt_checks,
            sorted(report.problems_covered),
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
