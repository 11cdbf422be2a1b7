"""The workload compiler: fleet-scale offline precomputation.

A personalization service with a large registered fleet answers its
online requests out of two caches — per-path pricing
(:class:`~repro.core.param_cache.ParameterCache`) and canonical boundary
frontiers (:class:`~repro.core.frontier_cache.FrontierCache`). Both
memoize pure functions of *(query, profile content, database)*, which
means their steady-state contents are computable **offline**, before
the first request arrives. :func:`compile_workload` does exactly that,
in two passes:

1. **Intern the fleet** (:class:`~repro.core.interning.ProfileInterner`)
   — a million users collapse to the distinct profile *contents* among
   them; everything downstream runs once per canonical profile, not
   once per user.

2. **Precompute the search layer** — one *unit* per (canonical profile,
   query template, extraction cluster): extract the preference space
   (pricing every path through a unit-local parameter cache) and solve
   the cluster's Table 1 problems through
   :func:`repro.core.adapters.solve_many`, which dedupes and primes the
   stacked batch kernel, into a unit-local frontier cache. Units are
   independent, so they fan out across a
   :class:`~repro.core.algorithms.scheduler.SolveScheduler` on any
   backend — under the process backend each unit ships its two cache
   ``snapshot()`` blobs home (both are picklable and
   process-independent by construction) and the parent merges them via
   ``restore()`` under the live statistics token. Spaces that coincide
   across canonical profiles collapse once more at this layer: the
   frontier store keys on the space *signature*, and the telemetry
   reports the fleet-to-signature compression.

The result is a :class:`~repro.storage.snapshot.CompiledWorkload` —
persist it with :func:`~repro.storage.snapshot.save_snapshot` and boot
:class:`~repro.core.service.PersonalizationService` with ``snapshot=``
to serve warm from the first request.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import adapters
from repro.core.algorithms.scheduler import SolveScheduler
from repro.core.frontier_cache import FrontierCache, space_signature
from repro.core.interning import ProfileInterner
from repro.core.param_cache import ParameterCache
from repro.core.preference_space import extract_preference_space
from repro.core.problem import Constraints, CQPProblem, Parameter
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import SelectQuery
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.storage.database import Database
from repro.storage.snapshot import CompiledWorkload


# -- problem (de)serialization -------------------------------------------------------


def problem_to_spec(problem: CQPProblem) -> Dict:
    """A JSON-able description of one Table 1 problem (see the snapshot
    manifest's ``meta`` block)."""
    c = problem.constraints
    return {
        "objective": problem.objective.value,
        "cmax": c.cmax,
        "dmin": c.dmin,
        "smin": c.smin,
        "smax": c.smax,
    }


def problem_from_spec(spec: Dict) -> CQPProblem:
    """Rebuild a problem from :func:`problem_to_spec` output."""
    return CQPProblem(
        Parameter(spec["objective"]),
        Constraints(
            cmax=spec.get("cmax"),
            dmin=spec.get("dmin"),
            smin=spec.get("smin"),
            smax=spec.get("smax"),
        ),
    )


def _resolve_algorithm(
    problem: CQPProblem, requested: Optional[str], default_algorithm: str
) -> str:
    """The same problem-aware defaulting :class:`Personalizer` applies,
    so compiled frontiers match what serving will actually run."""
    if requested is not None:
        return requested
    if not problem.constraints.has_size_bounds:
        return default_algorithm
    return adapters.recommended_algorithm(problem)


# -- the compiler --------------------------------------------------------------------


def compile_workload(
    database: Database,
    profiles: Sequence[UserProfile],
    queries: Sequence[Union[str, SelectQuery]],
    problems: Sequence[CQPProblem],
    algorithms: Optional[Sequence[Optional[str]]] = None,
    default_algorithm: str = "c_maxbounds",
    k_limit: Optional[int] = None,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
    parallelism: int = 1,
    backend: str = "auto",
    meta: Optional[Dict] = None,
) -> CompiledWorkload:
    """Compile a fleet's steady-state cache contents offline.

    ``profiles`` is the full fleet (with repetition — interning is the
    compiler's first job); ``queries`` the template workload;
    ``problems`` the Table 1 instances requests will carry, with
    ``algorithms`` resolved exactly as the service resolves them (pass
    the same ``default_algorithm`` the serving side uses).
    ``parallelism``/``backend`` fan the per-unit solve work out across
    a scheduler; results are bit-identical on every backend because
    units only memoize pure functions.
    """
    if not database.analyzed:
        database.analyze()
    token = database.stats_token
    started = time.perf_counter()

    parsed: List[SelectQuery] = [
        parse_select(query) if isinstance(query, str) else query for query in queries
    ]
    problems = list(problems)
    if algorithms is None:
        algorithms = [None] * len(problems)
    resolved = [
        _resolve_algorithm(problem, requested, default_algorithm)
        for problem, requested in zip(problems, algorithms)
    ]

    # Pass 1: intern the fleet down to canonical profile contents.
    interner = ProfileInterner()
    for profile in profiles:
        interner.intern(profile)
    canonical = interner.canonical_profiles()
    intern_seconds = time.perf_counter() - started

    # Extraction clusters: the extractor prunes on (cmax, smin), so
    # problems sharing that key share one extraction (the same grouping
    # the service's structural batching applies).
    clusters: Dict[Tuple, List[int]] = {}
    for index, problem in enumerate(problems):
        key = (problem.constraints.cmax, problem.constraints.smin)
        clusters.setdefault(key, []).append(index)
    cluster_lists = list(clusters.values())

    units: List[Tuple[UserProfile, SelectQuery, Tuple[int, ...]]] = [
        (profile, query, tuple(cluster))
        for profile in canonical
        for query in parsed
        for cluster in cluster_lists
    ]

    def compile_unit(unit):
        """Extract + solve one (canonical profile, query, cluster).

        Runs against *unit-local* caches so the work is shippable: the
        returned blobs are exactly the caches' persistence format,
        picklable and keyed process-independently, whether this ran on
        the calling thread or in a forked worker.
        """
        profile, query, cluster = unit
        unit_param = ParameterCache()
        unit_frontier = FrontierCache()
        unit_frontier.validate(token)
        cluster_problems = [problems[i] for i in cluster]
        pspace = extract_preference_space(
            database,
            query,
            profile,
            constraints=cluster_problems[0].constraints,
            algebra=algebra,
            k_limit=k_limit,
            param_cache=unit_param,
        )
        signature = None
        if pspace.k > 0:
            signature = space_signature(pspace)
            adapters.solve_many(
                pspace,
                cluster_problems,
                algorithms=[resolved[i] for i in cluster],
                frontier_cache=unit_frontier,
            )
        return signature, unit_param.snapshot(), unit_frontier.snapshot()

    solve_started = time.perf_counter()
    scheduler = SolveScheduler(max(1, parallelism), backend=backend)
    results = scheduler.map(compile_unit, units, fallback=compile_unit)

    # Merge every unit's blobs into the compiled caches. Duplicate
    # signatures across units overwrite with identical frontiers
    # (store() is idempotent for equal content), so merge order never
    # shows in the result.
    param_cache = ParameterCache()
    frontier_cache = FrontierCache(capacity=max(256, 2 * len(units)))
    frontier_cache.validate(token)
    signatures = set()
    for signature, param_state, frontier_state in results:
        if signature is not None:
            signatures.add(signature)
        param_cache.restore(param_state, token)
        frontier_cache.restore(frontier_state, token)
    solve_seconds = time.perf_counter() - solve_started

    fleet_requests = interner.fleet_size * len(parsed) * len(cluster_lists)
    telemetry = {
        "units": len(units),
        "clusters": len(cluster_lists),
        "queries": len(parsed),
        "distinct_signatures": len(signatures),
        "fleet_requests": fleet_requests,
        "profile_compression": interner.compression,
        "signature_compression": (
            fleet_requests / len(signatures) if signatures else 1.0
        ),
        "param_cache": param_cache.counters(),
        "frontier_cache": frontier_cache.counters(),
        "compile_seconds": {
            "intern": intern_seconds,
            "solve": solve_seconds,
            "total": time.perf_counter() - started,
        },
    }

    compiled_meta = dict(meta or {})
    compiled_meta.setdefault("queries", [to_sql(query) for query in parsed])
    compiled_meta.setdefault("problems", [problem_to_spec(p) for p in problems])
    compiled_meta.setdefault("algorithms", list(resolved))
    compiled_meta.setdefault("k_limit", k_limit)
    compiled_meta.setdefault("default_algorithm", default_algorithm)

    return CompiledWorkload(
        fingerprint=database.fingerprint,
        stats_version=database.stats_version,
        meta=compiled_meta,
        interning=interner.report(),
        telemetry=telemetry,
        param_state=param_cache.snapshot(),
        frontier_state=frontier_cache.snapshot(),
    )
