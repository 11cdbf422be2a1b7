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
   query template): the unit walks the pair unconstrained once, pricing
   every path through a unit-local parameter cache (so the prices cover
   every path a served walk of it reaches). Then, for each extraction
   cluster, the serving pipeline,
   :meth:`~repro.core.personalizer.Personalizer.personalize_many`,
   cuts the cluster's preference space out of that walk and solves the
   cluster's Table 1 problems through
   :func:`repro.core.adapters.solve_many`, which dedupes and primes the
   stacked batch kernel, into a unit-local frontier cache. Each unit
   returns its two cache ``snapshot()`` blobs
   and the compiler merges them via ``restore()`` under the live
   statistics token, so merge order never shows in the result. Spaces
   that coincide across canonical profiles collapse once more at this
   layer: the frontier store keys on the space *digest*
   (:func:`~repro.core.preference_space.space_digest`), and the
   telemetry reports the fleet-to-signature compression (distinct
   digests).

The result is a :class:`~repro.storage.snapshot.CompiledWorkload` —
persist it with :func:`~repro.storage.snapshot.save_snapshot` and boot
:class:`~repro.core.service.PersonalizationService` with ``snapshot=``
to serve warm from the first request.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import adapters
from repro.core.frontier_cache import FrontierCache, state_nbytes
from repro.core.interning import ProfileInterner
from repro.core.param_cache import ParameterCache
from repro.core.personalizer import Personalizer
from repro.core.preference_space import extraction_key, space_digest
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


# -- the compiler --------------------------------------------------------------------


def compile_workload(
    database: Database,
    profiles: Sequence[UserProfile],
    queries: Sequence[Union[str, SelectQuery]],
    problems: Sequence[CQPProblem],
    algorithms: Optional[Sequence[Optional[str]]] = None,
    k_limit: Optional[int] = None,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
    meta: Optional[Dict] = None,
) -> CompiledWorkload:
    """Compile a fleet's steady-state cache contents offline.

    ``profiles`` is the full fleet (with repetition — interning is the
    compiler's first job); ``queries`` the template workload;
    ``problems`` the Table 1 instances requests will carry, with
    ``algorithms`` defaulted exactly as the service defaults them
    (:func:`~repro.core.adapters.recommended_algorithm`).
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
        requested if requested is not None else adapters.recommended_algorithm(problem)
        for problem, requested in zip(problems, algorithms)
    ]

    # Pass 1: intern the fleet down to canonical profile contents.
    interner = ProfileInterner()
    for profile in profiles:
        interner.intern(profile)
    canonical = interner.canonical_profiles()
    intern_seconds = time.perf_counter() - started

    # Extraction clusters: problems sharing an extraction key share one
    # extraction (the same grouping the service's structural batching
    # applies).
    clusters: Dict[Tuple, List[int]] = {}
    for index, problem in enumerate(problems):
        clusters.setdefault(extraction_key(problem.constraints), []).append(index)
    cluster_lists = list(clusters.values())

    units: List[Tuple[UserProfile, SelectQuery]] = [
        (profile, query) for profile in canonical for query in parsed
    ]

    def compile_unit(unit):
        """Walk, extract and solve one (canonical profile, query) for
        every extraction cluster.

        Runs the service's own pipeline against *unit-local* caches, so
        nothing a unit priced outlives it but the returned blobs, which
        are exactly the caches' persistence format.
        """
        profile, query = unit
        unit_param = ParameterCache()
        unit_frontier = FrontierCache()
        personalizer = Personalizer(
            database,
            algebra=algebra,
            param_cache=unit_param,
            frontier_cache=unit_frontier,
        )
        # Walk the pair unconstrained once. The walk memo then answers
        # every cluster's extraction, and the unit's pricing covers
        # every path a served walk of this pair prices (join prefixes,
        # and selections past the K cut), so a service booted from the
        # snapshot never misses.
        personalizer.memoized_walk(query, profile)
        digests = set()
        for cluster in cluster_lists:
            outcomes = personalizer.personalize_many(
                query,
                profile,
                [problems[i] for i in cluster],
                [resolved[i] for i in cluster],
                k_limit=k_limit,
            )
            pspace = outcomes[0].preference_space
            if pspace.k > 0:
                digests.add(space_digest(pspace))
        return digests, unit_param.snapshot(), unit_frontier.snapshot()

    solve_started = time.perf_counter()
    # Merge every unit's blobs into the compiled caches as it finishes.
    # Duplicate digests across units overwrite with identical frontiers
    # (store() is idempotent for equal content), so merge order never
    # shows in the result. The byte budget grows by each blob before it
    # lands, so the merge never evicts a compiled frontier.
    param_cache = ParameterCache()
    frontier_cache = FrontierCache()
    frontier_cache.validate(token)
    digests = set()
    for unit in units:
        unit_digests, param_state, frontier_state = compile_unit(unit)
        digests |= unit_digests
        param_cache.restore(param_state, token)
        frontier_cache.byte_budget += state_nbytes(frontier_state)
        frontier_cache.restore(frontier_state, token)
    solve_seconds = time.perf_counter() - solve_started

    fleet_requests = interner.fleet_size * len(parsed) * len(cluster_lists)
    telemetry = {
        "units": len(units),
        "clusters": len(cluster_lists),
        "queries": len(parsed),
        "distinct_signatures": len(digests),
        "fleet_requests": fleet_requests,
        "profile_compression": interner.compression,
        "signature_compression": (
            fleet_requests / len(digests) if digests else 1.0
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

    return CompiledWorkload(
        fingerprint=database.fingerprint,
        stats_version=database.stats_version,
        meta=compiled_meta,
        interning=interner.report(),
        telemetry=telemetry,
        param_state=param_cache.snapshot(),
        frontier_state=frontier_cache.snapshot(),
    )
