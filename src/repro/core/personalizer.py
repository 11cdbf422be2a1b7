"""The end-to-end façade wiring Figure 2's architecture together.

``Personalizer.personalize_many`` runs the full pipeline for one query
under a group of problems that share an extraction, and
``Personalizer.personalize`` is that pipeline for a single problem:

1. *Preference Space* — extract P (and D/C/S) from the profile: by
   filtering the memoized unconstrained walk when the parameter cache
   holds one for this (profile, query), else by the pruned walk;
2. *CQP State Space Search* — solve each Table 1 problem;
3. *Personalized Query Construction* — rewrite Q with the chosen
   preferences;
4. optionally *Query Execution* — run the result on the database engine.

Each stage has one fast path: the bitmask evaluation kernel for the
search and the columnar engine for execution. Their references — the
tuple evaluation kernel and the row-at-a-time
:class:`~repro.sql.executor.Executor` — are plain code the tests and
the differential lattice compare against, not options here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core import adapters
from repro.core.frontier_cache import FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.preference_space import (
    MemoizedWalk,
    PreferenceSpace,
    extract_preference_space,
    extraction_key,
    walk_key,
)
from repro.core.problem import Constraints, CQPProblem
from repro.core.rewriter import QueryRewriter
from repro.core.solution import CQPSolution
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.model import PreferencePath
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import QueryNode, SelectQuery
from repro.sql.executor import ExecutionResult, Executor
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.storage.database import Database


@dataclass
class PersonalizationOutcome:
    """Everything one personalization request produced."""

    problem: CQPProblem
    original_query: SelectQuery
    personalized_query: QueryNode
    solution: Optional[CQPSolution]
    paths: List[PreferencePath] = field(default_factory=list)
    preference_space: Optional[PreferenceSpace] = None

    @property
    def personalized(self) -> bool:
        """False when no feasible personalization existed and the
        original query is returned unchanged."""
        return self.solution is not None and bool(self.paths)

    @property
    def sql(self) -> str:
        return to_sql(self.personalized_query)

    def __str__(self) -> str:
        if not self.personalized:
            return "PersonalizationOutcome(unpersonalized: no feasible solution)"
        assert self.solution is not None
        return "PersonalizationOutcome(%d preferences, doi=%.4f, est. cost=%.1fms)" % (
            len(self.paths),
            self.solution.doi,
            self.solution.cost,
        )


class Personalizer:
    """Public entry point for constrained query personalization."""

    def __init__(
        self,
        database: Database,
        algebra: DoiAlgebra = PRODUCT_ALGEBRA,
        param_cache: Optional[ParameterCache] = None,
        frontier_cache: Optional[FrontierCache] = None,
    ) -> None:
        """``param_cache`` memoizes per-path pricing across requests; one
        is created per Personalizer when not given (pass a shared
        instance to pool across personalizers, or a 0-capacity cache to
        disable). ``frontier_cache`` does the same one layer up: served
        and warm-started phase-1 sweeps across constraint values (same
        defaulting convention; a 0-byte cache disables it), and, while
        it is enabled, one shared evaluator per extracted space, so the
        solves of one ``personalize_many`` batch share pricing.
        Queries always execute on the columnar engine; the row
        :class:`~repro.sql.executor.Executor` stays the reference that
        tests and the differential lattice compare it against."""
        if not database.analyzed:
            database.analyze()
        self.database = database
        self.algebra = algebra
        self.param_cache = param_cache if param_cache is not None else ParameterCache()
        self.frontier_cache = (
            frontier_cache if frontier_cache is not None else FrontierCache()
        )
        self.executor = Executor(database, engine="columnar")

    def invalidate_caches(self) -> None:
        """Drop cross-request pricing state (call after mutating the
        database or its statistics out of band; normal ``analyze()`` /
        ``load()`` calls are detected automatically)."""
        self.param_cache.invalidate()
        self.frontier_cache.invalidate()

    def personalize(
        self,
        query: Union[str, SelectQuery],
        profile: UserProfile,
        problem: CQPProblem,
        algorithm: Optional[str] = None,
        k_limit: Optional[int] = None,
    ) -> PersonalizationOutcome:
        """Personalize ``query`` for ``profile`` under ``problem``: a
        one-problem :meth:`personalize_many`.

        When no personalized query satisfies the constraints, the
        outcome carries the original query unchanged
        (``outcome.personalized`` is False) rather than failing: an
        unpersonalized answer beats no answer.
        """
        return self.personalize_many(
            query, profile, [problem], [algorithm], k_limit=k_limit
        )[0]

    def personalize_many(
        self,
        query: Union[str, SelectQuery],
        profile: UserProfile,
        problems: List[CQPProblem],
        algorithms: Optional[List[Optional[str]]] = None,
        k_limit: Optional[int] = None,
    ) -> List[PersonalizationOutcome]:
        """Personalize one query under many problems, extracting once.

        Extraction (the expensive profile walk) runs once, and the
        solves go through :func:`repro.core.adapters.solve_many`, which
        dedupes identical requests and primes the frontier memo from
        the stacked batch kernel (a lone problem is one plain solve).
        A ``None`` algorithm defaults to
        :func:`~repro.core.adapters.recommended_algorithm`.

        All problems must share one
        :func:`~repro.core.preference_space.extraction_key`; callers
        group requests accordingly. The batch's parameter-cache delta is
        attributed to the first solved outcome (per-member attribution
        is meaningless once pricing is shared).
        """
        from repro.errors import PreferenceError

        if isinstance(query, str):
            query = parse_select(query)
        if not problems:
            return []
        keys = {extraction_key(problem.constraints) for problem in problems}
        if len(keys) > 1:
            raise PreferenceError(
                "personalize_many needs one extraction, but the problems "
                "disagree on their extraction keys: %r" % sorted(keys)
            )
        if algorithms is None:
            algorithms = [None] * len(problems)
        resolved = [
            algorithm if algorithm is not None else adapters.recommended_algorithm(problem)
            for problem, algorithm in zip(problems, algorithms)
        ]

        hits_before = self.param_cache.hits
        misses_before = self.param_cache.misses
        # Stale search-layer entries die with the statistics snapshot,
        # exactly like the parameter cache's per-entry token check.
        self.frontier_cache.validate(self.database.stats_token)
        pspace = self._extract(query, profile, problems[0].constraints, k_limit)
        if pspace.k > 0:
            solutions = adapters.solve_many(
                pspace,
                problems,
                algorithms=resolved,
                frontier_cache=self.frontier_cache,
            )
        else:
            solutions = [None] * len(problems)
        # Surface this batch's share of the cross-request cache traffic
        # on the first solution's stats record.
        for solution in solutions:
            if solution is not None:
                solution.stats.param_cache_hits += self.param_cache.hits - hits_before
                solution.stats.param_cache_misses += (
                    self.param_cache.misses - misses_before
                )
                break

        outcomes: List[PersonalizationOutcome] = []
        rewriter = QueryRewriter(query, schema=self.database.schema)
        for problem, solution in zip(problems, solutions):
            paths = (
                [pspace.paths[i] for i in solution.pref_indices]
                if solution is not None
                else []
            )
            outcomes.append(
                PersonalizationOutcome(
                    problem=problem,
                    original_query=query,
                    personalized_query=rewriter.personalized_query(paths),
                    solution=solution,
                    paths=paths,
                    preference_space=pspace,
                )
            )
        return outcomes

    def _extract(
        self,
        query: SelectQuery,
        profile: UserProfile,
        constraints: Constraints,
        k_limit: Optional[int],
    ) -> PreferenceSpace:
        """The preference space of one request: filtered out of the
        memoized walk when the parameter cache holds (or now admits)
        it, else the pruned walk itself."""
        walk = self.memoized_walk(query, profile, admit=False)
        if walk is None:
            return extract_preference_space(
                self.database,
                query,
                profile,
                constraints=constraints,
                algebra=self.algebra,
                k_limit=k_limit,
                param_cache=self.param_cache,
            )
        return walk.extract(query, constraints, k_limit)

    def memoized_walk(
        self, query: SelectQuery, profile: UserProfile, admit: bool = True
    ) -> Optional[MemoizedWalk]:
        """The unconstrained walk of (``profile``, ``query``) from the
        parameter cache's walk memo (see
        :meth:`~repro.core.param_cache.ParameterCache.walk`): built on
        the pair's second sight, or at once with ``admit``; ``None``
        on a first sight."""
        database = self.database

        def build() -> MemoizedWalk:
            chains: List[Tuple[float, float]] = []
            space = extract_preference_space(
                database,
                query,
                profile,
                algebra=self.algebra,
                param_cache=self.param_cache,
                chains=chains,
            )
            return MemoizedWalk.of(space, chains)

        return self.param_cache.walk(
            walk_key(database, query, profile, self.algebra),
            database.stats_token,
            build,
            admit=admit,
        )

    def execute(self, outcome: PersonalizationOutcome) -> ExecutionResult:
        """Run the outcome's (personalized) query on the database."""
        return self.executor.execute(outcome.personalized_query)

    def explain(self, outcome: PersonalizationOutcome, use_indexes: bool = False) -> str:
        """EXPLAIN-style plan tree for the outcome's query.

        Runs the Figure 2 "Query Optimization" module (the planner) over
        the constructed query and renders the operator tree.
        """
        from repro.sql.planner import Planner

        plan = Planner(self.database, use_indexes=use_indexes).plan(
            outcome.personalized_query
        )
        return plan.explain()

    def execute_ranked(self, outcome: PersonalizationOutcome, min_matches: int = 1):
        """Relaxed m-of-L execution with doi-ranked answers.

        Instead of the strict all-preferences intersection, return every
        tuple satisfying at least ``min_matches`` of the outcome's
        preferences, ranked by the ``r``-composed doi of the
        preferences it satisfies (Sections 3 and 4.2). Falls back to a
        plain execution when the outcome carries no preferences.
        """
        from repro.core.ranking import RankedRow, rank_results

        if not outcome.paths:
            result = self.execute(outcome)
            return [RankedRow(row=row, doi=0.0, satisfied=()) for row in result.rows]
        return rank_results(
            self.database,
            outcome.original_query,
            outcome.paths,
            min_matches=min_matches,
            algebra=self.algebra,
            executor=self.executor,
        )
