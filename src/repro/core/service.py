"""A personalization service: the system of the paper's introduction.

"Al is registered with a web-based service providing tourist
information ... The system responds to his requests by taking into
account a profile of his personal preferences that it maintains as well
as the search context at the time of the request."

:class:`PersonalizationService` is that system in library form:

* a per-user profile store (register explicitly, or let profiles be
  *learned* — every request is logged, and profiles are periodically
  re-distilled from each user's log and blended into the stored profile);
* context handling: each request carries a :class:`SearchContext`, the
  policy maps it to the right Table 1 problem;
* the full pipeline per request (extract → search → rewrite → execute),
  returning rows plus the solution metadata.

One pipeline serves both entry points:
:meth:`~PersonalizationService.request_many` groups duplicate requests,
clusters same-extraction groups into :meth:`Personalizer.personalize_many`
calls (structural batching) and runs them one after another in one
ordered loop; :meth:`~PersonalizationService.request` is a one-request
batch on that same pipeline. Solves are pure functions of their inputs,
so nothing is retried: an exception raised inside a solve reaches the
caller as its own type. Execution always runs on the columnar engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.algorithms.scheduler import SolveScheduler
from repro.core.context import SearchContext, problem_for_context
from repro.core.frontier_cache import FrontierCache, state_nbytes
from repro.core.param_cache import ParameterCache
from repro.core.personalizer import PersonalizationOutcome, Personalizer
from repro.core.preference_space import extraction_key
from repro.core.problem import CQPProblem
from repro.errors import PreferenceError
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.learning import LearningConfig, learn_profile, merge_profiles
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import SelectQuery
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.storage.database import Database
from repro.storage.table import Row


@dataclass
class ServiceResponse:
    """What one request returns: the answer plus how it was produced.

    ``rows`` is an immutable tuple; duplicate requests in one
    ``request_many`` batch share the *same* tuple rather than copying
    the result per member. Search-layer counters (pricing and frontier
    cache traffic, warm starts, batched neighbor evaluations) are read
    from ``outcome.solution.stats``; the response itself carries only
    the degradation reason.
    """

    user: str
    outcome: PersonalizationOutcome
    rows: Tuple[Row, ...]
    elapsed_ms: float
    # Always 0 (there is no frame cache); kept for perfbench/workloads.py.
    frame_cache_hits: int = 0
    frame_cache_misses: int = 0
    # Why this response is degraded, when it is: the serving layer sets
    # it when it downgrades the algorithm to meet an SLA budget (see
    # repro.serving.degradation). None whenever the response is the
    # full-fidelity answer.
    degradation_reason: Optional[str] = None

    @property
    def personalized(self) -> bool:
        return self.outcome.personalized

    @property
    def degraded(self) -> bool:
        """True when the serving layer downgraded the algorithm to meet
        an SLA budget (``degradation_reason`` says how)."""
        return self.degradation_reason is not None


@dataclass
class _UserState:
    profile: UserProfile
    query_log: List[SelectQuery] = field(default_factory=list)
    requests_since_relearn: int = 0


@dataclass
class BatchRequest:
    """One request in a :meth:`PersonalizationService.request_many` batch."""

    user: str
    query: Union[str, SelectQuery]
    context: Optional[SearchContext] = None
    problem: Optional[CQPProblem] = None
    algorithm: Optional[str] = None
    k_limit: Optional[int] = None


class PersonalizationService:
    """Multi-user façade over one database."""

    def __init__(
        self,
        database: Database,
        algebra: DoiAlgebra = PRODUCT_ALGEBRA,
        relearn_every: int = 0,
        learning_config: Optional[LearningConfig] = None,
        learning_weight: float = 0.3,
        param_cache: Optional[ParameterCache] = None,
        frontier_cache: Optional[FrontierCache] = None,
        fault_injector=None,
        snapshot=None,
    ) -> None:
        """``relearn_every``: after that many requests a user's profile is
        re-blended with one learned from their query log (0 = never).
        ``learning_config`` defaults to a fresh :class:`LearningConfig`
        per service (never a shared instance). ``param_cache`` /
        ``frontier_cache`` are forwarded to the :class:`Personalizer`.

        ``fault_injector`` (the :class:`repro.testing.faults.FaultInjector`
        protocol) arms the cache-eviction drills: the service's caches
        get eviction hooks. Evictions only make a cache colder, so no
        response payload changes.

        ``snapshot`` boots the service warm from a compiled workload: a
        :class:`~repro.storage.snapshot.CompiledWorkload` or the path
        of a saved snapshot directory. The snapshot's pricing entries
        and frontiers are installed into this service's caches — after
        proving (by content fingerprint and statistics version) that it
        was compiled against this very database;
        :class:`~repro.storage.snapshot.SnapshotMismatch` is raised
        otherwise, never a silent cold start. Caches memoize pure
        functions, so a warm boot changes no response payload — only
        how fast the first requests are answered."""
        if relearn_every < 0:
            raise ValueError("relearn_every must be >= 0")
        self.personalizer = Personalizer(
            database,
            algebra=algebra,
            param_cache=param_cache,
            frontier_cache=frontier_cache,
        )
        self.relearn_every = relearn_every
        self.learning_config = (
            learning_config if learning_config is not None else LearningConfig()
        )
        self.learning_weight = learning_weight
        self._users: Dict[str, _UserState] = {}
        self.snapshot_installed: Dict[str, int] = {}
        if snapshot is not None:
            from repro.storage.snapshot import CompiledWorkload, load_snapshot

            if not isinstance(snapshot, CompiledWorkload):
                snapshot = load_snapshot(snapshot)
            # The Personalizer constructor above has already ensured the
            # database is analyzed, so the statistics version the
            # snapshot is validated against is the serving one.
            # Size every cache to hold the whole snapshot: restoring
            # into a cache smaller than the compiled set would evict
            # entries during boot and silently serve a half-warm
            # service. The pricing cache grows its entry capacity, the
            # frontier cache its memo byte budget; bounds only ever
            # grow, and a deliberately disabled cache (capacity or byte
            # budget 0) stays disabled.
            param = self.personalizer.param_cache
            if param is not None and param.capacity > 0:
                param.capacity = max(
                    param.capacity, 2 * len(snapshot.param_state.get("entries", ()))
                )
            frontier = self.personalizer.frontier_cache
            if frontier is not None and frontier.byte_budget > 0:
                frontier.byte_budget = max(
                    frontier.byte_budget,
                    2 * state_nbytes(snapshot.frontier_state),
                )
            self.snapshot_installed = snapshot.restore_into(
                database,
                param_cache=self.personalizer.param_cache,
                frontier_cache=self.personalizer.frontier_cache,
            )
        if fault_injector is not None:
            fault_injector.arm_cache(self.personalizer.param_cache)
            fault_injector.arm_cache(self.personalizer.frontier_cache)

    @property
    def param_cache(self) -> ParameterCache:
        """The cross-request parameter cache serving this service."""
        return self.personalizer.param_cache

    @property
    def frontier_cache(self) -> FrontierCache:
        """The cross-request search-layer cache serving this service."""
        return self.personalizer.frontier_cache

    def invalidate_caches(self) -> None:
        """Explicit invalidation hook for out-of-band database mutation
        (ordinary ``load``/``analyze`` calls are version-detected)."""
        self.personalizer.invalidate_caches()

    def cache_telemetry(self) -> Dict[str, Dict[str, int]]:
        """One unified counter block per cache this service runs on.

        Every block has the shared shape
        (``hits/misses/lookups/invalidations/evictions/entries/
        bytes_estimate``); the frontier block adds its two resident
        populations.
        """
        return {
            "param_cache": self.param_cache.counters(),
            "frontier_cache": self.frontier_cache.counters(),
        }

    # -- user management ----------------------------------------------------------

    def register(self, user: str, profile: Optional[UserProfile] = None) -> None:
        """Register a user, optionally with a curated starting profile."""
        if user in self._users:
            raise PreferenceError("user %r already registered" % user)
        self._users[user] = _UserState(profile=profile or UserProfile(user))

    def profile_of(self, user: str) -> UserProfile:
        return self._state(user).profile

    def query_log_of(self, user: str) -> List[SelectQuery]:
        return list(self._state(user).query_log)

    @property
    def users(self) -> List[str]:
        return sorted(self._users)

    def _state(self, user: str) -> _UserState:
        try:
            return self._users[user]
        except KeyError:
            raise PreferenceError("unknown user %r" % user) from None

    # -- the request loop ----------------------------------------------------------

    def request(
        self,
        user: str,
        query: Union[str, SelectQuery],
        context: Optional[SearchContext] = None,
        problem: Optional[CQPProblem] = None,
        algorithm: Optional[str] = None,
        k_limit: Optional[int] = None,
        execute: bool = True,
    ) -> ServiceResponse:
        """Answer one request for ``user``: a one-request batch on the
        :meth:`request_many` pipeline.

        The Table 1 problem comes from ``problem`` when given, else from
        the ``context`` via the policy. The query is logged for learning
        and, when due, the user's profile is re-learned and blended.
        ``execute=False`` skips running the personalized query (the
        response carries no rows) — useful when only the rewritten query
        or the solution metadata is wanted.
        """
        request = BatchRequest(user, query, context, problem, algorithm, k_limit)
        return self._answer([request], execute)[0]

    # -- the batched request path --------------------------------------------------

    def request_many(
        self,
        requests: Iterable[BatchRequest],
        execute: bool = True,
    ) -> List[ServiceResponse]:
        """Answer a batch of requests, sharing work across duplicates.

        Requests are grouped by ``(user, query SQL, problem, algorithm,
        k_limit)``; each group runs the extract → search → rewrite
        pipeline **once** and (when ``execute``) executes the
        personalized query **once**, fanning the shared outcome out to
        every member. Across groups the personalizer's parameter cache
        still shares per-path pricing, so even an all-distinct batch
        beats the request-at-a-time loop once warm.

        The supergroups are solved in order by
        :class:`~repro.core.algorithms.scheduler.SolveScheduler`; an
        exception raised inside a solve reaches the caller as its own
        type, and since every cache entry is a finished result of a
        pure function, the next request answers exactly as a fresh
        service would. Learning bookkeeping happens at the batch
        boundary: all queries are logged first and due relearns run
        once per user *before* any group is solved, so a batch observes
        one consistent profile per user.

        Returns responses in the order of ``requests``; duplicate
        members of a group share one immutable rows tuple (no per-member
        copies).
        """
        return self._answer(requests, execute)

    def _answer(
        self, requests: Iterable[BatchRequest], execute: bool
    ) -> List[ServiceResponse]:
        """The one request pipeline behind :meth:`request` and
        :meth:`request_many`."""
        specs: List[Tuple[str, SelectQuery, CQPProblem, Optional[str], Optional[int]]] = []
        for req in requests:
            query = parse_select(req.query) if isinstance(req.query, str) else req.query
            problem = req.problem
            if problem is None:
                if req.context is None:
                    raise PreferenceError("a request needs a context or a problem")
                problem = problem_for_context(req.context)
            self._state(req.user)  # unknown users fail before any work
            specs.append((req.user, query, problem, req.algorithm, req.k_limit))

        # Batch-boundary learning: log everything, then relearn once.
        for user, query, _, _, _ in specs:
            state = self._state(user)
            state.query_log.append(query)
            state.requests_since_relearn += 1
        if self.relearn_every:
            for user in {spec[0] for spec in specs}:
                if self._state(user).requests_since_relearn >= self.relearn_every:
                    self._relearn(user)

        groups: Dict[Tuple, List[int]] = {}
        for position, (user, query, problem, algorithm, k_limit) in enumerate(specs):
            key = (user, to_sql(query), problem, algorithm, k_limit)
            groups.setdefault(key, []).append(position)

        member_lists = list(groups.values())

        # Structural batching clusters groups that share an extraction —
        # same user, query, k_limit and extraction key — into
        # supergroups; each supergroup is one personalize_many call
        # (extract once, stacked solves) returning the outcome list of
        # its member groups.
        clusters: Dict[Tuple, List[int]] = {}
        for index, members in enumerate(member_lists):
            user, query, problem, _, k_limit = specs[members[0]]
            cluster_key = (
                user, to_sql(query), k_limit, extraction_key(problem.constraints)
            )
            clusters.setdefault(cluster_key, []).append(index)
        super_lists = list(clusters.values())

        def personalize_super(group_indices: Sequence[int]) -> List[PersonalizationOutcome]:
            user, query, _, _, k_limit = specs[member_lists[group_indices[0]][0]]
            problems = [specs[member_lists[i][0]][2] for i in group_indices]
            algorithms = [specs[member_lists[i][0]][3] for i in group_indices]
            return self.personalizer.personalize_many(
                query,
                self._state(user).profile,
                problems,
                algorithms=algorithms,
                k_limit=k_limit,
            )

        super_outcomes = SolveScheduler().map(personalize_super, super_lists)
        outcomes: List[Optional[PersonalizationOutcome]] = [None] * len(member_lists)
        for group_indices, outcome_list in zip(super_lists, super_outcomes):
            for index, outcome in zip(group_indices, outcome_list):
                outcomes[index] = outcome

        responses: List[Optional[ServiceResponse]] = [None] * len(specs)
        for members, outcome in zip(member_lists, outcomes):
            user = specs[members[0]][0]
            if execute:
                result = self.personalizer.execute(outcome)
                template = ServiceResponse(
                    user=user,
                    outcome=outcome,
                    rows=tuple(result.rows),
                    elapsed_ms=result.elapsed_ms,
                )
            else:
                template = ServiceResponse(
                    user=user, outcome=outcome, rows=(), elapsed_ms=0.0
                )
            # One immutable rows tuple per group, shared by every member
            # (replaces the old per-member list(rows) copies).
            for position in members:
                responses[position] = replace(template)
        return responses  # type: ignore[return-value]

    # -- learning -----------------------------------------------------------------

    def _relearn(self, user: str) -> None:
        state = self._state(user)
        state.requests_since_relearn = 0
        try:
            observed = learn_profile(
                state.query_log, name="%s-observed" % user, config=self.learning_config
            )
        except PreferenceError:
            return  # nothing learnable yet
        state.profile = merge_profiles(
            state.profile,
            observed,
            weight=self.learning_weight,
            name=state.profile.name,
        )

    def relearn_now(self, user: str) -> UserProfile:
        """Force a relearn cycle; returns the (possibly updated) profile."""
        self._relearn(user)
        return self._state(user).profile
