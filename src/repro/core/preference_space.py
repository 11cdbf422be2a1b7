"""The Preference Space algorithm (Figure 3).

Given a query Q, a profile U, and the CQP constraints, extract the set
``P`` of selection preferences (atomic and implicit) related to Q, in
decreasing order of doi, together with the three order vectors:

* ``D`` — P-indices by decreasing doi (the extraction order itself),
* ``C`` — P-indices by decreasing ``cost(Q ∧ p)``,
* ``S`` — P-indices by increasing ``size(Q ∧ p)``.

The traversal is best-first on doi: because ``f⊗`` is non-increasing in
path length (Formula 2), popping the highest-doi candidate first yields
``P`` already doi-sorted. Join preferences are never emitted — they are
expanded with their adjacent atomic preferences into longer paths, the
``p ∧ pi`` step of Figure 3, subject to the acyclicity check.

Deviations from the pseudocode (documented in DESIGN.md §4, item 7):
candidates violating a *monotone* constraint (cost above ``cmax``, or
size below ``smin``) are pruned individually rather than aborting the
whole loop — Figure 3's ``else exit`` is only sound for constraints
aligned with the doi order, which cost and size are not.

The per-candidate prune makes a constrained extraction a filter over
the unconstrained walk: the pruned walk pops exactly the unconstrained
walk's paths whose chain (the path and its join prefixes) passes the
prune, in the same order. :class:`MemoizedWalk` keeps one unconstrained
walk with its chain bounds, and extracts by filtering it;
:func:`extract_preference_space` stays the one walk, builds the memo
and is its oracle.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import struct
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.estimation import (
    CachedStateEvaluator,
    ParameterEstimator,
    StateEvaluator,
)
from repro.core.interning import profile_fingerprint
from repro.core.param_cache import ParameterCache
from repro.core.problem import Constraints
from repro.errors import PreferenceError, SearchError
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.preferences.graph import PersonalizationGraph
from repro.preferences.model import AtomicPreference, PreferencePath
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import SelectQuery
from repro.sql.printer import to_sql
from repro.storage.database import Database
from repro.utils.timing import Stopwatch

DEFAULT_MAX_PATH_LENGTH = 5


@dataclass
class PreferenceSpace:
    """The output of Figure 3: P, its parameters, and the order vectors."""

    query: SelectQuery
    paths: List[PreferencePath]
    doi_values: List[float]
    cost_values: List[float]
    size_values: List[float]
    reductions: List[float]
    base_cost: float
    base_size: float
    algebra: DoiAlgebra
    vector_d: List[int]
    vector_c: List[int]
    vector_s: List[int]
    selection_times: Dict[str, float] = field(default_factory=dict)
    conflicts: List[Tuple[int, int]] = field(default_factory=list)
    # space_digest's and shared_evaluator's memos. Not __init__ fields,
    # so neither dataclasses.replace nor subset() carries them to a new
    # space.
    _digest: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _evaluator: Optional[CachedStateEvaluator] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def k(self) -> int:
        """K — the cardinality of P."""
        return len(self.paths)

    def evaluator(self, cached: bool = False) -> StateEvaluator:
        """A fresh state evaluator over this space's parameter arrays:
        a :class:`~repro.core.estimation.CachedStateEvaluator` when
        ``cached``."""
        factory = CachedStateEvaluator if cached else StateEvaluator
        return factory(
            doi_values=self.doi_values,
            cost_values=self.cost_values,
            reductions=self.reductions,
            base_size=self.base_size,
            base_cost=self.base_cost,
            algebra=self.algebra,
            conflicts=self.conflicts,
        )

    def shared_evaluator(self) -> CachedStateEvaluator:
        """The caching evaluator this space object keeps for every solve
        that shares pricing (those under an enabled frontier cache):
        built on first use, dropped with the space."""
        evaluator = self._evaluator
        if evaluator is None:
            evaluator = self._evaluator = self.evaluator(cached=True)
        return evaluator

    def supreme_cost(self) -> float:
        """Cost of the personalized query using all K preferences."""
        return sum(self.cost_values)

    def subset(self, indices: Sequence[int]) -> "PreferenceSpace":
        """The space restricted to the preferences at ``indices``.

        ``indices`` are ascending P-indices. The map from old to new
        index preserves order, so the cut keeps P's doi order, and the
        C and S vectors and the conflict pairs are the old ones with
        the dropped preferences removed and the rest re-indexed.
        """
        rank = {old: new for new, old in enumerate(indices)}
        return PreferenceSpace(
            query=self.query,
            paths=[self.paths[i] for i in indices],
            doi_values=[self.doi_values[i] for i in indices],
            cost_values=[self.cost_values[i] for i in indices],
            size_values=[self.size_values[i] for i in indices],
            reductions=[self.reductions[i] for i in indices],
            base_cost=self.base_cost,
            base_size=self.base_size,
            algebra=self.algebra,
            vector_d=[rank[i] for i in self.vector_d if i in rank],
            vector_c=[rank[i] for i in self.vector_c if i in rank],
            vector_s=[rank[i] for i in self.vector_s if i in rank],
            selection_times=dict(self.selection_times),
            conflicts=[
                (rank[a], rank[b]) for a, b in self.conflicts if a in rank and b in rank
            ],
        )

    def truncated(self, k: int) -> "PreferenceSpace":
        """The space restricted to the top-``k`` preferences by doi.

        The experiments sweep K by truncating one extracted space rather
        than re-running extraction, exactly as "the number of preferences
        K extracted from the profile and used by a CQP algorithm".
        """
        if k >= self.k:
            return self
        return self.subset(range(k))


def space_digest(pspace: PreferenceSpace) -> str:
    """The identity a preference space's parameters define, as a hex
    SHA-256 computed once per space.

    The arrays *are* the resultant of (query, profile, statistics):
    identical arrays evaluate identically whatever produced them, so
    keying caches on them is always safe, and it also unifies e.g.
    truncated spaces that happen to coincide. The digest covers the
    IEEE doubles of ``doi_values``, ``cost_values`` and ``reductions``,
    ``base_size``, ``base_cost``, the algebra's *semantic* signature
    (not its object identity) and the sorted conflict pairs. Every part
    is encoded canonically, so the digest is stable across processes
    and persisted workload snapshots key the same entries after a
    restart.
    """
    digest = pspace._digest
    if digest is None:
        k = len(pspace.doi_values)
        arrays = struct.pack(
            "<q%dd" % (3 * k + 2),
            k,
            *pspace.doi_values,
            *pspace.cost_values,
            *pspace.reductions,
            pspace.base_size,
            pspace.base_cost,
        )
        algebra = repr(pspace.algebra.signature).encode("utf-8")
        pairs = sorted(tuple(sorted(pair)) for pair in pspace.conflicts)
        conflicts = struct.pack(
            "<q%dq" % (2 * len(pairs)), len(pairs), *itertools.chain(*pairs)
        )
        hasher = hashlib.sha256(arrays)
        hasher.update(struct.pack("<q", len(algebra)))
        hasher.update(algebra)
        hasher.update(conflicts)
        digest = pspace._digest = hasher.hexdigest()
    return digest


def _prunable(
    estimator: ParameterEstimator,
    path: PreferencePath,
    constraints: Optional[Constraints],
) -> bool:
    """True when no extension of ``path`` can satisfy the constraints.

    Only monotone-safe prunes are applied: extending a path adds scans
    (cost never decreases) and multiplies reduction factors ≤ 1 (size
    never increases), so a path already above ``cmax`` or below ``smin``
    is dead along with its whole subtree.
    """
    if constraints is None:
        return False
    if constraints.cmax is None and constraints.smin is None:
        return False
    cost, reduction = estimator.priced(path)
    if constraints.cmax is not None and cost > constraints.cmax:
        return True
    if (
        constraints.smin is not None
        and estimator.base_size * reduction < constraints.smin
    ):
        return True
    return False


def extraction_key(constraints: Constraints) -> Tuple[Optional[float], Optional[float]]:
    """The constraint fields :func:`_prunable` reads: problems that agree
    on them extract the same preference space from one (query, profile),
    so they can share one extraction."""
    return (constraints.cmax, constraints.smin)


def extract_preference_space(
    database: Database,
    query: SelectQuery,
    profile: UserProfile,
    constraints: Optional[Constraints] = None,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
    k_limit: Optional[int] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    param_cache: Optional[ParameterCache] = None,
    chains: Optional[List[Tuple[float, float]]] = None,
) -> PreferenceSpace:
    """Run the Preference Space algorithm and price every preference.

    ``param_cache`` (optional) memoizes per-path (cost, reduction)
    pricing across calls — see :mod:`repro.core.param_cache`.

    ``chains``, when given a list, records each extracted path's chain
    bounds in P order (see :class:`MemoizedWalk`): every pushed path is
    then priced as it is pushed, as a pruned walk prices it. It needs
    the unconstrained walk.
    """
    if k_limit is not None and k_limit <= 0:
        raise SearchError("k_limit must be positive, got %r" % (k_limit,))
    if chains is not None and constraints is not None:
        raise SearchError("chain bounds are recorded on the unconstrained walk only")
    graph = PersonalizationGraph(database.schema, profile)
    estimator = ParameterEstimator(
        database, query, algebra=algebra, param_cache=param_cache
    )

    extract_watch = Stopwatch()
    c_watch = Stopwatch()
    s_watch = Stopwatch()

    paths: List[PreferencePath] = []
    doi_values: List[float] = []
    cost_values: List[float] = []
    size_values: List[float] = []
    reductions: List[float] = []
    # Incrementally maintained rank vectors (the paper's addrank): each
    # holds (sort key, P-index) pairs kept sorted by bisect insertion.
    c_keys: List[Tuple[float, int]] = []
    s_keys: List[Tuple[float, int]] = []

    with extract_watch:
        counter = itertools.count()  # FIFO tie-break keeps extraction stable
        queue: List[Tuple[float, int, PreferencePath, Optional[Tuple[float, float]]]] = []
        seen: Set[Tuple[object, ...]] = set()

        def push(path: PreferencePath, above: Optional[Tuple[float, float]]) -> None:
            """Queue ``path`` unless the monotone prune kills it; when
            recording chains, price it and carry its chain bound."""
            if chains is None:
                if not _prunable(estimator, path, constraints):
                    heapq.heappush(queue, (-path.doi(algebra), next(counter), path, None))
                return
            cost, reduction = estimator.priced(path)
            size = estimator.base_size * reduction
            if above is not None:
                cost, size = max(cost, above[0]), min(size, above[1])
            heapq.heappush(queue, (-path.doi(algebra), next(counter), path, (cost, size)))

        query_relations = {table.relation for table in query.from_tables}
        for relation in sorted(query_relations):
            for preference in graph.preferences_anchored_at(relation):
                path = PreferencePath([preference])
                if path.conditions in seen:
                    continue
                seen.add(path.conditions)
                push(path, None)

        while queue:
            negative_doi, _, path, bound = heapq.heappop(queue)
            if path.is_selection:
                index = len(paths)
                paths.append(path)
                doi_values.append(-negative_doi)
                cost, reduction = estimator.priced(path)
                cost_values.append(cost)
                reductions.append(reduction)
                size_values.append(estimator.base_size * reduction)
                if chains is not None:
                    chains.append(bound)
                with c_watch:
                    insort(c_keys, (-cost, index))
                with s_watch:
                    insort(s_keys, (size_values[-1], index))
                if k_limit is not None and len(paths) >= k_limit:
                    break
                continue
            # Join path: expand with adjacent atomic preferences.
            if len(path) >= max_path_length:
                continue
            for adjacent in graph.preferences_anchored_at(path.frontier_relation):
                extension = _try_extend(path, adjacent)
                if extension is None or extension.conditions in seen:
                    continue
                seen.add(extension.conditions)
                push(extension, bound)

    return PreferenceSpace(
        query=query,
        paths=paths,
        doi_values=doi_values,
        cost_values=cost_values,
        size_values=size_values,
        reductions=reductions,
        base_cost=estimator.base_cost,
        base_size=estimator.base_size,
        algebra=algebra,
        vector_d=list(range(len(paths))),
        vector_c=[index for _, index in c_keys],
        vector_s=[index for _, index in s_keys],
        selection_times={
            "d": extract_watch.elapsed - c_watch.elapsed - s_watch.elapsed,
            "c": extract_watch.elapsed - s_watch.elapsed,
            "s": extract_watch.elapsed - c_watch.elapsed,
        },
        conflicts=_path_conflicts(paths),
    )


def walk_key(
    database: Database,
    query: SelectQuery,
    profile: UserProfile,
    algebra: DoiAlgebra = PRODUCT_ALGEBRA,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
) -> Tuple[Hashable, ...]:
    """Everything the unconstrained walk is a function of: the profile's
    content (:func:`~repro.core.interning.profile_fingerprint`, in
    insertion order), the query's SQL, the statistics, the algebra's
    semantics and the path-length bound."""
    return (
        profile_fingerprint(profile),
        to_sql(query),
        database.stats_token,
        algebra.signature,
        max_path_length,
    )


# Interned conflict pairs, shared by every MemoizedWalk. It holds only
# immutable (i, j) tuples, so sharing it cannot change any result.
_PAIRS: Dict[Tuple[int, int], Tuple[int, int]] = {}


@dataclass(frozen=True)
class MemoizedWalk:
    """One unconstrained Figure 3 walk, kept so that later requests for
    the same (profile, query, statistics) extract by filtering it.

    ``space`` is :func:`extract_preference_space` with no constraints
    and no K cut: every selection path, in pop order. For path ``i``,
    ``chain_cost[i]`` is the largest cost and ``chain_size[i]`` the
    smallest ``base_size × reduction`` over the path and its join
    prefixes: the figures :func:`_prunable` tests along the chain of
    pushes that produced the path. :meth:`extract` is exact (DESIGN.md
    §4, item 7).
    """

    space: PreferenceSpace
    chain_cost: Tuple[float, ...]
    chain_size: Tuple[float, ...]

    @classmethod
    def of(
        cls, space: PreferenceSpace, chains: Sequence[Tuple[float, float]]
    ) -> "MemoizedWalk":
        """The memo of an unconstrained walk and the ``chains`` it
        recorded (see :func:`extract_preference_space`)."""
        # The pairs are small-int tuples that recur across memos; share
        # one object per pair instead of pinning a copy in each memo.
        space.conflicts = [_PAIRS.setdefault(pair, pair) for pair in space.conflicts]
        # A chain bound is almost always the path's own figure: keep
        # that float object rather than an equal copy.
        return cls(
            space,
            tuple(own if own == cost else cost
                  for own, (cost, _) in zip(space.cost_values, chains)),
            tuple(own if own == size else size
                  for own, (_, size) in zip(space.size_values, chains)),
        )

    def extract(
        self,
        query: SelectQuery,
        constraints: Optional[Constraints] = None,
        k_limit: Optional[int] = None,
    ) -> PreferenceSpace:
        """What :func:`extract_preference_space` returns for ``query``
        under ``constraints`` and ``k_limit``: the first ``k_limit``
        paths whose whole chain passes the monotone prune."""
        if k_limit is not None and k_limit <= 0:
            raise SearchError("k_limit must be positive, got %r" % (k_limit,))
        cmax, smin = (None, None) if constraints is None else extraction_key(constraints)
        limit = len(self.chain_cost) if k_limit is None else k_limit
        indices: List[int] = []
        for index, (cost, size) in enumerate(zip(self.chain_cost, self.chain_size)):
            if len(indices) >= limit:
                break
            if cmax is not None and cost > cmax:
                continue
            if smin is not None and size < smin:
                continue
            indices.append(index)
        space = self.space.subset(indices)
        space.query = query
        return space

    def nbytes(self) -> int:
        """A coarse resident-size estimate of the memo."""
        space = self.space
        steps = sum(len(path) for path in space.paths)
        return 1024 + 180 * space.k + 40 * steps + 8 * len(space.conflicts)


def _path_conflicts(paths: List[PreferencePath]) -> List[Tuple[int, int]]:
    """Pairs of paths whose selections are provably unsatisfiable together
    (e.g. two different equality values on the same attribute), in
    ascending ``(i, j)`` order.

    :func:`selection_conflicts` is false unless both conditions share
    ``(relation, attribute)``, so only pairs of paths that meet in such
    a bucket are tested; every other pair of the all-pairs scan is
    conflict-free without a call. A path ends in at most one selection,
    so each pair of paths is tested at most once.
    """
    from repro.preferences.model import SelectionCondition, selection_conflicts

    buckets: Dict[Tuple[str, str], List[Tuple[int, SelectionCondition]]] = {}
    for index, path in enumerate(paths):
        for condition in path.conditions:
            if isinstance(condition, SelectionCondition):
                key = (condition.relation, condition.attribute)
                buckets.setdefault(key, []).append((index, condition))
    conflicts: Set[Tuple[int, int]] = set()
    for members in buckets.values():
        for position, (i, a) in enumerate(members):
            for j, b in members[position + 1:]:
                if selection_conflicts(a, b):
                    conflicts.add((i, j))
    return sorted(conflicts)


def _try_extend(
    path: PreferencePath, adjacent: AtomicPreference
) -> Optional[PreferencePath]:
    """``path ∧ adjacent`` if adjacent and acyclic, else ``None``."""
    try:
        return path.extended(adjacent)
    except PreferenceError:
        return None
