"""Shared machinery for the Section 5 algorithms.

* :class:`CQPAlgorithm` — the ABC every algorithm implements, plus a
  registry keyed by algorithm name;
* :class:`PruneBook` — the paper's ``prune(.)``: a visited set plus
  dominance against recorded boundaries of the same group;
* :func:`pointer_best_below` — the C_FINDMAXDOI inner trick: the
  maximum-doi node below a boundary, found *without evaluating dois of
  intermediate nodes* (Figure 5's ``m0`` pointers);
* :func:`find_max_doi_below` — the shared second phase: pointer-based
  when the problem has no extra constraints, an exact bounded region
  search otherwise (Section 6's multi-constraint adaptation);
* :func:`greedy_extend` — the first-fit ``Horizontal2`` loop used by all
  greedy algorithms.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from repro.core.solution import CQPSolution
from repro.core.space import SearchSpace
from repro.core.state import State, state_of
from repro.core.stats import SearchStats, container_bytes
from repro.errors import SearchError
from repro.utils.timing import Stopwatch


class PruneBook:
    """Visited-set + below-boundary dominance pruning (``prune(.)``).

    The dominance test (is this state componentwise ≥ some recorded
    boundary of its group?) runs once per enqueue *and* dequeue, so it is
    vectorized: boundaries of a group live in a preallocated numpy
    matrix that grows by doubling — appending a boundary writes one row
    instead of re-stacking the group (which made boundary-heavy sweeps
    rebuild O(boundaries²) rows). A state equal to a recorded boundary
    counts as "below" (covered).
    """

    _INITIAL_ROWS = 8

    def __init__(self) -> None:
        self._visited: Set[State] = set()
        self._matrices: Dict[int, np.ndarray] = {}
        self._counts: Dict[int, int] = {}

    def mark(self, state: State) -> None:
        self._visited.add(state)

    def seen(self, state: State) -> bool:
        return state in self._visited

    def add_boundary(self, state: State) -> None:
        group = len(state)
        count = self._counts.get(group, 0)
        matrix = self._matrices.get(group)
        if matrix is None or count == matrix.shape[0]:
            capacity = self._INITIAL_ROWS if matrix is None else 2 * matrix.shape[0]
            grown = np.empty((capacity, group), dtype=np.int64)
            if count:
                grown[:count] = matrix[:count]
            matrix = grown
            self._matrices[group] = matrix
        matrix[count] = state
        self._counts[group] = count + 1

    def below_any_boundary(self, state: State) -> bool:
        count = self._counts.get(len(state), 0)
        if not count:
            return False
        matrix = self._matrices[len(state)][:count]
        return bool((np.asarray(state, dtype=np.int64) >= matrix).all(axis=1).any())

    def prune(self, state: State) -> bool:
        """True when ``state`` should not be enqueued; marks it visited
        otherwise (so each state enters a queue at most once)."""
        if state in self._visited or self.below_any_boundary(state):
            return True
        self._visited.add(state)
        return False


def pointer_best_below(space: SearchSpace, boundary: State) -> Tuple[float, Tuple[int, ...]]:
    """Maximum-doi preference set below ``boundary`` (C_FINDMAXDOI core).

    For each slot, scanning from the slot's rank to the end of the
    vector, pick the un-used preference with the smallest P-index (P is
    doi-ordered, so smallest index = highest doi). Slots are processed
    from the most constrained (largest rank) down; the greedy choice is
    optimal because the slots' feasible ranges are nested and the
    conjunction function is monotone in each argument.

    Only valid on budget-aligned spaces: replacing a boundary rank by a
    later one can only lower the state's budget, so every set produced
    stays within budget.
    """
    used: Set[int] = set()
    chosen: List[int] = []
    for slot in range(len(boundary) - 1, -1, -1):
        start = boundary[slot]
        best_pref: Optional[int] = None
        for rank in range(start, space.k):
            pref = space.vector[rank]
            if pref in used:
                continue
            if best_pref is None or pref < best_pref:
                best_pref = pref
        if best_pref is None:  # cannot happen for a valid boundary
            raise SearchError("pointer search exhausted the vector")
        used.add(best_pref)
        chosen.append(best_pref)
    indices = tuple(sorted(chosen))
    return space.evaluator.doi(indices), indices


def _region_best(
    space: SearchSpace,
    boundaries: Sequence[State],
    stats: SearchStats,
) -> Tuple[float, Optional[Tuple[int, ...]]]:
    """Exact best-doi *fully feasible* node below any boundary.

    Needed when the problem carries constraints beyond the budget (e.g.
    size bounds in Problem 3): the pointer trick ignores them. Explores
    the below-boundary regions best-first on the pointer upper bound,
    pruning regions that cannot beat the incumbent. States below a
    boundary are automatically within budget (aligned spaces), so only
    the extra predicates are re-checked.
    """
    best_doi = -1.0
    best: Optional[Tuple[int, ...]] = None
    visited: Set[State] = set()
    heap: List[Tuple[float, State]] = []
    for boundary in boundaries:
        bound, _ = pointer_best_below(space, boundary)
        heapq.heappush(heap, (-bound, boundary))
    stats.track_container("region-heap", lambda: container_bytes([s for _, s in heap]))
    while heap:
        negative_bound, state = heapq.heappop(heap)
        if -negative_bound <= best_doi:
            break  # no region left can beat the incumbent
        if state in visited:
            continue
        visited.add(state)
        stats.examined()
        if space.extra_feasible(state):
            doi = space.objective_value(state)
            if doi > best_doi:
                best_doi = doi
                best = space.prefs(state)
        for neighbor in space.vertical(state):
            if neighbor in visited:
                continue
            bound, _ = pointer_best_below(space, neighbor)
            if bound > best_doi:
                heapq.heappush(heap, (-bound, neighbor))
        stats.sample_memory()
    return best_doi, tuple(sorted(best)) if best is not None else None


def find_max_doi_below(
    space: SearchSpace,
    boundaries: Iterable[State],
    stats: SearchStats,
) -> Optional[Tuple[int, ...]]:
    """The shared second phase (C_FINDMAXDOI / D_FINDMAXDOI over regions).

    Boundaries are processed in decreasing group size; the
    BestExpectedDoi bound (best doi achievable by *any* state of the next
    group size) ends the scan early once it cannot beat the incumbent.
    """
    ordered = sorted(set(boundaries), key=len, reverse=True)
    if not ordered:
        return None
    if space.has_extra:
        _, best = _region_best(space, ordered, stats)
        return best
    best_doi = -1.0
    best: Optional[Tuple[int, ...]] = None
    current_group = len(ordered[0])
    for boundary in ordered:
        if len(boundary) < current_group:
            current_group = len(boundary)
            if best_doi > space.upper_bound(current_group):
                break
        stats.examined()
        doi, indices = pointer_best_below(space, boundary)
        if doi > best_doi:
            best_doi = doi
            best = indices
    return best


def greedy_extend(
    space: SearchSpace,
    state: State,
    stats: SearchStats,
    forbidden: Optional[Set[int]] = None,
) -> State:
    """First-fit ``Horizontal2`` growth (Figures 7, 10, 11).

    Repeatedly insert the highest-vector-parameter absent rank that keeps
    the state within budget, until no insertion fits. The fixed loop in
    the paper's Figure 7 (which never exits when no neighbor fits) is
    repaired here: the loop runs while an insertion *succeeded*.

    Runs on int masks: each pass scans the absent ranks in ascending
    order (skipping ``forbidden`` ones), prices each candidate's P-index
    mask with one budget call, and restarts from rank 0 after every
    insertion — the same candidates, in the same order, as the
    tuple-state reference in :mod:`repro.testing.reference`.
    """
    bits = space.pref_bits
    price = space.budget_mask
    limit = space.feasible_limit
    k = space.k
    rmask = pmask = 0
    for rank in state:
        rmask |= 1 << rank
        pmask |= bits[rank]
    grown = True
    inserted = False
    while grown:
        grown = False
        for rank in range(k):
            if (rmask >> rank) & 1 or (forbidden is not None and rank in forbidden):
                continue
            candidate = pmask | bits[rank]
            if price(candidate) <= limit:
                rmask |= 1 << rank
                pmask = candidate
                stats.moved()
                grown = inserted = True
                break
    return state_of(rmask) if inserted else state


class CQPAlgorithm(ABC):
    """Base class: wraps the search with timing and solution packaging."""

    name: str = ""
    exact: bool = False
    space_kind: str = "any"  # "cost", "doi", or "any"

    def solve(self, space: SearchSpace) -> Optional[CQPSolution]:
        """Run the search; ``None`` when no state satisfies the constraints."""
        if self.space_kind == "cost" and not space.budget_aligned:
            raise SearchError(
                "%s requires a budget-aligned vector (C or S), got %r"
                % (self.name, space.name)
            )
        stats = SearchStats(algorithm=self.name)
        evaluations_before = space.evaluator.evaluations
        watch = Stopwatch()
        try:
            with watch:
                indices = self._search(space, stats)
        finally:
            # Detach the memory-accounting closures so the finished
            # search's queues/boundary lists are not pinned alive
            # through the returned stats record.
            stats.release_containers()
        stats.wall_time_s = watch.elapsed
        # Parameter evaluations are tallied by the evaluator (cache hits
        # included — see CachedStateEvaluator), not by each algorithm.
        stats.evaluated(space.evaluator.evaluations - evaluations_before)
        if indices is None:
            return None
        stats.solutions_recorded += 1
        return space.solution_from_prefs(indices, self.name, stats)

    @abstractmethod
    def _search(
        self, space: SearchSpace, stats: SearchStats
    ) -> Optional[Tuple[int, ...]]:
        """Return the chosen P-indices, or ``None`` when infeasible."""


ALGORITHM_REGISTRY: Dict[str, Type[CQPAlgorithm]] = {}


def register(cls: Type[CQPAlgorithm]) -> Type[CQPAlgorithm]:
    """Class decorator adding an algorithm to the registry."""
    if not cls.name:
        raise ValueError("algorithm class %r has no name" % cls)
    if cls.name in ALGORITHM_REGISTRY:
        raise ValueError("duplicate algorithm name %r" % cls.name)
    ALGORITHM_REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str) -> CQPAlgorithm:
    """Instantiate a registered algorithm by name."""
    try:
        return ALGORITHM_REGISTRY[name]()
    except KeyError:
        raise SearchError(
            "unknown algorithm %r (known: %s)"
            % (name, ", ".join(sorted(ALGORITHM_REGISTRY)))
        ) from None


def paper_algorithms() -> List[str]:
    """The five algorithms the paper's experiments compare."""
    return ["d_maxdoi", "d_singlemaxdoi", "c_boundaries", "c_maxbounds", "d_heurdoi"]
