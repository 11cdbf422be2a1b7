"""Shared machinery for the Section 5 algorithms.

* :class:`CQPAlgorithm` — the ABC every algorithm implements, plus a
  registry keyed by algorithm name;
* :func:`pointer_best_below` — the C_FINDMAXDOI inner trick: the
  maximum-doi node below a boundary, found *without evaluating dois of
  intermediate nodes* (Figure 5's ``m0`` pointers);
* :func:`find_max_doi_below` — the shared second phase: pointer-based
  when the problem has no extra constraints, an exact bounded region
  search otherwise (Section 6's multi-constraint adaptation);
* :func:`best_expected_doi` — Figure 10's BestExpectedDoi bound on every
  round from a seed rank on;
* :func:`greedy_extend` — the first-fit ``Horizontal2`` loop used by all
  greedy algorithms.

Every loop runs on int masks (:mod:`repro.core.state`): a state travels
as its rank mask and the P-index mask the evaluator prices, and the
paper's ``prune(.)`` is a visited set of rank masks plus, where
boundaries are recorded, a :class:`~repro.core.state.BoundaryBook` of
packed rank words. The visit order is the paper's; the tuple-state loops
in :mod:`repro.testing.reference` are the call-for-call oracle
(``tests/core/test_mask_search.py``). Peak memory charges each queued or
recorded node ``node_bytes(range(group))``, as a rank tuple of its group
would be charged.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Set, Tuple, Type

from repro.core.frontier_cache import VerdictSpan
from repro.core.solution import CQPSolution
from repro.core.space import SearchSpace
from repro.core.state import Mask, State, mask_of, vertical_moves
from repro.core.stats import SearchStats, node_bytes
from repro.errors import SearchError
from repro.utils.timing import Stopwatch


def node_sizes(k: int) -> List[int]:
    """``node_bytes`` of one node of each group 0..k, for running totals."""
    return [node_bytes(range(group)) for group in range(k + 1)]


def pointer_best_below(space: SearchSpace, boundary: Mask) -> Tuple[float, Mask]:
    """Maximum-doi preference set below a boundary (C_FINDMAXDOI core).

    ``boundary`` is a rank mask; returns the doi and the P-index mask of
    the chosen set. For each slot, scanning from the slot's rank to the
    end of the vector, pick the un-used preference with the smallest
    P-index (P is doi-ordered, so smallest index = highest doi): the
    lowest set bit of the slot's suffix P-mask minus the used ones.
    Slots are processed from the most constrained (largest rank) down;
    the greedy choice is optimal because the slots' feasible ranges are
    nested and the conjunction function is monotone in each argument.

    Only valid on budget-aligned spaces: replacing a boundary rank by a
    later one can only lower the state's budget, so every set produced
    stays within budget.
    """
    suffix = space.suffix_bits
    used = 0
    rest = boundary
    while rest:
        rank = rest.bit_length() - 1
        rest ^= 1 << rank
        free = suffix[rank] & ~used
        if not free:  # cannot happen for a valid boundary
            raise SearchError("pointer search exhausted the vector")
        used |= free & -free
    return space.evaluator.doi_mask(used), used


def _region_best(
    space: SearchSpace,
    boundaries: List[State],
    stats: SearchStats,
) -> Tuple[float, Optional[Mask]]:
    """Exact best-doi *fully feasible* node below any boundary.

    Needed when the problem carries constraints beyond the budget (e.g.
    size bounds in Problem 3): the pointer trick ignores them. Explores
    the below-boundary regions best-first on the pointer upper bound,
    pruning regions that cannot beat the incumbent. States below a
    boundary are automatically within budget (aligned spaces), so only
    the extra predicates are re-checked. Equal bounds pop in rank-tuple
    order, through the word's :meth:`~repro.core.state.RankWords.lex_key`.
    """
    k = space.k
    words = space.words
    width = words.width
    bits = space.pref_bits
    sizes = node_sizes(k)
    best_doi = -1.0
    best: Optional[Mask] = None
    visited: Set[Mask] = set()
    # entry: (-bound, lex key, rank mask, P-index mask, group)
    heap: List[Tuple[float, int, Mask, Mask, int]] = []
    live = [0]
    for boundary in boundaries:
        ranks = mask_of(boundary)
        group = len(boundary)
        bound, _ = pointer_best_below(space, ranks)
        key = words.lex_key(words.pack(ranks), group)
        heapq.heappush(heap, (-bound, key, ranks, space.pref_mask(ranks), group))
        live[0] += sizes[group]
    stats.track_container("region-heap", lambda: live[0])
    while heap:
        negative_bound, key, ranks, pmask, group = heapq.heappop(heap)
        live[0] -= sizes[group]
        if -negative_bound <= best_doi:
            break  # no region left can beat the incumbent
        if ranks in visited:
            continue
        visited.add(ranks)
        stats.examined()
        if space.extra_feasible(pmask):
            doi = space.objective(pmask)
            if doi > best_doi:
                best_doi = doi
                best = pmask
        shift = k - group
        for rank, field in vertical_moves(ranks, k):
            neighbor = ranks + (1 << rank)
            if neighbor in visited:
                continue
            bound, _ = pointer_best_below(space, neighbor)
            if bound > best_doi:
                heapq.heappush(heap, (
                    -bound,
                    key + (1 << ((field + shift) * width)),
                    neighbor,
                    pmask ^ bits[rank] ^ bits[rank + 1],
                    group,
                ))
                live[0] += sizes[group]
        stats.sample_memory()
    return best_doi, best


def find_max_doi_below(
    space: SearchSpace,
    boundaries: Iterable[State],
    stats: SearchStats,
) -> Optional[Mask]:
    """The shared second phase (C_FINDMAXDOI / D_FINDMAXDOI over regions).

    ``boundaries`` come in the frontier format (rank tuples), each
    converted to a mask once. They are processed in decreasing group
    size — within a group in the iteration order of their tuple set,
    which decides among tied optima — and the BestExpectedDoi bound
    (best doi achievable by *any* state of the next group size) ends the
    scan early once it cannot beat the incumbent. Returns the P-index
    mask of the best set.
    """
    ordered = sorted(set(boundaries), key=len, reverse=True)
    if not ordered:
        return None
    if space.has_extra:
        _, best = _region_best(space, ordered, stats)
        return best
    best_doi = -1.0
    best: Optional[Mask] = None
    current_group = len(ordered[0])
    for boundary in ordered:
        if len(boundary) < current_group:
            current_group = len(boundary)
            if best_doi > space.upper_bound(current_group):
                break
        stats.examined()
        doi, pmask = pointer_best_below(space, mask_of(boundary))
        if doi > best_doi:
            best_doi = doi
            best = pmask
    return best


def best_expected_doi(space: SearchSpace, seed: int) -> float:
    """BestExpectedDoi (Figure 10 line 3.4): the doi of every preference
    from rank ``seed`` on, -1 past the end of the vector."""
    if seed >= space.k:
        return -1.0
    return space.evaluator.doi_mask(space.suffix_bits[seed])


def greedy_extend(
    space: SearchSpace,
    ranks: Mask,
    pmask: Mask,
    stats: SearchStats,
    forbidden: Mask = 0,
    verdicts: Optional[VerdictSpan] = None,
) -> Tuple[Mask, Mask]:
    """First-fit ``Horizontal2`` growth (Figures 7, 10, 11).

    Repeatedly insert the highest-vector-parameter absent rank that keeps
    the state within budget, until no insertion fits. The fixed loop in
    the paper's Figure 7 (which never exits when no neighbor fits) is
    repaired here: the loop runs while an insertion *succeeded*.

    Takes and returns a state as (rank mask, P-index mask). Each pass
    scans the absent ranks in ascending order (skipping the ranks set in
    ``forbidden``), prices each candidate with one budget call, and
    restarts from rank 0 after every insertion. ``verdicts``, when
    given, is widened to note every budget test.
    """
    bits = space.pref_bits
    price = space.budget
    limit = space.feasible_limit
    k = space.k
    blocked = ranks | forbidden
    passed = float("-inf")
    failed = float("inf")
    grown = True
    while grown:
        grown = False
        for rank in range(k):
            if (blocked >> rank) & 1:
                continue
            candidate = pmask | bits[rank]
            value = price(candidate)
            if value <= limit:
                if value > passed:
                    passed = value
                ranks |= 1 << rank
                blocked |= 1 << rank
                pmask = candidate
                stats.moved()
                grown = True
                break
            if value < failed:
                failed = value
    if verdicts is not None:
        verdicts.note(passed, failed)
    return ranks, pmask


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
                mask = self._search(space, stats)
        finally:
            # Detach the memory-accounting closures so the finished
            # search's queues/boundary lists are not pinned alive
            # through the returned stats record.
            stats.release_containers()
        stats.wall_time_s = watch.elapsed
        # Parameter evaluations are tallied by the evaluator (cache hits
        # included — see CachedStateEvaluator), not by each algorithm.
        stats.evaluated(space.evaluator.evaluations - evaluations_before)
        if mask is None:
            return None
        stats.solutions_recorded += 1
        return space.solution(mask, self.name, stats)

    @abstractmethod
    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        """Return the chosen P-index mask, or ``None`` when infeasible."""


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
