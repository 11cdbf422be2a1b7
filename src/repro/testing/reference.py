"""Tuple-state reference versions of the Section 5 loops.

Every Section 5 loop in :mod:`repro.core` runs on int bitmasks. These
are the straightforward rank-tuple loops they replaced, kept verbatim as
the oracle the mask loops are checked against call for call: same
result, same recorded states in the same order, same work counters
(states examined, transitions, neighbor batches, peak memory) and same
evaluator traffic (evaluations, cache hits and misses). See
``tests/core/test_mask_search.py``.

The module carries what those loops need and ``repro.core`` no longer
has: the rank-tuple state helpers and transitions of Section 5.1
(Tables 3–5), the tuple view of a :class:`~repro.core.space.SearchSpace`
(each call prices the state's P-index mask through the space, so the
traffic is the mask loops'), the numpy ``prune(.)`` book, and the plain
Formula 3/6/8 products over index sequences, through which the
brute-force oracle (:mod:`repro.testing.differential`) and the formula
checks (:mod:`repro.testing.invariants`) price, independent of the mask
kernel they check.

:func:`in_plan_order` is the execution oracle's half of this module:
it hands the row :class:`~repro.sql.executor.Executor` the planner's
join order, so the executor's rows and cost receipt pin those of any
engine that runs the planned tree (see ``tests/sql/test_columnar.py``).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import replace
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.problem import Constraints
from repro.core.solution import CQPSolution
from repro.core.space import SearchSpace, SpaceBundle
from repro.core.state import State, state_of
from repro.core.stats import SearchStats, node_bytes
from repro.errors import SearchError
from repro.sql.ast_nodes import GroupByHavingCount, QueryNode, SelectQuery, UnionAllQuery
from repro.sql.plan import IndexProbeNode, PlanNode, ScanNode
from repro.sql.planner import Planner
from repro.storage.database import Database
from repro.utils.rng import SeededRNG

_TOL = 1e-9

Indices = Tuple[int, ...]


# -- rank-tuple states (Section 5.1) -----------------------------------------------


def make_state(ranks: Iterable[int]) -> State:
    """Normalize an iterable of ranks into a canonical state tuple."""
    state = tuple(sorted(set(ranks)))
    if any(r < 0 for r in state):
        raise ValueError("ranks must be non-negative: %r" % (state,))
    return state


def group_size(state: State) -> int:
    """The paper's *group* of a node: its number of preferences (Def. 1)."""
    return len(state)


def is_below(state: State, origin: State) -> bool:
    """True when ``state`` is reachable from ``origin`` via Vertical moves:
    componentwise dominance of the sorted rank tuples."""
    if len(state) != len(origin):
        return False
    return all(s >= o for s, o in zip(state, origin))


def states_in_group(k: int, size: int) -> Iterable[State]:
    """Enumerate all states of a group (Table 3)."""
    return combinations(range(k), size)


# -- transitions (Tables 4 and 5) ---------------------------------------------------


def horizontal(state: State, k: int) -> Optional[State]:
    """The Horizontal neighbor: append the successor of the largest rank.

    ``None`` at the right edge of the space; an empty state's Horizontal
    neighbor is the first rank.
    """
    if not state:
        return (0,) if k > 0 else None
    last = state[-1]
    if last + 1 >= k:
        return None
    return state + (last + 1,)


def vertical(state: State, k: int) -> List[State]:
    """All Vertical neighbors: each rank replaced by its (absent)
    successor, ordered by the position replaced, rightmost first."""
    present = set(state)
    neighbors: List[State] = []
    for index in range(len(state) - 1, -1, -1):
        rank = state[index]
        successor = rank + 1
        if successor < k and successor not in present:
            replaced = state[:index] + (successor,) + state[index + 1 :]
            neighbors.append(make_state(replaced))
    return neighbors


def horizontal2(state: State, k: int) -> List[State]:
    """All Horizontal2 neighbors: every insertion of an absent rank, by
    ascending inserted rank (decreasing vector parameter)."""
    present = set(state)
    neighbors: List[State] = []
    for rank in range(k):
        if rank not in present:
            neighbors.append(make_state(state + (rank,)))
    return neighbors


def vertical_predecessors(state: State, k: int) -> List[State]:
    """Inverse Vertical moves: each rank replaced by its (absent)
    predecessor (boundary propositions 2–3)."""
    present = set(state)
    predecessors: List[State] = []
    for index, rank in enumerate(state):
        predecessor = rank - 1
        if predecessor >= 0 and predecessor not in present:
            replaced = state[:index] + (predecessor,) + state[index + 1 :]
            predecessors.append(make_state(replaced))
    return predecessors


# -- the plain formulas over index sequences ---------------------------------------


def _conflicted(evaluator, indices: Sequence[int]) -> bool:
    present = set(indices)
    return any(set(state_of(pair)) <= present for pair in evaluator.conflict_masks)


def doi(evaluator, indices: Sequence[int]) -> float:
    """doi of the conjunction (Formula 3), in the given index order."""
    if not indices:
        return 0.0
    return evaluator.algebra.conjunction_doi([evaluator.doi_values[i] for i in indices])


def cost(evaluator, indices: Sequence[int]) -> float:
    """Σ sub-query costs (Formula 6); the bare query's cost when empty."""
    if not indices:
        return evaluator.base_cost
    return sum(evaluator.cost_values[i] for i in indices)


def size(evaluator, indices: Sequence[int]) -> float:
    """size(Q) × Π reductions (Formula 8); 0 with a conflict pair."""
    if _conflicted(evaluator, indices):
        return 0.0
    return evaluator.base_size * math.prod(evaluator.reductions[i] for i in indices)


def size_independent(evaluator, indices: Sequence[int]) -> float:
    """The pure independence product, ignoring conflicts."""
    return evaluator.base_size * math.prod(evaluator.reductions[i] for i in indices)


# -- the tuple view of a search space ----------------------------------------------


def container_bytes(container: Iterable[State]) -> int:
    """Accounting size of a container of states (queue, boundary list...)."""
    return sum(node_bytes(state) for state in container)


def prefs(space: SearchSpace, state: State) -> Indices:
    """Translate a rank state to the P-indices it denotes."""
    return tuple(space.vector[rank] for rank in state)


def pref_mask(space: SearchSpace, state: State) -> int:
    """Translate a rank state to the bitmask of its P-indices."""
    bits = space.pref_bits
    mask = 0
    for rank in state:
        mask |= bits[rank]
    return mask


def budget_value(space: SearchSpace, state: State) -> float:
    return space.budget(pref_mask(space, state))


def within_budget(space: SearchSpace, state: State) -> bool:
    return budget_value(space, state) <= space.feasible_limit


def objective_value(space: SearchSpace, state: State) -> float:
    return space.objective(pref_mask(space, state))


def extra_feasible(space: SearchSpace, state: State) -> bool:
    if space.extra is None:
        return True
    return space.extra(pref_mask(space, state))


def fully_feasible(space: SearchSpace, state: State) -> bool:
    return within_budget(space, state) and extra_feasible(space, state)


class PruneBook:
    """Visited-set + below-boundary dominance pruning (``prune(.)``).

    Boundaries of a group live in a numpy matrix that grows by doubling;
    a state equal to a recorded boundary counts as "below" (covered).
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


# -- C-BOUNDARIES (Figure 5) ---------------------------------------------------------


def vertical_by_budget(
    space: SearchSpace, state: State, stats: Optional[SearchStats] = None
) -> List[State]:
    """The Vertical neighbors of ``state``, ordered by decreasing budget.

    Replicates ``neighbors.sort(key=budget_value, reverse=True)`` exactly
    (stable order for equal budgets) while evaluating the whole neighbor
    set in one batched estimator call.
    """
    neighbors = vertical(state, space.k)
    if len(neighbors) > 1:
        values = space.budget_many([pref_mask(space, neighbor) for neighbor in neighbors])
        if stats is not None:
            stats.neighbor_batches += 1
        order = sorted(
            range(len(neighbors)), key=values.__getitem__, reverse=True
        )
        neighbors = [neighbors[i] for i in order]
    return neighbors


def find_boundaries(
    space: SearchSpace,
    stats: SearchStats,
    seeds: Optional[Sequence[State]] = None,
) -> List[State]:
    """Phase 1: the breadth-first boundary sweep, on rank tuples.

    Same contract as :func:`repro.core.algorithms.c_boundaries.find_boundaries`,
    including the ``seeds=`` warm start.
    """
    boundaries: List[State] = []
    book = PruneBook()
    queue: "deque[State]" = deque()
    stats.track_container("RQ", lambda: container_bytes(queue))
    stats.track_container("Boundaries", lambda: container_bytes(boundaries))

    if space.k == 0:
        return boundaries
    warm = seeds is not None
    if seeds is None:
        seeds = ((0,),)
    for seed in seeds:
        book.mark(seed)
        queue.append(seed)
    while queue:
        state = queue.popleft()
        stats.examined()
        if book.below_any_boundary(state):
            continue  # a boundary recorded since enqueue covers this state
        if within_budget(space, state):
            boundaries.append(state)
            book.add_boundary(state)
            if warm:
                continue  # the next group is covered by its own seeds
            successor = horizontal(state, space.k)
            if successor is not None and not book.prune(successor):
                stats.moved()
                queue.append(successor)  # tail: next group, breadth-first
        else:
            neighbors = vertical_by_budget(space, state, stats)
            for neighbor in reversed(neighbors):
                if not book.prune(neighbor):
                    stats.moved()
                    queue.appendleft(neighbor)
        stats.sample_memory()
    return boundaries


def c_boundaries(space: SearchSpace, stats: SearchStats) -> Optional[Indices]:
    """C-BOUNDARIES' search: the cold sweep (a frontier memo on the
    space is a serving cache, not part of the paper's loop)."""
    from repro.core.frontier_cache import canonical_frontier

    frontier = canonical_frontier(find_boundaries(space, stats))
    return find_max_doi_below(space, frontier, stats)


# -- the shared second phase (C_FINDMAXDOI) ------------------------------------------


def pointer_best_below(space: SearchSpace, boundary: State) -> Tuple[float, Indices]:
    """Maximum-doi preference set below ``boundary``: per slot, from the
    most constrained down, the un-used preference with the smallest
    P-index among the vector from the slot's rank on."""
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
        if best_pref is None:
            raise SearchError("pointer search exhausted the vector")
        used.add(best_pref)
        chosen.append(best_pref)
    indices = tuple(sorted(chosen))
    return space.evaluator.doi(indices), indices


def _region_best(
    space: SearchSpace,
    boundaries: Sequence[State],
    stats: SearchStats,
) -> Tuple[float, Optional[Indices]]:
    """Exact best-doi fully feasible node below any boundary, best-first
    on the pointer bound."""
    best_doi = -1.0
    best: Optional[Indices] = None
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
        if extra_feasible(space, state):
            value = objective_value(space, state)
            if value > best_doi:
                best_doi = value
                best = prefs(space, state)
        for neighbor in vertical(state, space.k):
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
) -> Optional[Indices]:
    """Boundaries by decreasing group size, BestExpectedDoi early exit."""
    ordered = sorted(set(boundaries), key=len, reverse=True)
    if not ordered:
        return None
    if space.has_extra:
        _, best = _region_best(space, ordered, stats)
        return best
    best_doi = -1.0
    best: Optional[Indices] = None
    current_group = len(ordered[0])
    for boundary in ordered:
        if len(boundary) < current_group:
            current_group = len(boundary)
            if best_doi > space.upper_bound(current_group):
                break
        stats.examined()
        value, indices = pointer_best_below(space, boundary)
        if value > best_doi:
            best_doi = value
            best = indices
    return best


# -- greedy growth and C-MAXBOUNDS (Figure 7) ----------------------------------------


def greedy_extend(
    space: SearchSpace,
    state: State,
    stats: SearchStats,
    forbidden: Optional[Set[int]] = None,
) -> State:
    """First-fit ``Horizontal2`` growth, on rank tuples."""
    current = state
    grown = True
    while grown:
        grown = False
        for candidate in horizontal2(current, space.k):
            inserted = (set(candidate) - set(current)).pop()
            if forbidden is not None and inserted in forbidden:
                continue
            if within_budget(space, candidate):
                current = candidate
                stats.moved()
                grown = True
                break
    return current


def _find_max_bound(
    space: SearchSpace,
    seed_rank: int,
    max_bounds: List[State],
    seen_bounds: Set[State],
    book: PruneBook,
    stats: SearchStats,
    queue: "deque[State]",
) -> None:
    """One round of FINDMAXBOUND: grow maximal boundaries containing the seed."""
    start: State = (seed_rank,)
    if book.seen(start):
        return
    book.mark(start)
    queue.append(start)
    while queue:
        state = queue.popleft()
        stats.examined()
        if not within_budget(space, state):
            continue
        grown = greedy_extend(space, state, stats)
        if grown not in seen_bounds:
            seen_bounds.add(grown)
            max_bounds.insert(0, grown)  # push: most recent at the head
            book.add_boundary(grown)
        for neighbor in vertical(grown, space.k):
            if seed_rank not in neighbor:
                continue  # this round only builds boundaries containing c_k
            if not book.prune(neighbor):
                stats.moved()
                queue.append(neighbor)
        stats.sample_memory()


def find_max_bounds(space: SearchSpace, stats: SearchStats) -> List[State]:
    """C-MAXBOUNDS' phase 1: the maximal boundaries, most recent first."""
    max_bounds: List[State] = []
    seen_bounds: Set[State] = set()
    book = PruneBook()
    queue: "deque[State]" = deque()
    stats.track_container("RQ", lambda: container_bytes(queue))
    stats.track_container("MaxBounds", lambda: container_bytes(max_bounds))

    last_solution_size = 0
    seed = 0
    while seed < space.k and seed + last_solution_size < space.k:
        _find_max_bound(space, seed, max_bounds, seen_bounds, book, stats, queue)
        if max_bounds:
            last_solution_size = len(max_bounds[0])
        seed += 1
    return max_bounds


def c_maxbounds(space: SearchSpace, stats: SearchStats) -> Optional[Indices]:
    """C-MAXBOUNDS' search."""
    return find_max_doi_below(space, find_max_bounds(space, stats), stats)


# -- D-MAXDOI (Figure 9) -------------------------------------------------------------


def find_optimal(space: SearchSpace, stats: SearchStats) -> List[State]:
    """Phase 1: collect chain-maximal feasible states (FINDOPTIMAL)."""
    solutions: List[State] = []
    book = PruneBook()
    queue: "deque[State]" = deque()
    stats.track_container("RQ", lambda: container_bytes(queue))
    stats.track_container("Solutions", lambda: container_bytes(solutions))

    if space.k == 0:
        return solutions
    start: State = (0,)
    book.mark(start)
    queue.append(start)
    while queue:
        state = queue.popleft()
        stats.examined()
        if within_budget(space, state):
            successor = horizontal(state, space.k)
            while successor is not None and within_budget(space, successor):
                stats.moved()
                state = successor
                successor = horizontal(state, space.k)
            solutions.append(state)
            branch_point = successor if successor is not None else state
        else:
            branch_point = state
        for neighbor in vertical(branch_point, space.k):
            if not book.prune(neighbor):
                stats.moved()
                queue.appendleft(neighbor)
        stats.sample_memory()
    return solutions


def d_find_max_doi(
    space: SearchSpace, solutions: List[State], stats: SearchStats
) -> Optional[Indices]:
    """Phase 2: pick the best recorded solution (D_FINDMAXDOI)."""
    ordered = sorted(set(solutions), key=len, reverse=True)
    best_doi = -1.0
    best: Optional[Indices] = None
    current_group = len(ordered[0]) if ordered else 0
    for state in ordered:
        if len(state) < current_group:
            current_group = len(state)
            if best_doi > space.upper_bound(current_group):
                break
        stats.examined()
        if not extra_feasible(space, state):
            continue
        value = objective_value(space, state)
        if value > best_doi:
            best_doi = value
            best = prefs(space, state)
    return tuple(sorted(best)) if best is not None else None


def d_maxdoi(space: SearchSpace, stats: SearchStats) -> Optional[Indices]:
    """D-MAXDOI's search."""
    return d_find_max_doi(space, find_optimal(space, stats), stats)


# -- D-SINGLEMAXDOI (Figure 10) and D-HEURDOI (Figure 11) ----------------------------


def suffix_bound(space: SearchSpace, seed: int) -> float:
    """BestExpectedDoi: doi of every preference from rank ``seed`` on."""
    suffix = [space.vector[rank] for rank in range(seed, space.k)]
    if not suffix:
        return -1.0
    return space.evaluator.doi(tuple(suffix))


def d_singlemaxdoi(space: SearchSpace, stats: SearchStats) -> Optional[Indices]:
    """D-SINGLEMAXDOI's search."""
    best_doi = -1.0
    best: Optional[Indices] = None
    book = PruneBook()
    queue: "deque[State]" = deque()
    stats.track_container("RQ", lambda: container_bytes(queue))

    seed = 0
    while seed < space.k:
        if best is not None and best_doi > suffix_bound(space, seed):
            break
        start: State = (seed,)
        if not book.prune(start):
            queue.append(start)
        while queue:
            state = queue.popleft()
            stats.examined()
            if within_budget(space, state):
                state = greedy_extend(space, state, stats)
                if fully_feasible(space, state):
                    value = objective_value(space, state)
                    if value > best_doi:
                        best_doi = value
                        best = prefs(space, state)
            for neighbor in vertical(state, space.k):
                if seed not in neighbor:
                    continue  # rounds only grow states containing the seed
                if not book.prune(neighbor):
                    stats.moved()
                    queue.append(neighbor)
            stats.sample_memory()
        seed += 1
    return tuple(sorted(best)) if best is not None else None


def _cheapest_rank(space: SearchSpace, state: State, seed: int) -> int:
    candidates = [rank for rank in state if rank != seed]
    return min(candidates, key=lambda rank: space.evaluator.cost_values[space.vector[rank]])


def d_heurdoi(space: SearchSpace, stats: SearchStats) -> Optional[Indices]:
    """D-HEURDOI's search."""
    best_doi = -1.0
    best: Optional[Indices] = None

    def record(state: State) -> None:
        nonlocal best_doi, best
        stats.examined()
        if not fully_feasible(space, state):
            return
        value = objective_value(space, state)
        if value > best_doi:
            best_doi = value
            best = prefs(space, state)

    seed = 0
    while seed < space.k:
        if best is not None and best_doi > suffix_bound(space, seed):
            break
        start: State = (seed,)
        if within_budget(space, start):
            current = greedy_extend(space, start, stats)
            record(current)
            forbidden: Set[int] = set()
            stats.track_container(
                "current", lambda: node_bytes(current) + 8 * len(forbidden)
            )
            while len(current) > 1:
                dropped = _cheapest_rank(space, current, seed)
                forbidden.add(dropped)
                reduced = tuple(rank for rank in current if rank != dropped)
                current = greedy_extend(space, reduced, stats, forbidden=forbidden)
                record(current)
                stats.sample_memory()
        else:
            record(start)  # unreachable budget: still counts the visit
        seed += 1
    return tuple(sorted(best)) if best is not None else None


# -- the exhaustive baseline and the metaheuristics ----------------------------------


def exhaustive(space: SearchSpace, stats: SearchStats) -> Optional[Indices]:
    """Every non-empty state, group by group in lexicographic order."""
    best_doi = -1.0
    best: Optional[Indices] = None
    for group in range(1, space.k + 1):
        for state in combinations(range(space.k), group):
            stats.examined()
            if not fully_feasible(space, state):
                continue
            value = objective_value(space, state)
            if value > best_doi:
                best_doi = value
                best = prefs(space, state)
    return tuple(sorted(best)) if best is not None else None


def _score(space: SearchSpace, state: State, stats: SearchStats) -> float:
    stats.examined()
    if not state or not fully_feasible(space, state):
        return -1.0
    return objective_value(space, state)


def _flip(state: State, rank: int) -> State:
    present = set(state)
    if rank in present:
        present.remove(rank)
    else:
        present.add(rank)
    return make_state(present)


def _initial(space: SearchSpace, rng: SeededRNG) -> State:
    for rank in rng.shuffled(list(range(space.k))):
        state: State = (rank,)
        if within_budget(space, state):
            return state
    return ()


def simulated_annealing(
    space: SearchSpace,
    stats: SearchStats,
    seed: int = 0,
    steps: int = 2000,
    start_temperature: float = 0.1,
    cooling: float = 0.995,
) -> Optional[Indices]:
    """Simulated annealing over single-rank flips."""
    if space.k == 0:
        return None
    rng = SeededRNG(seed).child("sa")
    current = _initial(space, rng)
    current_score = _score(space, current, stats)
    best, best_score = current, current_score
    temperature = start_temperature
    for _ in range(steps):
        candidate = _flip(current, rng.randint(0, space.k - 1))
        stats.moved()
        candidate_score = _score(space, candidate, stats)
        delta = candidate_score - current_score
        if delta >= 0 or rng.random() < math.exp(delta / max(temperature, 1e-12)):
            current, current_score = candidate, candidate_score
            if current_score > best_score:
                best, best_score = current, current_score
        temperature *= cooling
    if best_score < 0:
        return None
    return tuple(sorted(prefs(space, best)))


def tabu(
    space: SearchSpace,
    stats: SearchStats,
    seed: int = 0,
    iterations: int = 200,
    tenure: int = 8,
) -> Optional[Indices]:
    """Steepest ascent over flips with a fixed-length tabu list."""
    if space.k == 0:
        return None
    rng = SeededRNG(seed).child("tabu")
    current = _initial(space, rng)
    best = current
    best_score = _score(space, current, stats)
    tabu_list: List[int] = []
    for _ in range(iterations):
        candidates = []
        for rank in range(space.k):
            if rank in tabu_list:
                continue
            neighbor = _flip(current, rank)
            stats.moved()
            candidates.append((_score(space, neighbor, stats), rank, neighbor))
        if not candidates:
            break
        score, rank, neighbor = max(candidates)
        current = neighbor
        tabu_list.append(rank)
        if len(tabu_list) > tenure:
            tabu_list.pop(0)
        if score > best_score:
            best, best_score = current, score
    if best_score < 0:
        return None
    return tuple(sorted(prefs(space, best)))


def genetic(
    space: SearchSpace,
    stats: SearchStats,
    seed: int = 0,
    population: int = 40,
    generations: int = 60,
    mutation_rate: float = 0.05,
) -> Optional[Indices]:
    """Tournament-selection GA over rank subsets."""
    if space.k == 0:
        return None
    k = space.k
    rng = SeededRNG(seed).child("ga")

    def random_member() -> State:
        return make_state([rank for rank in range(k) if rng.random() < 0.25])

    def crossover(a: State, b: State) -> State:
        point = rng.randint(0, k - 1)
        return make_state([r for r in a if r <= point] + [r for r in b if r > point])

    def mutate(state: State) -> State:
        ranks = set(state)
        for rank in range(k):
            if rng.random() < mutation_rate:
                ranks.symmetric_difference_update({rank})
        return make_state(ranks)

    members = [random_member() for _ in range(population)]
    members.append(_initial(space, rng))
    best: Optional[State] = None
    best_score = -1.0
    for _ in range(generations):
        scored = [(_score(space, member, stats), member) for member in members]
        for score, member in scored:
            if score > best_score:
                best_score, best = score, member
        next_generation: List[State] = []
        while len(next_generation) < population:
            contenders = rng.sample(scored, min(3, len(scored)))
            _, parent_a = max(contenders)
            contenders = rng.sample(scored, min(3, len(scored)))
            _, parent_b = max(contenders)
            next_generation.append(mutate(crossover(parent_a, parent_b)))
            stats.moved()
        members = next_generation
    if best is None or best_score < 0:
        return None
    return tuple(sorted(prefs(space, best)))


# -- the Problem 4-6 descent and the Pareto front ------------------------------------


def minimal_feasible_min_cost(bundle: SpaceBundle, stats: SearchStats) -> Optional[Indices]:
    """The minimal-state min-cost descent over P-index tuples, in
    lexicographic order (same contract as
    :func:`repro.core.adapters.minimal_feasible_min_cost`)."""
    constraints = bundle.problem.constraints
    evaluator = bundle.evaluator
    k = bundle.k

    def monotone_feasible(indices: Indices) -> bool:
        if constraints.dmin is not None:
            if evaluator.doi(indices) < constraints.dmin * (1 - _TOL) - _TOL:
                return False
        if constraints.smax is not None:
            if evaluator.size(indices) > constraints.smax * (1 + _TOL) + _TOL:
                return False
        return True

    def passes_smin(indices: Indices) -> bool:
        if constraints.smin is None:
            return True
        return evaluator.size(indices) >= constraints.smin * (1 - _TOL) - _TOL

    best_cost = float("inf")
    best: Optional[Indices] = None

    def descend(state: Indices, start: int) -> None:
        nonlocal best_cost, best
        stats.examined()
        value = evaluator.cost(state)
        if state and value >= best_cost:
            return  # supersets only cost more
        if monotone_feasible(state):
            if passes_smin(state) and value < best_cost:
                best_cost = value
                best = state
            return  # minimality: supersets are never cheaper
        for index in range(start, k):
            descend(state + (index,), index + 1)

    descend((), 0)
    return best


def pareto_front(
    evaluator, size_constraints: Optional[Constraints] = None
) -> List[CQPSolution]:
    """The exact (doi ↑, cost ↓) front over index tuples (same contract
    as :func:`repro.core.pareto.pareto_front`, without the K guard)."""

    def feasible_by_size(indices: Indices) -> bool:
        if size_constraints is None or not size_constraints.has_size_bounds:
            return True
        value = evaluator.size(indices)
        if size_constraints.smin is not None and value < size_constraints.smin * (1 - _TOL) - _TOL:
            return False
        if size_constraints.smax is not None and value > size_constraints.smax * (1 + _TOL) + _TOL:
            return False
        return True

    k = len(evaluator)
    candidates = []
    for group in range(1, k + 1):
        for state in combinations(range(k), group):
            if not feasible_by_size(state):
                continue
            candidates.append((evaluator.cost(state), -evaluator.doi(state), state))
    candidates.sort()
    front: List[CQPSolution] = []
    best_doi = -1.0
    for value, negative_doi, state in candidates:
        if -negative_doi > best_doi + _TOL:
            best_doi = -negative_doi
            front.append(
                CQPSolution(
                    pref_indices=state,
                    doi=best_doi,
                    cost=value,
                    size=evaluator.size(state),
                    algorithm="pareto",
                    stats=SearchStats(algorithm="pareto"),
                )
            )
    return front


# -- execution: the planner's join order ---------------------------------------------


def _leaf_bindings(plan: PlanNode) -> List[str]:
    """The bindings of ``plan``'s access paths, left to right."""
    if isinstance(plan, (ScanNode, IndexProbeNode)):
        return [plan.binding]
    return [binding for child in plan.children() for binding in _leaf_bindings(child)]


def in_plan_order(database: Database, query: QueryNode) -> QueryNode:
    """``query`` with every SELECT's FROM list in the planner's join order.

    The row :class:`~repro.sql.executor.Executor` joins in FROM order
    and applies each predicate as soon as its tables are bound, like
    the planned tree, so ``Executor(database).execute(in_plan_order(
    database, query))`` returns the planned engine's rows in order and
    its full receipt, ``rows_processed`` included. UNION ALL branches
    are reordered one by one; the HAVING COUNT wrapper is kept.
    """
    if isinstance(query, SelectQuery):
        tables = {table.binding_name: table for table in query.from_tables}
        order = _leaf_bindings(Planner(database).plan(query))
        return replace(query, from_tables=tuple(tables[b] for b in order))
    if isinstance(query, UnionAllQuery):
        return UnionAllQuery(
            tuple(in_plan_order(database, sub) for sub in query.subqueries)
        )
    if isinstance(query, GroupByHavingCount):
        return replace(query, source=in_plan_order(database, query.source))
    raise TypeError("cannot reorder %r" % (query,))
