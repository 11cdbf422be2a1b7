"""Solving every CQP problem of Table 1 (Section 6).

The Section 5 algorithms are presented on Problem 2; per Section 6 the
other problems reuse them after re-orienting the transitions:

* **Problems 1–3** (maximize doi): the same algorithms run unchanged on
  a re-bound space — C under a cost bound, S under a size bound (the
  direction flip of Section 6), D for the doi-space algorithms. A
  secondary constraint (Problem 3's size window, Problem 1's smax) is
  handled in the second phase: the exact algorithms switch from the
  pointer trick to a bounded below-boundary region search, the
  greedy ones simply track the best *fully* feasible state visited.

* **Problems 4–6** (minimize cost): cost grows with preference inclusion
  (Formula 7), so the optimum lies on the *minimal* states satisfying
  the inclusion-monotone constraints (doi ≥ dmin grows with inclusion,
  size ≤ smax shrinks toward it). :func:`minimal_feasible_min_cost`
  enumerates exactly those minimal states with cost-based
  branch-and-bound pruning; the anti-monotone leftover (size ≥ smin) is
  checked at the minimal states, where it is decisive: if a minimal
  state fails it, every feasible superset fails it harder.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.algorithms.base import get_algorithm
from repro.core.preference_space import PreferenceSpace
from repro.core.problem import CQPProblem, Parameter
from repro.core.solution import CQPSolution
from repro.core.space import SearchSpace, SpaceBundle
from repro.core.state import Mask
from repro.core.stats import SearchStats
from repro.errors import SearchError
from repro.utils.timing import Stopwatch

_TOL = 1e-9

# Which vector each algorithm family runs on (Section 6's "appropriate
# choice of direction" resolves to a vector choice here).
_DOI_VECTOR_ALGORITHMS = {"d_maxdoi", "d_singlemaxdoi", "d_heurdoi"}


def recommended_algorithm(problem: CQPProblem) -> str:
    """The default algorithm for a problem.

    Problem 2's single monotone constraint is where the greedy
    C-MAXBOUNDS shines (Figures 12/14). With a size *window* (Problems 1
    and 3) the feasible region is a band, and algorithms that only keep
    *maximal* boundaries can sit entirely past the band's far edge and
    miss it (every maximal state over-filters below smin/size 0) — the
    exact C-BOUNDARIES records boundaries in every group, and its region
    second phase searches the band exactly. Cost-minimization problems
    use the dedicated minimal-state search regardless.
    """
    if problem.objective is not Parameter.DOI:
        return "min_cost"
    if problem.constraints.has_size_bounds:
        return "c_boundaries"
    return "c_maxbounds"


def space_for_algorithm(bundle: SpaceBundle, algorithm: str) -> SearchSpace:
    """The search space an algorithm should run on for this problem."""
    if bundle.problem.objective is not Parameter.DOI:
        raise SearchError(
            "the Section 5 algorithms maximize doi; use solve() for Problems 4-6"
        )
    if algorithm in _DOI_VECTOR_ALGORITHMS:
        return bundle.doi_space()
    return bundle.aligned_space()


def minimal_feasible_min_cost(
    bundle: SpaceBundle, stats: SearchStats
) -> Optional[Mask]:
    """Exact minimum-cost search for the cost-minimization problems.

    Enumerates subsets of P (as P-index masks) in lexicographic order,
    descending into a branch only while it is still infeasible (a
    feasible state's proper supersets cost strictly more — Formula 7 —
    so they are never optimal) and while its cost undercuts the
    incumbent. Returns the P-index mask of the cheapest feasible set.
    """
    constraints = bundle.problem.constraints
    evaluator = bundle.evaluator
    k = bundle.k

    def monotone_feasible(mask: Mask) -> bool:
        if constraints.dmin is not None:
            if evaluator.doi_mask(mask) < constraints.dmin * (1 - _TOL) - _TOL:
                return False
        if constraints.smax is not None:
            if evaluator.size_mask(mask) > constraints.smax * (1 + _TOL) + _TOL:
                return False
        return True

    def passes_smin(mask: Mask) -> bool:
        if constraints.smin is None:
            return True
        return evaluator.size_mask(mask) >= constraints.smin * (1 - _TOL) - _TOL

    best_cost = float("inf")
    best: Optional[Mask] = None
    # Depth-first over (mask, first index that may join it), children
    # pushed last-first so they pop in ascending index order: the visit
    # order of the recursive enumeration, with no self-referencing
    # closure left behind as a reference cycle.
    stack: List[Tuple[Mask, int]] = [(0, 0)]
    while stack:
        mask, start = stack.pop()
        stats.examined()
        cost = evaluator.cost_mask(mask)
        if mask and cost >= best_cost:
            continue  # supersets only cost more
        if monotone_feasible(mask):
            if passes_smin(mask) and cost < best_cost:
                best_cost = cost
                best = mask
            continue  # minimality: supersets are never cheaper
        for index in range(k - 1, start - 1, -1):
            stack.append((mask | (1 << index), index + 1))
    return best


def solve(
    pspace: PreferenceSpace,
    problem: CQPProblem,
    algorithm: str = "c_maxbounds",
    frontier_cache=None,
) -> Optional[CQPSolution]:
    """Solve any Table 1 problem over an extracted preference space.

    For doi-maximization problems ``algorithm`` names any registered
    Section 5 algorithm; for cost-minimization problems the dedicated
    minimal-state search runs and ``algorithm`` is ignored.
    Returns ``None`` when no personalized query satisfies the
    constraints. Under an enabled
    :class:`~repro.core.frontier_cache.FrontierCache` every solve of one
    ``pspace`` object shares its per-state parameter evaluations (every
    algorithm, including the Problem 4-6 minimal-state search; see
    :class:`~repro.core.space.SpaceBundle`), and the C-space phase 1 is
    served or warm-started from results recorded under other limits.
    """
    bundle = SpaceBundle(pspace, problem, frontier_cache=frontier_cache)
    if problem.objective is Parameter.DOI:
        space = space_for_algorithm(bundle, algorithm)
        return get_algorithm(algorithm).solve(space)

    stats = SearchStats(algorithm="min_cost")
    evaluations_before = bundle.evaluator.evaluations
    watch = Stopwatch()
    with watch:
        mask = minimal_feasible_min_cost(bundle, stats)
    stats.wall_time_s = watch.elapsed
    stats.evaluated(bundle.evaluator.evaluations - evaluations_before)
    if mask is None:
        return None
    stats.solutions_recorded += 1
    return CQPSolution.priced(bundle.evaluator, mask, "min_cost", stats)


def _aligned_limit(problem: CQPProblem) -> float:
    """The budget-axis limit a problem's aligned space carries."""
    constraints = problem.constraints
    if constraints.cmax is not None:
        return constraints.cmax
    return -constraints.smin


def solve_many(
    pspace: PreferenceSpace,
    problems: Sequence[CQPProblem],
    algorithm: str = "c_maxbounds",
    algorithms: Optional[Sequence[Optional[str]]] = None,
    frontier_cache=None,
) -> List[Optional[CQPSolution]]:
    """Solve many problems over one preference space, sharing structure.

    The batched twin of :func:`solve`, for the constraint-sweep and
    batched-service regimes where one space is solved under many
    constraint values. Three layers of sharing, all receipt-preserving:

    * **deduplication** — identical ``(problem, algorithm)`` requests
      are solved once and fan the same solution out to every position;
    * **stacked frontier priming** — budget-aligned C-BOUNDARIES solves
      are grouped per budget axis and their canonical frontiers computed
      in one numpy program (:mod:`repro.core.algorithms.batch`), primed
      with their verdict spans into the axis's
      :class:`~repro.core.frontier_cache.FrontierMemo` so each solve
      takes the hit path and runs only phase 2;
    * **warm chaining** — when the stacked kernel cannot serve an axis
      (K too large, cache disabled), unique solves still
      run in descending-limit order so each sweep warm-starts from the
      previous frontier.

    ``algorithms`` optionally overrides the algorithm per problem (None
    entries fall back to ``algorithm``). Results come back in input
    order; duplicate requests share one solution object. When no
    ``frontier_cache`` is given a batch-local cache carries the memos,
    and the batch's solves share ``pspace``'s evaluator; a
    caller-supplied cache (including a disabled 0-byte one) is used
    as-is, so cache semantics match looping :func:`solve`.
    """
    from repro.core.algorithms.batch import stacked_entries, stacked_supported
    from repro.core.frontier_cache import FrontierCache

    problems = list(problems)
    if algorithms is None:
        resolved = [algorithm] * len(problems)
    else:
        resolved = [alg if alg is not None else algorithm for alg in algorithms]
        if len(resolved) != len(problems):
            raise SearchError(
                "solve_many got %d problems but %d algorithms"
                % (len(problems), len(resolved))
            )
    if not problems:
        return []
    cache = frontier_cache if frontier_cache is not None else FrontierCache()

    unique: Dict[Tuple[CQPProblem, str], Optional[CQPSolution]] = {}
    for problem, alg in zip(problems, resolved):
        unique.setdefault((problem, alg), None)

    # Partition the unique work: budget-aligned doi solves share an axis
    # (frontier priming / warm chaining); everything else — the D-vector
    # algorithms and the Problem 4-6 minimal-state search — shares only
    # the evaluator through the cache.
    aligned: Dict[str, List[Tuple[CQPProblem, str]]] = {}
    rest: List[Tuple[CQPProblem, str]] = []
    for problem, alg in unique:
        if problem.objective is Parameter.DOI and alg not in _DOI_VECTOR_ALGORITHMS:
            axis = "cost" if problem.constraints.cmax is not None else "size"
            aligned.setdefault(axis, []).append((problem, alg))
        else:
            rest.append((problem, alg))

    for axis_entries in aligned.values():
        # Descending limit order: each solve either hits a primed
        # frontier or warm-starts from the previous (looser) one.
        axis_entries.sort(key=lambda entry: _aligned_limit(entry[0]), reverse=True)
        primed: Dict[float, Tuple] = {}
        memo = None
        boundary_limits = [
            _aligned_limit(problem)
            for problem, alg in axis_entries
            if alg == "c_boundaries"
        ]
        # The 2^K table pays for itself only when it serves several
        # boundary sweeps under different limits; solves that share one
        # limit are served by the first one's frontier memo entry, and a
        # lone limit keeps the plain/warm-chain path.
        if len(set(boundary_limits)) > 1:
            bundle = SpaceBundle(pspace, axis_entries[0][0], frontier_cache=cache)
            space = bundle.aligned_space()
            memo = space.frontier
            if memo is not None and stacked_supported(space):
                primed = stacked_entries(space, boundary_limits)
        for problem, alg in axis_entries:
            limit = _aligned_limit(problem)
            if memo is not None and alg == "c_boundaries" and limit in primed:
                # Stored immediately before its solve so the memo's LRU
                # can never evict a primed frontier before it is used.
                memo.store(*primed[limit])
            unique[(problem, alg)] = solve(pspace, problem, alg, frontier_cache=cache)

    for problem, alg in rest:
        unique[(problem, alg)] = solve(pspace, problem, alg, frontier_cache=cache)

    return [unique[(problem, alg)] for problem, alg in zip(problems, resolved)]
