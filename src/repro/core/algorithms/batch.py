"""Structural batching: many limits, one numpy program.

The constraint-sweep regime (Figure 12 and every budget-tuning user)
solves the *same* budget-aligned space under a ladder of limits. The
breadth-first sweep of :mod:`c_boundaries` walks that space one state at
a time per limit; this module replaces the whole ladder's phase 1 with
one vectorized program over **stacked mask vectors**:

1. The budget of every state in the space is tabulated at once —
   ``2^K`` masks through the stacked evaluator kernels
   (:meth:`~repro.core.estimation.StateEvaluator.cost_mask_stacked` /
   ``size_independent_mask_stacked``), each figure bit-identical to the
   scalar kernel's.
2. For each limit, the **canonical frontier** is read off the table
   directly. In a budget-aligned space the feasible set of each group
   is up-closed under componentwise rank increase (a Vertical move
   never raises the budget), so the canonical frontier — the minimal
   boundary set ``canonical_frontier`` reduces every sweep to — is
   exactly the set of feasible states none of whose unit predecessors
   (one rank component decremented) is feasible. That membership test
   is K vectorized lookups per limit; Vertical neighbor pricing,
   dominance reduction and frontier construction all collapse into it.
3. Frontiers are truncated at the first group with no feasible state,
   replicating the sweep's Proposition-5 stopping rule verbatim (the
   groups with feasible states form a prefix whenever per-preference
   budget contributions are nonnegative, making the truncation a no-op
   — but equality with the sweep must not depend on that).

Because the stored frontier is a property of the (space, limit) pair
alone (see :func:`~repro.core.frontier_cache.canonical_frontier`), a
frontier computed here can prime a :class:`FrontierMemo` and the
C-BOUNDARIES solve then takes its hit path — phase 2 and the receipt
are untouched. The table also gives each frontier its verdict span
(:func:`stacked_entries`): between the nearest tabulated budgets at or
below and above the feasible limit no state changes side, so the
frontier holds for every feasible limit in that interval.
``tests/core/test_batch_kernel.py`` property-checks frontier equality
against cold sweeps across both budget axes.

The table costs ``O(2^K)`` memory, so the kernel is gated at
``MAX_STACKED_K``; larger spaces fall back to warm-chained sweeps
(descending-limit solve order against a shared memo), which the
frontier cache already proves equivalent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.frontier_cache import Frontier
from repro.core.space import SearchSpace, feasible_limit
from repro.core.state import State

__all__ = [
    "MAX_STACKED_K",
    "stacked_supported",
    "budget_table",
    "stacked_entries",
    "stacked_frontiers",
]

# 2^20 float64 budgets = 8 MiB per table; beyond that the table stops
# paying for itself against the warm-chained sweep fallback.
MAX_STACKED_K = 20


def stacked_supported(space: SearchSpace) -> bool:
    """True when the stacked kernel can serve this space's frontiers."""
    return (
        space.budget_aligned
        and space.name in ("cost", "size")
        and 1 <= space.k <= MAX_STACKED_K
    )


def budget_table(space: SearchSpace) -> np.ndarray:
    """Budget of every rank-mask state of ``space``, in one program.

    Index ``m`` of the result is the budget of the rank state whose set
    bits are ``m``'s — computed through the stacked evaluator kernel in
    ascending *P-index* order, the exact gather order of the scalar
    ``space.budget``, so every entry is bit-identical to pricing that
    state's P-index mask one at a time.
    """
    if not stacked_supported(space):
        raise ValueError("space %r does not support the stacked kernel" % space.name)
    k = space.k
    rank_masks = np.arange(1 << k, dtype=np.int64)
    # Translate rank masks to P-index masks: rank r denotes preference
    # space.vector[r], so bit r of a rank mask sets bit vector[r].
    pref_masks = np.zeros(1 << k, dtype=np.int64)
    for rank, pref in enumerate(space.vector):
        pref_masks |= ((rank_masks >> rank) & 1) << pref
    evaluator = space.evaluator
    if space.name == "cost":
        return evaluator.cost_mask_stacked(pref_masks)
    # size axis: budget = -size_independent (the Section 6 direction flip)
    return -evaluator.size_independent_mask_stacked(pref_masks)


def stacked_frontiers(
    space: SearchSpace, limits: Sequence[float]
) -> Dict[float, Frontier]:
    """Canonical frontiers of ``space`` for many limits at once.

    One budget table serves every limit; per limit the frontier is the
    set of feasible states with no feasible unit predecessor, truncated
    at the first group with no feasible state. Returns ``limit →
    frontier`` with states as ascending rank tuples ordered by
    (group, tuple) — exactly the canonical form
    :func:`~repro.core.frontier_cache.canonical_frontier` produces from
    a finished sweep.
    """
    return {
        limit: frontier
        for limit, (_, _, frontier) in stacked_entries(space, limits).items()
    }


def stacked_entries(
    space: SearchSpace, limits: Sequence[float]
) -> Dict[float, Tuple[float, float, Frontier]]:
    """:func:`stacked_frontiers` with each frontier's verdict span:
    ``limit → (low, high, frontier)``, where ``low`` is the largest
    tabulated budget within the limit and ``high`` the smallest beyond
    it. No state's verdict differs under feasible limits in ``[low,
    high)``, so neither does the frontier."""
    k = space.k
    table = budget_table(space)
    ordered = np.sort(table)
    masks = np.arange(1 << k, dtype=np.int64)
    popcount = np.zeros(1 << k, dtype=np.int64)
    for bit in range(k):
        popcount += (masks >> bit) & 1
    # Unit predecessors: decrement one rank component — in mask form,
    # move a set bit b down to the unset slot b-1. Precompute, per bit,
    # which masks admit that move and where it lands.
    moves: List[Tuple[np.ndarray, np.ndarray]] = []
    for bit in range(1, k):
        applicable = ((masks >> bit) & 1).astype(bool) & ~(
            (masks >> (bit - 1)) & 1
        ).astype(bool)
        predecessor = np.where(
            applicable, masks - (1 << bit) + (1 << (bit - 1)), 0
        )
        moves.append((applicable, predecessor))

    out: Dict[float, Tuple[float, float, Frontier]] = {}
    for limit in limits:
        point = feasible_limit(limit)
        feasible = table <= point
        cut = int(np.searchsorted(ordered, point, side="right"))
        low = float(ordered[cut - 1]) if cut else float("-inf")
        high = float(ordered[cut]) if cut < len(ordered) else float("inf")
        feasible[0] = False  # the sweep starts at (0,); group 0 never appears
        minimal = feasible.copy()
        for applicable, predecessor in moves:
            minimal &= ~(applicable & feasible[predecessor])
        # Proposition-5 truncation: the sweep stops at the first group
        # with no feasible state and never visits the groups beyond.
        feasible_groups = set(np.unique(popcount[feasible]).tolist())
        last_group = 0
        while last_group + 1 in feasible_groups:
            last_group += 1
        kept = np.nonzero(minimal & (popcount <= last_group))[0]
        states: List[State] = [
            tuple(int(r) for r in range(k) if (int(mask) >> r) & 1)
            for mask in kept
        ]
        states.sort(key=lambda s: (len(s), s))
        out[limit] = (low, high, tuple(states))
    return out
