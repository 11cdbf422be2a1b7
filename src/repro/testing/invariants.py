"""Executable invariant checkers for the CQP search machinery.

Each checker either returns quietly or raises :class:`InvariantViolation`
with enough context to reproduce the violation. They encode the facts
the whole system's correctness argument rests on:

* **Formula 4** — the conjunction doi is monotone under set inclusion,
  so every state-growing transition (``Horizontal``, ``Horizontal2``)
  never lowers doi (:func:`check_doi_monotone`);
* **Formula 7** — cost is the sum of per-preference sub-query costs, so
  growing a state never lowers cost (:func:`check_cost_monotone`);
* **Formula 8** — size multiplies reduction factors in [0, 1], so
  growing a state never raises size (:func:`check_size_antitone`);
* on a **budget-aligned** vector, every ``Vertical`` move lowers the
  budget parameter — the property the boundary sweep exploits
  (:func:`check_vertical_budget_decreases`);
* a **canonical frontier** is the minimal boundary set in canonical
  order: no member covers another of its group, duplicates are gone,
  and ordering is (group, rank tuple) ascending
  (:func:`check_canonical_frontier`);
* ``stats_token``-validated caches never serve entries across a
  statistics change (:func:`check_stats_token_soundness`);
* :class:`~repro.core.stats.SearchStats` counters stay mutually
  consistent — hits + misses == lookups on every cache pair, and the
  warm-start seed count never exceeds the states examined
  (:func:`check_search_stats`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core import transitions as tr
from repro.core.estimation import StateEvaluator
from repro.core.space import SearchSpace
from repro.core.state import State
from repro.core.stats import SearchStats

_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A checked invariant does not hold; the message carries the witness."""


def _grown_states(state: State, k: int) -> Iterable[State]:
    """Every one-step superset reachable by Horizontal or Horizontal2."""
    successor = tr.horizontal(state, k)
    if successor is not None:
        yield successor
    for neighbor in tr.horizontal2(state, k):
        yield neighbor


def check_doi_monotone(evaluator: StateEvaluator, state: State, k: int) -> None:
    """Formula 4 along every growing transition out of ``state``.

    ``state`` and its neighbors are P-index sets here (growing
    transitions act the same on ranks and indices, so checking on
    indices covers both).
    """
    base = evaluator.doi(state)
    for neighbor in _grown_states(state, k):
        grown = evaluator.doi(neighbor)
        if grown < base - _TOL:
            raise InvariantViolation(
                "Formula 4 violated: doi(%r)=%.12g < doi(%r)=%.12g"
                % (neighbor, grown, state, base)
            )


def check_cost_monotone(evaluator: StateEvaluator, state: State, k: int) -> None:
    """Formula 7 along every growing transition out of ``state``."""
    base = evaluator.cost(state)
    for neighbor in _grown_states(state, k):
        grown = evaluator.cost(neighbor)
        if grown < base - _TOL:
            raise InvariantViolation(
                "Formula 7 violated: cost(%r)=%.12g < cost(%r)=%.12g"
                % (neighbor, grown, state, base)
            )


def check_size_antitone(evaluator: StateEvaluator, state: State, k: int) -> None:
    """Formula 8 along every growing transition out of ``state``."""
    base = evaluator.size(state)
    for neighbor in _grown_states(state, k):
        grown = evaluator.size(neighbor)
        if grown > base + base * _TOL + _TOL:
            raise InvariantViolation(
                "Formula 8 violated: size(%r)=%.12g > size(%r)=%.12g"
                % (neighbor, grown, state, base)
            )


def check_vertical_budget_decreases(space: SearchSpace, state: State) -> None:
    """On a budget-aligned vector every Vertical move lowers the budget.

    This is the alignment property (C with cost, S with −size) the
    boundary machinery rests on; it is meaningless — and not checked —
    for unaligned spaces such as (D, cost).
    """
    if not space.budget_aligned:
        return
    base = space.budget_value(state)
    for neighbor in space.vertical(state):
        moved = space.budget_value(neighbor)
        if moved > base + abs(base) * _TOL + _TOL:
            raise InvariantViolation(
                "Vertical raised the budget on aligned space %r: "
                "budget(%r)=%.12g > budget(%r)=%.12g"
                % (space.name, neighbor, moved, state, base)
            )


def _covers(upper: State, lower: State) -> bool:
    """Componentwise ``upper >= lower`` for same-group rank tuples."""
    return len(upper) == len(lower) and all(
        u >= l for u, l in zip(upper, lower)
    )


def check_canonical_frontier(
    frontier: Sequence[State], recorded: Sequence[State] = None
) -> None:
    """Dominance-correctness of a canonical frontier.

    ``frontier`` must be duplicate-free, ordered by (group, rank tuple)
    ascending, and *minimal*: no member may cover another member of its
    group. When the raw ``recorded`` boundary list is given, every
    recorded state must be covered by some kept member of its group —
    i.e. the reduction dropped only covered states and kept a true
    representative for everything it dropped.
    """
    seen = set(frontier)
    if len(seen) != len(frontier):
        raise InvariantViolation("frontier contains duplicates: %r" % (frontier,))
    keys = [(len(state), state) for state in frontier]
    if keys != sorted(keys):
        raise InvariantViolation("frontier not in canonical order: %r" % (frontier,))
    for upper in frontier:
        for lower in frontier:
            if upper is not lower and _covers(upper, lower):
                raise InvariantViolation(
                    "frontier not minimal: %r covers %r" % (upper, lower)
                )
    if recorded is not None:
        for state in recorded:
            if not any(_covers(state, kept) for kept in frontier):
                raise InvariantViolation(
                    "recorded boundary %r lost: no kept member of its group "
                    "is covered by it (frontier %r)" % (state, frontier)
                )


def check_stats_token_soundness(cache, database) -> None:
    """A stats_token-validated cache flushes on a statistics change.

    ``cache`` is anything with the ``validate(token)`` / ``counters()``
    protocol (:class:`~repro.core.param_cache.ParameterCache` exposes
    the same behaviour through ``price``;
    :class:`~repro.core.frontier_cache.FrontierCache` directly). The
    check bumps the database's statistics (a re-ANALYZE — contents
    unchanged, token changed) and verifies every entry is dropped, then
    restores nothing: a re-ANALYZE is always safe.
    """
    cache.validate(database.stats_token)
    database.analyze()  # token changes even though the data did not
    cache.validate(database.stats_token)
    counters = cache.counters()
    live = counters.get("entries", 0) + counters.get("frontiers", 0) + counters.get(
        "evaluators", 0
    )
    if live:
        raise InvariantViolation(
            "cache served %d live entr(ies) across a stats_token change: %r"
            % (live, counters)
        )


def check_search_stats(stats: SearchStats) -> None:
    """Internal consistency of one run's counter record."""
    pairs = [
        ("param_cache", stats.param_cache_hits, stats.param_cache_misses),
        ("frontier_cache", stats.frontier_cache_hits, stats.frontier_cache_misses),
    ]
    for name, hits, misses in pairs:
        if hits < 0 or misses < 0:
            raise InvariantViolation(
                "%s counters negative: hits=%d misses=%d" % (name, hits, misses)
            )
    for counter in (
        stats.states_examined,
        stats.parameter_evaluations,
        stats.transitions_taken,
        stats.solutions_recorded,
        stats.peak_memory_bytes,
        stats.states_warm_started,
        stats.neighbor_batches,
        stats.faults_injected,
        stats.fallbacks_taken,
    ):
        if counter < 0:
            raise InvariantViolation("negative counter in %r" % (stats,))
    if stats.states_warm_started > stats.states_examined:
        raise InvariantViolation(
            "warm-started %d states but examined only %d — every seed is "
            "dequeued and examined, so this cannot happen"
            % (stats.states_warm_started, stats.states_examined)
        )


def check_evaluator_consistency(evaluator) -> None:
    """hits + misses == lookups for a caching evaluator.

    On a :class:`~repro.core.estimation.CachedStateEvaluator` every
    cached entry point counts one evaluation per request, hit or miss;
    ``evaluations >= cache_hits + cache_misses`` can exceed equality
    only through the deliberately uncached ``size_independent`` family.
    """
    info = evaluator.cache_info()
    if info["hits"] + info["misses"] > evaluator.evaluations:
        raise InvariantViolation(
            "evaluator served more cache traffic (%d + %d) than evaluations "
            "(%d)" % (info["hits"], info["misses"], evaluator.evaluations)
        )
