"""Cross-request frontier cache: serving and warm-starting phase 1.

For a fixed (query, profile, statistics) triple the mapping from a
state to its (doi, cost, size) parameters is constant — only the
constraint test changes between CQP problems and between constraint
values (Formulas 4, 7, 8; Table 1). Two kinds of reuse follow from
that:

* **Shared state evaluation** — the paper caches re-usable costs
  within a search (Section 5.2.1). Each extracted
  :class:`~repro.core.preference_space.PreferenceSpace` object keeps
  one :class:`~repro.core.estimation.CachedStateEvaluator`
  (:meth:`~repro.core.preference_space.PreferenceSpace.shared_evaluator`),
  and every solve of that object under an enabled
  :class:`FrontierCache` prices through it. The solves of one
  ``solve_many``/``personalize_many`` batch, or a constraint sweep over
  one space, therefore re-derive no per-state parameter. The evaluator
  lives and dies with its space object; this cache holds none.

* **Phase-1 memoization by verdict span** — the cache proper, keyed on
  the space *digest*
  (:func:`~repro.core.preference_space.space_digest`: a SHA-256 of the
  parameter arrays — the resultant of query, profile, and statistics).
  Phase 1 of the two C-space
  algorithms (C-BOUNDARIES' FINDBOUNDARY sweep, C-MAXBOUNDS'
  FINDMAXBOUND rounds) sees the limit only through its budget
  verdicts, ``budget(mask) <= feasible_limit``. Everything else those
  loops do — neighbour order by budget, coverage, the visited set, the
  round bound — depends on the space alone. So a run records its
  :class:`VerdictSpan`: from the largest budget that passed up to (not
  including) the smallest that failed. Under every feasible limit in
  that span each verdict repeats, so the run repeats exactly: the same
  result, the same visit order, the same work counters. The memo of one
  (digest, rank vector, budget axis) stores each result with its
  algorithm and span, and a later solve whose feasible limit falls
  inside a stored span skips phase 1 outright. Formula 6 prices a state
  in whole blocks, so one span covers every ``cmax`` between two
  attainable costs.

  A C-BOUNDARIES solve outside every span still **warm-starts** from the
  tightest *looser* frontier: the sweep resumes downward from the cached
  boundaries instead of from the root, skipping the whole infeasible
  region above them. Correctness rests on the monotone transition
  effects (Propositions 4–5): in a budget-aligned space every boundary
  under the tighter limit lies below some boundary of the looser one,
  and the connecting Vertical chains pass only through states that are
  infeasible under the tighter limit — exactly the states the resumed
  sweep expands. The resumed sweep is right only for limits its seeds
  are valid for, those below the top of the seeds' span, so its own
  span is clipped there: when every seed passes, the sweep records no
  failure and its span would otherwise run open-ended above limits
  whose frontier lies above the seeds. A looser limit finds no seed and
  falls back to a cold sweep.
  Memos are bounded by accounted bytes (:attr:`FrontierCache.byte_budget`):
  a memo costs about a kilobyte plus its results.

C-BOUNDARIES results are stored in **canonical** form — dominance-reduced
to the true minimal boundary set and ordered by (group, rank tuple) — so
a stored frontier is a property of the (space, limit) pair alone, not of
any particular sweep's discovery order. C-MAXBOUNDS results are its
maximal boundaries exactly as recorded — its second phase breaks ties on
their order — packed into one int (:func:`~repro.core.state.pack_masks`),
about a tenth of their size as rank tuples.

Invalidation mirrors :class:`~repro.core.param_cache.ParameterCache`:
entries are tagged with the owning ``Database.stats_token`` and the
first :meth:`validate` after the token changes flushes everything;
:meth:`invalidate` is the explicit out-of-band hook. The cache is
thread-safe; solutions are schedule-independent (served and
warm-started searches are equivalence-guaranteed), though the per-solve
*work counters* may vary with which request warms the cache first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple, Union,
)

import numpy as np

from repro.cache_stats import CacheStatsMixin
from repro.core.space import feasible_limit
from repro.core.state import State

# The default byte budget of the frontier memos, and the fixed cost each
# held memo is accounted on top of its entries (its digest key, rank
# vector, entry dict and LRU slot).
FRONTIER_BYTES = 4 << 20
MEMO_OVERHEAD_BYTES = 1024
FRONTIER_SPANS_PER_MEMO = 32
# The algorithm whose phase 1 resumes from a looser stored frontier.
SEEDED_ALGORITHM = "c_boundaries"

Frontier = Tuple[State, ...]
# A stored phase-1 result: a C-BOUNDARIES canonical frontier, or
# C-MAXBOUNDS' maximal boundaries packed into one int
# (repro.core.state.pack_masks).
Result = Union[Frontier, int]


class VerdictSpan:
    """The feasible limits under which a phase-1 run repeats exactly.

    ``low`` is the largest budget the run's tests passed, ``high`` the
    smallest that failed (infinite when none did); the run repeats under
    every feasible limit in ``[low, high)``. Loops keep their extremes in
    locals and :meth:`note` them once per call.
    """

    __slots__ = ("low", "high")

    def __init__(self) -> None:
        self.low = float("-inf")
        self.high = float("inf")

    def note(self, passed: float, failed: float) -> None:
        if passed > self.low:
            self.low = passed
        if failed < self.high:
            self.high = failed


class Seeds(NamedTuple):
    """A looser stored frontier a C-BOUNDARIES sweep resumes from, and
    the top of its span (the resumed sweep's span is clipped there)."""

    frontier: Frontier
    ceiling: float


def canonical_frontier(boundaries: Iterable[State]) -> Frontier:
    """Dominance-reduce and canonically order a recorded boundary list.

    The breadth-first sweep can record a feasible state before the
    boundary covering it (discovery-order races the dequeue check does
    not fully close). Such spurious entries are always *below* a true
    boundary of their group, and true boundaries are never below any
    other feasible state, so dropping every state below another of its
    group leaves exactly the minimal boundary set — the same frontier
    regardless of the sweep that produced it. Ordering is (group size,
    rank tuple), ascending.
    """
    groups: Dict[int, List[State]] = {}
    for state in set(boundaries):
        groups.setdefault(len(state), []).append(state)
    kept: List[State] = []
    for size, members in groups.items():
        if len(members) == 1 or size == 0:
            kept.extend(members)
            continue
        # Minimal elements under componentwise dominance, via broadcast
        # comparison against the whole group; chunked so the (m, n, g)
        # intermediate stays bounded however large the frontier grows.
        matrix = np.array(members, dtype=np.int64)
        n = matrix.shape[0]
        keep = np.ones(n, dtype=bool)
        chunk = max(1, 2_000_000 // (n * size))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = matrix[start:stop]
            covered = (block[:, None, :] >= matrix[None, :, :]).all(axis=2)
            covered[np.arange(stop - start), np.arange(start, stop)] = False
            keep[start:stop] = ~covered.any(axis=1)
        kept.extend(members[i] for i in np.nonzero(keep)[0])
    kept.sort(key=lambda s: (len(s), s))
    return tuple(kept)


class FrontierMemo:
    """Per-(space digest, vector, axis) store of phase-1 results by span.

    Entries are keyed by (algorithm, low, high): the result of one
    phase-1 run and the feasible limits ``[low, high)`` it holds for.
    ``attached`` is true while the cache maps this memo. An in-flight
    solve may still hold (and store into) a memo the cache has since
    evicted or flushed; such stores feed that solve only and leave the
    cache's entry and byte tallies alone.
    """

    def __init__(self, cache: "FrontierCache") -> None:
        self._cache = cache
        self._entries: "OrderedDict[Tuple[str, float, float], Result]" = OrderedDict()
        self.attached = True

    def lookup(
        self, limit: float, algorithm: str = SEEDED_ALGORITHM
    ) -> Tuple[Optional[Result], Optional[Seeds]]:
        """``(exact, seeds)`` for an ``algorithm`` solve at ``limit``.

        ``exact`` is the stored result of a span holding this limit's
        feasible limit (phase 1 can be skipped outright). Otherwise,
        for C-BOUNDARIES only, ``seeds`` is the stored frontier of the
        *tightest looser* span — the valid warm-start for a downward
        resume — or ``None`` when only tighter spans (whose frontiers
        sit below the new boundaries) are stored.
        """
        cache = self._cache
        if cache.fault_hook is not None:
            cache.fault_hook("frontier_cache.lookup")
        point = feasible_limit(limit)
        seeded = algorithm == SEEDED_ALGORITHM
        with cache._lock:
            seeds: Optional[Seeds] = None
            seeds_low = float("inf")
            for key, result in self._entries.items():
                name, low, high = key
                if name != algorithm:
                    continue
                if low <= point < high:
                    cache.hits += 1
                    self._entries.move_to_end(key)
                    return result, None
                if seeded and point < low < seeds_low:
                    seeds_low = low
                    seeds = Seeds(result, high)
            if seeds is None:
                cache.misses += 1
            else:
                cache.warm_starts += 1
            return None, seeds

    def store(
        self,
        low: float,
        high: float,
        result: Result,
        algorithm: str = SEEDED_ALGORITHM,
    ) -> None:
        """Remember an ``algorithm`` phase-1 result for the feasible
        limits ``[low, high)``."""
        cache = self._cache
        key = (algorithm, low, high)
        with cache._lock:
            counted = self.attached
            previous = self._entries.get(key)
            if previous is not None and counted:
                cache._frontier_bytes -= _entry_nbytes(previous)
                cache._frontier_count -= 1
            self._entries[key] = result
            if counted:
                cache._frontier_bytes += _entry_nbytes(result)
                cache._frontier_count += 1
            self._entries.move_to_end(key)
            while len(self._entries) > FRONTIER_SPANS_PER_MEMO:
                _, evicted = self._entries.popitem(last=False)
                if counted:
                    cache._frontier_bytes -= _entry_nbytes(evicted)
                    cache._frontier_count -= 1
                cache.evictions += 1
            if counted:
                cache._shrink_locked()

    def __len__(self) -> int:
        return len(self._entries)


def _entry_nbytes(result: Result) -> int:
    """A coarse resident-size estimate of one stored entry.

    Its (algorithm, low, high) key, plus either a packed int's bytes or
    tuple overhead and one machine word per rank component — the same
    order of magnitude ``sys.getsizeof`` would report, cheap enough to
    maintain incrementally on every store/evict.
    """
    if isinstance(result, int):
        return 168 + 32 + result.bit_length() // 8
    return 168 + sum(56 + 8 * len(state) for state in result)


def state_nbytes(state: Dict) -> int:
    """The accounted bytes a :meth:`FrontierCache.snapshot` blob takes
    once restored: what a restoring cache's byte budget must hold so
    the restore evicts none of its own entries."""
    return sum(
        MEMO_OVERHEAD_BYTES + sum(_entry_nbytes(entry[3]) for entry in entries)
        for _, entries in state["memos"]
    )


class FrontierCache(CacheStatsMixin):
    """Phase-1 results across solves, under one accounted-byte bound.

    Memos evict least recently used against :attr:`byte_budget`
    (:data:`FRONTIER_BYTES` by default): the entries' estimated sizes
    plus :data:`MEMO_OVERHEAD_BYTES` per memo. A budget of 0 disables
    the cache — :meth:`memo_for` returns ``None``, no frontier is
    remembered, and solves price through a fresh evaluator rather than
    their space's shared one — which is how the benchmarks model cold
    solves.
    """

    def __init__(self, byte_budget: int = FRONTIER_BYTES) -> None:
        if byte_budget < 0:
            raise ValueError("byte_budget must be >= 0, got %r" % (byte_budget,))
        self.byte_budget = byte_budget
        self._memos: "OrderedDict[Tuple, FrontierMemo]" = OrderedDict()
        self._stats_token: Hashable = None
        self._lock = threading.Lock()
        self._init_stats()
        # Misses that found a looser frontier to resume from.
        self.warm_starts = 0
        # Incrementally maintained count of, and estimate of the bytes
        # pinned by, the stored entries. Telemetry is read on every
        # response, so it must not walk the memos.
        self._frontier_count = 0
        self._frontier_bytes = 0
        # Fault seam: when set, called (outside the lock) with the site
        # name before every memo fetch and frontier lookup. The
        # deterministic injector in repro.testing.faults uses it to
        # evict mid-solve; hooks must only call thread-safe entry points
        # such as invalidate().
        self.fault_hook: Optional[Callable[[str], None]] = None

    # -- validation ----------------------------------------------------------------

    def validate(self, stats_token: Hashable) -> None:
        """Flush everything if the statistics snapshot changed.

        The digests keying the memos already change with the statistics
        (stale entries could never be *served*), but a flush on token
        change keeps dead spaces from occupying the LRU.
        """
        with self._lock:
            if stats_token != self._stats_token:
                if self._memos:
                    self.invalidations += 1
                self._flush_locked()
                self._stats_token = stats_token

    def invalidate(self) -> None:
        """Explicitly drop every entry (out-of-band statistics mutation)."""
        with self._lock:
            if self._memos:
                self.invalidations += 1
            self._flush_locked()
            self._stats_token = None

    def _flush_locked(self) -> None:
        """Drop every memo entry (caller holds the lock).

        Memo *objects* are emptied, not just unmapped: an in-flight
        solve holds its memo directly (``space.frontier``), and an
        eviction drill — or a genuine flush racing a solve — must leave
        it the cold path, not a stale private copy of the entries.
        """
        for memo in self._memos.values():
            memo._entries.clear()
            memo.attached = False
        self._memos.clear()
        self._frontier_count = 0
        self._frontier_bytes = 0

    def _memo_bytes_locked(self) -> int:
        """The accounted bytes of the held memos (caller holds the lock)."""
        return self._frontier_bytes + MEMO_OVERHEAD_BYTES * len(self._memos)

    def _shrink_locked(self) -> None:
        """Evict least recently used memos until the accounted bytes fit
        :attr:`byte_budget` (caller holds the lock)."""
        while self._memos and self._memo_bytes_locked() > self.byte_budget:
            _, dropped = self._memos.popitem(last=False)
            dropped.attached = False
            for result in dropped._entries.values():
                self._frontier_bytes -= _entry_nbytes(result)
                self._frontier_count -= 1
                self.evictions += 1

    # -- the entry point -----------------------------------------------------------

    def memo_for(self, digest: str, vector: Tuple[int, ...], axis: str
                 ) -> Optional[FrontierMemo]:
        """The phase-1 memo for one (space digest, vector, axis); its
        entries carry their algorithm. ``None`` when the cache is
        disabled."""
        if self.fault_hook is not None:
            self.fault_hook("frontier_cache.memo")
        if self.byte_budget == 0:
            return None
        key = (digest, vector, axis)
        with self._lock:
            memo = self._memos.get(key)
            if memo is None:
                memo = FrontierMemo(self)
                self._memos[key] = memo
                self._shrink_locked()
            else:
                self._memos.move_to_end(key)
            return memo

    # -- persistence -----------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The cache's memos as a picklable state blob: the phase-1
        results per (digest, vector, axis), each as
        ``(algorithm, low, high, result)``
        (:func:`~repro.core.preference_space.space_digest` is
        process-independent)."""
        with self._lock:
            return {
                "kind": "frontier_cache",
                "memos": [
                    (key, [span + (result,) for span, result in memo._entries.items()])
                    for key, memo in self._memos.items()
                ],
            }

    def restore(self, state: Dict, stats_token: Hashable) -> int:
        """Install a :meth:`snapshot` blob under the live ``stats_token``.

        Entries are re-tagged with the *caller's* token: the caller (see
        :mod:`repro.storage.snapshot`) is responsible for proving the
        snapshot was taken against equivalent statistics before handing
        the live token over. Returns the number of entries installed.
        The blob lands under the ordinary byte budget; a caller that
        must keep all of it grows :attr:`byte_budget` by
        :func:`state_nbytes` first.
        """
        if state.get("kind") != "frontier_cache":
            raise ValueError("not a FrontierCache snapshot: %r" % (state.get("kind"),))
        self.validate(stats_token)
        installed = 0
        for key, entries in state["memos"]:
            digest, vector, axis = key
            memo = self.memo_for(digest, tuple(vector), axis)
            if memo is None:
                break  # a disabled cache restores nothing
            for algorithm, low, high, result in entries:
                memo.store(low, high, result, algorithm)
                installed += 1
        return installed

    # -- introspection -------------------------------------------------------------

    def _stats_entries(self) -> int:
        return self._frontier_count

    def _stats_bytes(self) -> int:
        return self._memo_bytes_locked()

    def _stats_extra(self) -> Dict[str, int]:
        return {"warm_starts": self.warm_starts, "frontiers": self._stats_entries()}

    def counters(self) -> Dict[str, int]:
        """Memo hit/warm-start/miss/invalidation tallies plus entry
        counts.

        The shared telemetry shape (see
        :class:`~repro.cache_stats.CacheStatsMixin`) plus ``frontiers``
        (which ``entries`` aliases). A lookup ends as exactly one of a
        ``hit`` (a stored span served it), a ``warm_start`` (a looser
        frontier seeded the sweep) or a ``miss``, and ``lookups`` counts
        all three. ``bytes_estimate`` is the memos' accounted bytes.
        """
        with self._lock:
            counters = super().counters()
        counters["lookups"] += counters["warm_starts"]
        return counters
