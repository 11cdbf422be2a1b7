"""Cross-request parameter cache.

Every personalization request re-prices the preference paths it
considers: per path, one sub-query construction plus one cost-model and
one cardinality estimation (`ParameterEstimator.path_cost` /
`path_reduction`). For a service answering many requests those figures
are pure functions of *(query AST, preference path, database
statistics)* — the profile only decides *which* paths are considered
and their dois, not what they cost. :class:`ParameterCache` memoizes
the (cost, reduction) pair under exactly that fingerprint:

* **query** — its printed SQL (canonical for the AST);
* **path** — its flat condition key (:attr:`PreferencePath.key`: a
  tuple of per-condition tuples of names and values, equal exactly when
  the paths are);
* **statistics** — the owning database's ``stats_token``, which changes
  on every ``analyze()``, data load, or index build.

Invalidation is automatic: entries are tagged with the statistics token
they were priced under, and the first access after the token changes
flushes the cache. :meth:`invalidate` is the explicit hook for callers
that mutate statistics out of band.

The cache also holds the **walk memo** one layer up (:meth:`walk`):
per (profile content, query, statistics, algebra, path-length bound),
the unconstrained Figure 3 walk as a
:class:`~repro.core.preference_space.MemoizedWalk`, so a recurring
(user, query) pair extracts by filtering instead of walking the profile
graph. A pair is admitted on its second sight: the first only records
a hash of its key in a bounded set, so a stream of pairs that never
recur (a fleet asking each query once) stores nothing. The memo is
bounded by bytes, flushed with the pricing entries, disabled with
them at capacity 0, and not persisted: a snapshot carries the prices
its walks need, and the walks are rebuilt from them.

Every pricing key and value is built of strings, numbers and tuples of
them, so CPython stops tracking them at their first collection: a full
cache adds nothing to what the garbage collector walks.

The cache is thread-safe (one lock around the memo): the async server
answers batches on an executor thread while other callers share it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.cache_stats import CacheStatsMixin
from repro.preferences.model import PreferencePath

PricePair = Tuple[float, float]  # (cost, reduction)

DEFAULT_CAPACITY = 65536
# The walk memo's byte bound. 240 (user, query) pairs over generated
# movie profiles (about 48 paths per walk) hold about 3.5 MiB; a working
# set visited round-robin never hits under a bound below its size.
WALK_BYTES = 8 * 1024 * 1024
# How many first-sight key hashes are remembered for admission: a pair
# is admitted when it recurs within the last this-many first sights.
# Four times the 240-pair working set above; a stream of random pairs
# from a large population rarely recurs that soon, so builds few walks
# that would never be asked again.
WALK_SIGHTINGS = 1024


class ParameterCache(CacheStatsMixin):
    """Keyed memo of per-path (cost, reduction) pricing across requests.

    ``capacity`` bounds the entry count with LRU eviction; a capacity of
    0 disables storage entirely (every lookup misses), which is how the
    benchmarks model the seed's cache-less behaviour.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0, got %r" % (capacity,))
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, Tuple], PricePair]" = OrderedDict()
        self._stats_token: Hashable = None
        self._lock = threading.Lock()
        self._init_stats()
        self._bytes = 0  # incrementally maintained entry-size estimate
        # The walk memo: key hash -> (key, walk, bytes), LRU; first-sight key
        # hashes (insertion-ordered, oldest dropped first).
        self._walks: "OrderedDict[int, Tuple[Hashable, Any, int]]" = OrderedDict()
        self._walk_bytes = 0
        self._sightings: Dict[int, None] = {}
        self.walk_hits = 0
        self.walk_misses = 0
        # Fault seam: when set, called (outside the lock) with the site
        # name at the top of every lookup. The deterministic injector in
        # repro.testing.faults uses it to evict mid-solve; it must only
        # call thread-safe entry points such as invalidate().
        self.fault_hook: Optional[Callable[[str], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- the one entry point -----------------------------------------------------

    def price(
        self,
        query_fingerprint: str,
        path: PreferencePath,
        stats_token: Hashable,
        compute: Callable[[], PricePair],
    ) -> PricePair:
        """The (cost, reduction) of ``path`` against the query, memoized.

        ``stats_token`` identifies the statistics snapshot the pricing
        is valid for; a token change flushes every entry (statistics
        mutations invalidate all cost-model and cardinality inputs at
        once — selective eviction would buy nothing).
        """
        if self.fault_hook is not None:
            self.fault_hook("param_cache.price")
        key = (query_fingerprint, path.key)
        with self._lock:
            self._sync_locked(stats_token)
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return value
            self.misses += 1
        value = compute()  # outside the lock: pricing may be slow
        with self._lock:
            if stats_token == self._stats_token and self.capacity > 0:
                if key not in self._entries:
                    self._bytes += _entry_nbytes(key)
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self._bytes -= _entry_nbytes(evicted_key)
                    self.evictions += 1
        return value

    def walk(
        self,
        key: Hashable,
        stats_token: Hashable,
        build: Callable[[], Any],
        admit: bool = False,
    ) -> Optional[Any]:
        """The memoized walk under ``key``, or ``None`` on a first sight.

        A stored walk is a hit. Otherwise it is a miss: on the key's
        second sight (or at once with ``admit``) ``build()`` runs, and
        its result is stored and returned; on a first sight only the
        key's hash is recorded, and the caller walks as it would
        uncached. ``build`` must return an object with an ``nbytes()``
        method. At capacity 0 nothing is stored or recorded.
        """
        if self.fault_hook is not None:
            self.fault_hook("param_cache.walk")
        digest = hash(key)
        with self._lock:
            self._sync_locked(stats_token)
            found = self._walks.get(digest)
            if found is not None and found[0] == key:
                self.walk_hits += 1
                self._walks.move_to_end(digest)
                return found[1]
            self.walk_misses += 1
            if not admit:
                if digest not in self._sightings:
                    if self.capacity > 0:
                        self._sightings[digest] = None
                        if len(self._sightings) > WALK_SIGHTINGS:
                            del self._sightings[next(iter(self._sightings))]
                    return None
                del self._sightings[digest]
        walk = build()  # outside the lock: walking may be slow
        with self._lock:
            if stats_token == self._stats_token and self.capacity > 0:
                nbytes = walk.nbytes()
                previous = self._walks.pop(digest, None)
                if previous is not None:
                    self._walk_bytes -= previous[2]
                self._walks[digest] = (key, walk, nbytes)
                self._walk_bytes += nbytes
                while self._walk_bytes > WALK_BYTES:
                    _, (_, _, dropped) = self._walks.popitem(last=False)
                    self._walk_bytes -= dropped
                    self.evictions += 1
        return walk

    def _sync_locked(self, stats_token: Hashable) -> None:
        """Flush everything on a statistics change (caller holds the lock)."""
        if stats_token != self._stats_token:
            if self._entries or self._walks:
                self.invalidations += 1
            self._clear_locked()
            self._stats_token = stats_token

    def _clear_locked(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self._walks.clear()
        self._walk_bytes = 0
        self._sightings.clear()

    # -- maintenance ---------------------------------------------------------------

    def invalidate(self) -> None:
        """Explicitly drop every entry (statistics changed out of band)."""
        with self._lock:
            if self._entries or self._walks:
                self.invalidations += 1
            self._clear_locked()
            self._stats_token = None

    # -- persistence -----------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The priced entries as a picklable state blob (keys are the
        query SQL and the path's flat condition key, plain data that
        pickles by value)."""
        with self._lock:
            return {
                "kind": "param_cache",
                "capacity": self.capacity,
                "entries": list(self._entries.items()),
            }

    def restore(self, state: Dict, stats_token: Hashable) -> int:
        """Install a :meth:`snapshot` blob under the live ``stats_token``.

        The caller vouches that the snapshot's statistics are equivalent
        to the live database's (see :mod:`repro.storage.snapshot` for
        the fingerprint proof); entries are merged into whatever is
        already cached under that token. Returns entries installed.
        """
        if state.get("kind") != "param_cache":
            raise ValueError("not a ParameterCache snapshot: %r" % (state.get("kind"),))
        installed = 0
        with self._lock:
            if stats_token != self._stats_token:
                self._clear_locked()
                self._stats_token = stats_token
            if self.capacity == 0:
                return 0
            for (fingerprint, path_key), value in state["entries"]:
                key = (fingerprint, tuple(tuple(step) for step in path_key))
                if key not in self._entries:
                    self._bytes += _entry_nbytes(key)
                    installed += 1
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self._bytes -= _entry_nbytes(evicted_key)
                    self.evictions += 1
        return installed

    def _stats_entries(self) -> int:
        return len(self._entries)

    def _stats_bytes(self) -> int:
        return self._bytes + self._walk_bytes


    def counters(self) -> Dict[str, int]:
        """The pricing memo's telemetry (``bytes_estimate`` also counts
        the walk memo's bytes; :meth:`walk_counters` has its traffic)."""
        with self._lock:
            return super().counters()

    def walk_counters(self) -> Dict[str, int]:
        """The walk memo's hits, misses, stored walks and bytes."""
        with self._lock:
            return {
                "hits": self.walk_hits,
                "misses": self.walk_misses,
                "entries": len(self._walks),
                "bytes_estimate": self._walk_bytes,
            }


def _entry_nbytes(key: Tuple[str, Tuple]) -> int:
    """A coarse per-entry size estimate: the SQL fingerprint string, one
    four-field condition key per path hop, and the two-float value."""
    fingerprint, path_key = key
    return 160 + len(fingerprint) + 96 * len(path_key)
