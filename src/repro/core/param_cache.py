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
* **path** — its condition tuple (what :class:`PreferencePath` hashes
  by);
* **statistics** — the owning database's ``stats_token``, which changes
  on every ``analyze()``, data load, or index build.

Invalidation is automatic: entries are tagged with the statistics token
they were priced under, and the first access after the token changes
flushes the cache. :meth:`invalidate` is the explicit hook for callers
that mutate statistics out of band.

The cache is thread-safe (one lock around the memo): the async server
answers batches on an executor thread while other callers share it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.cache_stats import CacheStatsMixin
from repro.preferences.model import PreferencePath

PricePair = Tuple[float, float]  # (cost, reduction)

DEFAULT_CAPACITY = 65536


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
        key = (query_fingerprint, path.conditions)
        with self._lock:
            if stats_token != self._stats_token:
                if self._entries:
                    self.invalidations += 1
                self._entries.clear()
                self._bytes = 0
                self._stats_token = stats_token
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

    # -- maintenance ---------------------------------------------------------------

    def invalidate(self) -> None:
        """Explicitly drop every entry (statistics changed out of band)."""
        with self._lock:
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._bytes = 0
            self._stats_token = None

    # -- persistence -----------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The priced entries as a picklable state blob (keys are the
        query-SQL/condition-tuple fingerprints, which pickle by value)."""
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
                self._entries.clear()
                self._bytes = 0
                self._stats_token = stats_token
            if self.capacity == 0:
                return 0
            for key, value in state["entries"]:
                key = (key[0], tuple(key[1]))
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
        return self._bytes

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return super().counters()


def _entry_nbytes(key: Tuple[str, Tuple]) -> int:
    """A coarse per-entry size estimate: the SQL fingerprint string, one
    condition object per path hop, and the two-float value."""
    fingerprint, conditions = key
    return 160 + len(fingerprint) + 96 * len(conditions)
