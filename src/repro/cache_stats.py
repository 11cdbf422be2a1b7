"""Shared cache-telemetry plumbing.

The system's two caches — per-path pricing
(:class:`~repro.core.param_cache.ParameterCache`) and boundary frontiers
(:class:`~repro.core.frontier_cache.FrontierCache`) — expose one
telemetry shape so benchmarks and the service's ``cache_telemetry``
can treat them uniformly::

    hits / misses / lookups / invalidations / evictions
    entries / bytes_estimate  (+ cache-specific extras)

:class:`CacheStatsMixin` owns the counters and the ``counters()``
rendering; each cache supplies its population and byte figures through
the ``_stats_*`` hooks and bumps ``hits``/``misses``/… inline. The
module is a dependency-free leaf so both the ``core`` and ``sql``
layers can use it without import cycles.
"""

from __future__ import annotations

from typing import Dict


class CacheStatsMixin:
    """Counter plumbing common to every cache in the system.

    Subclasses call :meth:`_init_stats` in ``__init__``, increment the
    counter attributes as events happen, and implement
    ``_stats_entries`` / ``_stats_bytes`` (and optionally
    ``_stats_extra`` for cache-specific fields). Thread-safe caches
    should take their own lock around ``counters()``.
    """

    hits: int
    misses: int
    invalidations: int
    evictions: int

    def _init_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    # -- per-cache hooks ---------------------------------------------------------

    def _stats_entries(self) -> int:
        raise NotImplementedError

    def _stats_bytes(self) -> int:
        raise NotImplementedError

    def _stats_extra(self) -> Dict[str, object]:
        return {}

    # -- the shared telemetry shape ----------------------------------------------

    def counters(self) -> Dict[str, object]:
        """Hit/miss/invalidation tallies plus the current population,
        in the telemetry shape every cache in the system shares."""
        counters: Dict[str, object] = {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.hits + self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "entries": self._stats_entries(),
            "bytes_estimate": self._stats_bytes(),
        }
        counters.update(self._stats_extra())
        return counters
