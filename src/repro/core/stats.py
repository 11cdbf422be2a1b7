"""Search instrumentation.

The paper evaluates algorithms on execution time, memory, and solution
quality. Wall-clock time on 2026 hardware is not comparable to the
paper's 2005 numbers, so alongside it we record deterministic work
counters (states examined, parameter evaluations, transitions) and a
peak-memory figure computed from the search's live containers — the same
quantity the paper plots in KBytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

# Cost accounting for one stored node: a rank tuple of g small integers.
# The paper stores nodes as index sets; we charge a word per rank plus a
# fixed per-node overhead, which matches its tens-of-KB scale.
NODE_OVERHEAD_BYTES = 16
BYTES_PER_RANK = 8


def node_bytes(state: Sequence[int]) -> int:
    """Accounting size of one stored search node."""
    return NODE_OVERHEAD_BYTES + BYTES_PER_RANK * len(state)


@dataclass
class SearchStats:
    """Counters accumulated by one algorithm run."""

    algorithm: str = ""
    states_examined: int = 0
    parameter_evaluations: int = 0
    transitions_taken: int = 0
    solutions_recorded: int = 0
    peak_memory_bytes: int = 0
    wall_time_s: float = 0.0
    # Cross-request parameter-cache traffic during this request's
    # extraction (see repro.core.param_cache); 0/0 when no cache is wired.
    param_cache_hits: int = 0
    param_cache_misses: int = 0
    # Search-layer reuse counters (see repro.core.frontier_cache):
    # frontier memo traffic, states the sweep was seeded with instead
    # of re-deriving from the root, and Vertical neighbor sets priced
    # through one batched estimator call.
    frontier_cache_hits: int = 0
    frontier_cache_misses: int = 0
    states_warm_started: int = 0
    neighbor_batches: int = 0
    _containers: Dict[str, Callable[[], int]] = field(default_factory=dict, repr=False)
    _released: bool = field(default=False, repr=False)

    # -- counters -----------------------------------------------------------------

    def examined(self, count: int = 1) -> None:
        self.states_examined += count

    def evaluated(self, count: int = 1) -> None:
        self.parameter_evaluations += count

    def moved(self, count: int = 1) -> None:
        self.transitions_taken += count

    # -- memory accounting -----------------------------------------------------------

    def track_container(self, name: str, byte_size: Callable[[], int]) -> None:
        """Register a live container whose size contributes to peak memory.

        ``byte_size`` is sampled by :meth:`sample_memory`; use
        :func:`container_bytes` to build it from a collection of states.
        Registrations after :meth:`release_containers` are dropped: a
        released stats record must never re-pin a search container.
        """
        if not self._released:
            self._containers[name] = byte_size

    @property
    def released(self) -> bool:
        """True once :meth:`release_containers` has run."""
        return self._released

    def release_containers(self) -> None:
        """Take a final memory sample and drop the container closures.

        The closures close over live search containers (queues, boundary
        lists, region heaps); releasing them when the search returns
        lets those containers die with the search instead of being
        pinned through a long-lived stats record. Idempotent: only the
        first call samples, later calls (and any ``track_container``
        after release) are no-ops, so adapters that chain sub-searches
        may release defensively at every boundary.
        """
        if self._released:
            return
        self._released = True
        if self._containers:
            self.sample_memory(force=True)
            self._containers.clear()

    # Measuring a container is O(its size); sampling on every queue
    # mutation would make the whole search O(n^2). The first _EXACT_CALLS
    # samples are taken exactly (covering small searches completely);
    # afterwards samples are throttled to every 2^_SAMPLE_SHIFT-th call —
    # containers change by one node per step, so the peak of a large
    # search is underestimated by at most a few nodes.
    _SAMPLE_SHIFT = 5
    _EXACT_CALLS = 64
    _sample_calls: int = 0

    def sample_memory(self, force: bool = False) -> int:
        """Re-measure all tracked containers; update and return the peak."""
        self._sample_calls += 1
        throttled = (
            self._sample_calls > self._EXACT_CALLS
            and self._sample_calls % (1 << self._SAMPLE_SHIFT) != 0
        )
        if throttled and not force:
            return self.peak_memory_bytes
        current = sum(measure() for measure in self._containers.values())
        if current > self.peak_memory_bytes:
            self.peak_memory_bytes = current
        return current

    @property
    def peak_memory_kb(self) -> float:
        return self.peak_memory_bytes / 1024.0

    def merge(self, other: "SearchStats") -> None:
        """Fold another run's counters into this one (used by adapters
        that chain several sub-searches)."""
        self.states_examined += other.states_examined
        self.parameter_evaluations += other.parameter_evaluations
        self.transitions_taken += other.transitions_taken
        self.solutions_recorded += other.solutions_recorded
        self.peak_memory_bytes = max(self.peak_memory_bytes, other.peak_memory_bytes)
        self.wall_time_s += other.wall_time_s
        self.param_cache_hits += other.param_cache_hits
        self.param_cache_misses += other.param_cache_misses
        self.frontier_cache_hits += other.frontier_cache_hits
        self.frontier_cache_misses += other.frontier_cache_misses
        self.states_warm_started += other.states_warm_started
        self.neighbor_batches += other.neighbor_batches


def container_bytes(container: Sequence[Tuple[int, ...]]) -> int:
    """Accounting size of a container of states (queue, boundary list...)."""
    return sum(node_bytes(state) for state in container)
