"""Search scheduling: a serial solve loop with retry and cold fallback.

:class:`SolveScheduler` runs **independent solves** (the supergroups of
one ``request_many`` batch) one after another on the calling thread,
results in input order. There is no pool: the batch speed-up comes from
the stacked frontier kernel (:func:`repro.core.adapters.solve_many`),
and forking workers on top of it measured slower than one process (see
docs/ALGORITHMS.md, "The serial scheduler").

The scheduler is the service's resilience boundary: a task that raises
:class:`TransientFault` (the marker the deterministic fault injector in
:mod:`repro.testing.faults` uses, and the natural base for real
transient conditions) is retried and, past the retry budget, re-run via
the ``fallback`` callable — the degraded cold path. Tasks are pure
functions of their item, so a retried or fallen-back task returns
exactly what the first attempt would have; only the counters record
that degradation happened.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, TypeVar


T = TypeVar("T")
R = TypeVar("R")


class TransientFault(RuntimeError):
    """A retryable failure inside a scheduler task.

    Raised by the fault injector (and suitable as a base class for real
    transient conditions — a lost connection, a full queue). Anything
    else a task raises is a genuine bug and still fails the whole
    :meth:`SolveScheduler.map`, exactly like a plain loop would.
    """


class SolveScheduler:
    """Runs independent tasks in input order, retrying transient faults.

    A task that raises :class:`TransientFault` is retried up to
    ``retries`` times and then handed to ``fallback`` (when given); any
    other exception — and a transient one with no fallback left — fails
    the whole :meth:`map`. ``fault_injector`` (see
    :mod:`repro.testing.faults`) is pulsed once per task attempt at site
    ``"scheduler.worker"`` so fault drills hit the tasks
    deterministically. Counters: ``faults_seen`` (failed attempts) and
    ``fallbacks_taken`` (tasks that exhausted their retries).
    """

    def __init__(self, retries: int = 1, fault_injector=None) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0, got %r" % (retries,))
        self.retries = retries
        self.fault_injector = fault_injector
        self.faults_seen = 0
        self.fallbacks_taken = 0

    def _run_one(
        self, fn: Callable[[T], R], item: T, fallback: Optional[Callable[[T], R]]
    ) -> R:
        for _ in range(self.retries + 1):
            try:
                if self.fault_injector is not None:
                    self.fault_injector.maybe_raise("scheduler.worker")
                return fn(item)
            except TransientFault:
                self.faults_seen += 1
        if fallback is None:
            raise TransientFault(
                "task failed transiently %d time(s) and no fallback is wired"
                % (self.retries + 1)
            )
        self.fallbacks_taken += 1
        return fallback(item)

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        fallback: Optional[Callable[[T], R]] = None,
    ) -> List[R]:
        """``[fn(item) for item in items]`` with retry and fallback."""
        return [self._run_one(fn, item, fallback) for item in items]

    def counters(self) -> Dict[str, int]:
        """The scheduler's degradation counters, for merging upstream."""
        return {
            "faults_seen": self.faults_seen,
            "fallbacks_taken": self.fallbacks_taken,
        }
