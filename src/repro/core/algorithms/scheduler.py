"""Search scheduling: the service's solve loop.

:class:`SolveScheduler` runs the supergroups of one ``request_many``
batch one after another, results in input order. It can be inlined
into the service once perfbench's ``scheduler.map`` span, which wraps
:meth:`SolveScheduler.map` by name, leaves the benchmark.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class SolveScheduler:
    """An ordered loop; whatever a task raises reaches the caller."""

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """``[fn(item) for item in items]``."""
        return [fn(item) for item in items]
