"""The correctness gate.

Every answer the timed phase returned is reduced to a fingerprint: the
solution receipt (chosen preference indices, doi, cost, size) plus a
digest of the returned rows. Two checks follow, and any mismatch fails
the run:

* every repeat of one request key within the run must give the same
  fingerprint;
* a seeded sample of the distinct keys is solved again, each on its own
  fresh default service (no cache shared with anything), and must match
  bit for bit (floats compared with ``==``, no tolerance).

A request key names what was actually run: user, query SQL, problem,
the algorithm the request was dispatched with (a degraded served
request is checked against its downgraded algorithm) and ``k_limit``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Hashable, List, Tuple


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(tuple(rows)).encode("utf-8")).hexdigest()


def fingerprint(response) -> Tuple:
    """The comparable result of one :class:`ServiceResponse`."""
    solution = response.outcome.solution
    if solution is None:
        receipt: Tuple = (False,)
    else:
        receipt = (
            True,
            tuple(solution.pref_indices),
            solution.doi,
            solution.cost,
            solution.size,
        )
    return receipt + (rows_digest(response.rows),)


class Gate:
    """Collects fingerprints during a run and verifies them after it."""

    def __init__(self) -> None:
        self.seen: Dict[Hashable, Tuple] = {}
        self.repeats = 0
        self.checked = 0
        self.errors: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def observe(self, key: Hashable, print_: Tuple) -> None:
        if key not in self.seen:
            self.seen[key] = print_
            return
        self.repeats += 1
        if self.seen[key] != print_:
            self.errors.append(
                "repeat of %r disagrees: %r vs %r" % (key, self.seen[key], print_)
            )

    def verify(self, resolve: Callable[[Hashable], Tuple], sample: int, seed: int) -> None:
        """Re-solve up to ``sample`` distinct keys with ``resolve``."""
        keys = sorted(self.seen, key=repr)
        chosen = random.Random("perfbench-gate:%d" % seed).sample(
            keys, min(sample, len(keys))
        )
        for key in chosen:
            expected = resolve(key)
            self.checked += 1
            if expected != self.seen[key]:
                self.errors.append(
                    "%r: served %r, fresh service %r" % (key, self.seen[key], expected)
                )
