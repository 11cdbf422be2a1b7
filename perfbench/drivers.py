"""Load drivers and their accounting.

Every driver returns one :class:`Outcome` per request it attempted, so
``attempted == succeeded + failed`` holds by construction and a rejected
or failed request is never dropped from the latency sample.

* :func:`closed_loop` — a fixed population of coroutine clients; each
  sends its next bundle only when its previous bundle has returned.
* :func:`sync_loop` — one synchronous caller, back to back.

The clock is injected so the accounting can be tested on a fake clock. ``record`` reduces each answer to what the benchmark keeps,
as soon as it arrives, so the run does not hold every response (and
grow the heap the program's garbage collector has to walk).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterator, List, Sequence, Tuple


def _identity(value: Any) -> Any:
    return value


@dataclass
class Outcome:
    """One attempted request: what came back and when."""

    spec: Any
    ok: bool
    latency_s: float  # completion (or failure) minus sent time
    value: Any = None
    error: str = ""


async def closed_loop(
    submit: Callable[[Any], Awaitable[Any]],
    bundles: Iterator[Sequence[Any]],
    clients: int,
    stop_at: float,
    clock: Callable[[], float],
    record: Callable[[Any], Any] = _identity,
) -> List[Outcome]:
    """``clients`` coroutines, each sending one bundle at a time (the
    bundle's requests concurrently) until ``stop_at``."""
    outcomes: List[Outcome] = []

    async def one(spec: Any) -> None:
        sent = clock()
        try:
            value = await submit(spec)
        except Exception as error:  # noqa: BLE001 - a failure is an outcome
            outcomes.append(
                Outcome(spec, False, clock() - sent,
                        error="%s: %s" % (type(error).__name__, error))
            )
            return
        done = clock()
        outcomes.append(Outcome(spec, True, done - sent, value=record(value)))

    async def client() -> None:
        while clock() < stop_at:
            bundle = next(bundles)
            await asyncio.gather(*(one(spec) for spec in bundle))

    await asyncio.gather(*(client() for _ in range(clients)))
    return outcomes


def sync_loop(
    call: Callable[[Any], Any],
    specs: Iterator[Any],
    stop_at: float,
    clock: Callable[[], float],
    record: Callable[[Any], Any] = _identity,
) -> List[Outcome]:
    """Call ``call(spec)`` back to back until ``stop_at``."""
    outcomes: List[Outcome] = []
    while clock() < stop_at:
        spec = next(specs)
        sent = clock()
        try:
            value = call(spec)
        except Exception as error:  # noqa: BLE001 - a failure is an outcome
            outcomes.append(
                Outcome(spec, False, clock() - sent,
                        error="%s: %s" % (type(error).__name__, error))
            )
            continue
        done = clock()
        outcomes.append(Outcome(spec, True, done - sent, value=record(value)))
    return outcomes


def percentile(values: Sequence[float], fraction: float) -> Tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latencies(outcomes: Sequence[Outcome]) -> List[float]:
    """Every attempted request's latency; a failure counts as infinite,
    so it misses every limit and is never averaged away."""
    return [o.latency_s if o.ok else math.inf for o in outcomes]
