import asyncio
import itertools
import math

import pytest

from perfbench.drivers import closed_loop, latencies, percentile, sync_loop


class FakeClock:
    """Time moves only when a test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_closed_loop_accounts_for_every_request():
    clock = FakeClock()
    calls = itertools.count()

    async def submit(spec):
        clock.now += 0.01
        if next(calls) % 3 == 0:
            raise RuntimeError("rejected")
        await asyncio.sleep(0)
        return spec

    bundles = ((i, i) for i in itertools.count())
    outcomes = asyncio.run(closed_loop(submit, bundles, 4, 0.5, clock))
    assert len(outcomes) == next(calls)
    assert sum(not o.ok for o in outcomes) == len(outcomes) // 3 + (len(outcomes) % 3 > 0)


def test_sync_loop_keeps_going_after_a_failure():
    clock = FakeClock()

    def call(spec):
        clock.now += 0.1
        if spec == 1:
            raise ValueError("bad")
        return spec

    outcomes = sync_loop(call, iter(range(100)), 0.45, clock)
    assert [o.ok for o in outcomes] == [True, False, True, True, True]
    # Latency runs from send to answer; a failure counts as infinite.
    assert latencies(outcomes) == [pytest.approx(0.1), math.inf] + [pytest.approx(0.1)] * 3


def test_percentile_is_nearest_rank_with_samples_beyond():
    values = list(range(1, 1001))
    assert percentile(values, 0.5) == (500, 500)
    assert percentile(values, 0.99) == (990, 10)
    assert percentile([math.inf, 1.0, 2.0], 0.5) == (2.0, 1)
