"""Micro-batcher tests: flush policy as a pure function of time.

Every scenario passes plain float ``now`` values along an explicit
timeline — no sleeps, no wall clock, bit-for-bit reproducible.
"""

from __future__ import annotations

import math

import pytest

from repro.core.service import BatchRequest
from repro.serving.batcher import MicroBatcher

from tests.serving.conftest import BRONZE, GOLD, tiny_config


def req(n: int = 0) -> BatchRequest:
    return BatchRequest(user="pat", query="select title from MOVIE -- %d" % n)


class TestFlushOnDeadline:
    def test_batch_becomes_due_exactly_at_the_window(self):
        batcher = MicroBatcher(tiny_config())  # 20 ms window
        batcher.add(req(), BRONZE, 0.0)
        assert batcher.depth == 1 and not batcher.full
        assert batcher.next_deadline() == pytest.approx(0.020)
        assert not batcher.due(0.019)
        assert batcher.take_due(0.019) == []
        assert batcher.due(0.020)
        batch = batcher.take_due(0.020)
        assert [p.seq for p in batch] == [0]
        assert batcher.depth == 0 and batcher.next_deadline() is None

    def test_tight_tier_deadline_caps_the_window(self):
        # With a 100 ms window, gold's flush cap is 25% of its 200 ms
        # deadline = 50 ms: a late-arriving gold request drags the whole
        # batch out well before bronze's own 100 ms would.
        batcher = MicroBatcher(tiny_config(batch_window_ms=100.0))
        batcher.add(req(0), BRONZE, 0.0)
        batcher.add(req(1), GOLD, 0.010)
        assert batcher.next_deadline() == pytest.approx(0.060)  # 10ms + 50ms
        assert not batcher.due(0.059)
        batch = batcher.take_due(0.010 + 0.050)  # gold's own flush_by, exactly
        # Gold dispatches first despite arriving second.
        assert [p.tier.name for p in batch] == ["gold", "bronze"]


class TestFlushOnFullBatch:
    def test_full_batch_is_due_immediately(self):
        batcher = MicroBatcher(tiny_config())  # max_batch=4
        for n in range(5):
            batcher.add(req(n), BRONZE, 0.0)
        assert batcher.full and batcher.due(0.0)  # no waiting
        batch = batcher.take_due(0.0)
        assert [p.seq for p in batch] == [0, 1, 2, 3]
        # The straggler stays pending with its own deadline intact.
        assert batcher.depth == 1
        assert batcher.next_deadline() == pytest.approx(0.020)

    def test_drain_takes_everything_regardless_of_deadline(self):
        batcher = MicroBatcher(tiny_config())
        batcher.add(req(0), BRONZE, 0.0)
        batcher.add(req(1), GOLD, 0.0)
        assert not batcher.due(0.0)
        drained = batcher.take_due(math.inf)  # the server's drain/stop flush
        assert [p.tier.name for p in drained] == ["gold", "bronze"]
        assert batcher.depth == 0


class TestTierOrderedDispatch:
    def test_take_due_orders_by_tier_then_arrival(self):
        batcher = MicroBatcher(tiny_config())
        for n, tier in enumerate([BRONZE, GOLD, BRONZE, GOLD]):
            batcher.add(req(n), tier, 0.0)
        batch = batcher.take_due(0.0)  # full at 4
        assert [(p.tier.name, p.seq) for p in batch] == [
            ("gold", 1),
            ("gold", 3),
            ("bronze", 0),
            ("bronze", 2),
        ]

    def test_overflow_sheds_lowest_tier_to_the_next_batch(self):
        batcher = MicroBatcher(tiny_config(max_batch=3))
        for n, tier in enumerate([BRONZE, BRONZE, GOLD, GOLD]):
            batcher.add(req(n), tier, 0.0)
        first = batcher.take_due(0.0)
        assert [(p.tier.name, p.seq) for p in first] == [
            ("gold", 2),
            ("gold", 3),
            ("bronze", 0),
        ]
        assert [p.seq for p in batcher.take_due(math.inf)] == [1]

    def test_records_requested_algorithm(self):
        batcher = MicroBatcher(tiny_config())
        request = BatchRequest(
            user="pat", query="select title from MOVIE", algorithm="c_boundaries"
        )
        pending = batcher.add(request, GOLD, 0.0)
        assert pending.requested_algorithm == "c_boundaries"
        assert pending.arrived_at == 0.0
