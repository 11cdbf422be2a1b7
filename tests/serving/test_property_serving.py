"""Hypothesis property: serving is a policy wrapper, never an answer-changer.

For *any* interleaving of arrivals and completions — arbitrary arrival
offsets, tier assignments, queue budgets, and scripted solve durations —
the serving pipeline must:

* answer every admitted request bit-identically to the synchronous
  ``request_many`` path (receipts and rows);
* give every rejected request a positive retry-after (its tier's), and
  never silently drop anything: exactly one outcome per arrival;
* keep the scoreboard's books balanced against admission's counters.

The interleavings run the real asyncio server on a virtual-time event
loop — so the property holds with zero real sleeps and a derandomized
hypothesis profile.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier_cache import FrontierCache
from repro.core.param_cache import ParameterCache
from repro.core.service import PersonalizationService
from repro.serving.admission import AdmissionRejected
from repro.serving.config import ServingConfig, SlaTier
from repro.serving.server import ServedResponse
from repro.testing.differential import Receipt

from tests.serving.conftest import make_requests, serve_timeline


@pytest.fixture(scope="module")
def arena(movie_db, movie_profile):
    """One warmed service, the six base requests, and their sync answers."""
    from repro.sql.parser import parse_select

    service = PersonalizationService(
        movie_db,
        param_cache=ParameterCache(),
        frontier_cache=FrontierCache(),
    )
    service.register("pat", movie_profile)
    requests = make_requests(service, parse_select("select title from MOVIE"))
    reference = service.request_many(list(requests))
    return service, requests, reference


def receipt_and_rows(response):
    return Receipt.of(response.outcome.solution), response.rows


@st.composite
def serving_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    offsets = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    picks = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    tiers = draw(st.lists(st.sampled_from(["gold", "bronze"]), min_size=n, max_size=n))
    bronze_budget = draw(st.integers(min_value=1, max_value=4))
    gold_budget = bronze_budget + draw(st.integers(min_value=0, max_value=4))
    durations = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    max_batch = draw(st.integers(min_value=1, max_value=6))
    window_ms = draw(st.sampled_from([0.0, 5.0, 50.0]))
    return (offsets, picks, tiers, gold_budget, bronze_budget, durations,
            max_batch, window_ms)


def build_config(gold_budget, bronze_budget, max_batch, window_ms):
    tiers = (
        SlaTier(
            name="gold",
            priority=0,
            deadline_ms=200.0,
            queue_budget=gold_budget,
            retry_after_ms=50.0,
            degrade_queue_depth=4,
        ),
        SlaTier(
            name="bronze",
            priority=1,
            deadline_ms=2000.0,
            queue_budget=bronze_budget,
            retry_after_ms=250.0,
            degrade_queue_depth=2,
        ),
    )
    # degradation off: equivalence is a property of batching/admission
    # interleavings, and must hold for every one of them.
    return ServingConfig(
        tiers=tiers,
        default_tier="bronze",
        max_batch=max_batch,
        batch_window_ms=window_ms,
        degradation=False,
    )


@settings(max_examples=30)
@given(scenario=serving_scenarios())
def test_any_interleaving_serves_bit_identical_or_rejects_loudly(arena, scenario):
    (offsets, picks, tiers, gold_budget, bronze_budget, durations,
     max_batch, window_ms) = scenario
    service, requests, reference = arena
    config = build_config(gold_budget, bronze_budget, max_batch, window_ms)
    arrivals = [
        (offset, requests[pick], tier)
        for offset, pick, tier in zip(offsets, picks, tiers)
    ]
    outcomes, server = serve_timeline(service, arrivals, config, solve_s=durations)

    # Never dropped: exactly one outcome per arrival, served XOR rejected.
    assert len(outcomes) == len(arrivals)
    assert all(isinstance(o, (ServedResponse, AdmissionRejected)) for o in outcomes)

    # Admitted answers are bit-identical to the synchronous service.
    for outcome, pick in zip(outcomes, picks):
        if not isinstance(outcome, ServedResponse):
            continue
        assert receipt_and_rows(outcome.response) == receipt_and_rows(reference[pick])
        assert not outcome.response.degraded

    # Rejections are loud: the right tier's positive retry-after.
    retry_after = {"gold": 0.050, "bronze": 0.250}
    for outcome, tier in zip(outcomes, tiers):
        if not isinstance(outcome, AdmissionRejected):
            continue
        assert outcome.rejection.tier == tier
        assert outcome.retry_after_s == pytest.approx(retry_after[tier])
        assert outcome.retry_after_s > 0

    # The books balance.
    served = sum(isinstance(o, ServedResponse) for o in outcomes)
    rejected = len(outcomes) - served
    report = server.scoreboard.report()
    assert sum(block["served"] for block in report.values()) == served
    assert sum(block["rejected"] for block in report.values()) == rejected
    assert (server.admission.admitted, server.admission.rejected) == (served, rejected)
