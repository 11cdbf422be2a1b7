"""Virtual-time end-to-end timelines of the real serving loop.

Each scenario replays scripted arrivals against
:class:`~repro.serving.server.AsyncPersonalizationServer` on a
:class:`~tests.serving.conftest.VirtualTimeLoop` with scripted solve
durations, and asserts exact latencies, queue times, statuses, and
accounting — with zero real sleeps.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.adapters import recommended_algorithm
from repro.core.context import SearchContext, problem_for_context
from repro.core.service import BatchRequest
from repro.serving.admission import AdmissionRejected
from repro.serving.server import ServedResponse
from repro.testing.differential import Receipt

from tests.serving.conftest import K_LIMIT, serve_timeline, tiny_config


class TestFlushTiming:
    def test_deadline_flush_sets_exact_latencies(self, serving_service, serving_requests):
        arrivals = [
            (0.000, serving_requests[0], "bronze"),
            (0.005, serving_requests[1], "bronze"),
        ]
        outcomes, server = serve_timeline(serving_service, arrivals, tiny_config())
        assert server.batches_dispatched == 1
        first, second = outcomes
        # Solve is instantaneous, so latency is pure batching delay:
        # the 20 ms window from the first arrival.
        assert first.latency_ms == pytest.approx(20.0)
        assert second.latency_ms == pytest.approx(15.0)
        assert first.queue_ms == pytest.approx(first.latency_ms)
        assert first.status == "WIN" and second.status == "WIN"
        assert first.batch_size == 2
        # And the answers are the real service's answers, bit-identical.
        reference = serving_service.request_many(list(serving_requests[:2]))
        for served, expected in zip(outcomes, reference):
            assert Receipt.of(served.response.outcome.solution) == Receipt.of(
                expected.outcome.solution
            )
            assert served.response.rows == expected.rows

    def test_full_batch_flushes_without_waiting(self, serving_service, serving_requests):
        arrivals = [(0.0, serving_requests[n], "bronze") for n in range(4)]
        outcomes, server = serve_timeline(serving_service, arrivals, tiny_config())
        assert server.batches_dispatched == 1
        assert all(served.latency_ms == pytest.approx(0.0) for served in outcomes)

    def test_solves_serialize_behind_one_in_flight_batch(
        self, serving_service, serving_requests
    ):
        arrivals = [
            (0.0, serving_requests[0], "bronze"),
            (0.5, serving_requests[1], "bronze"),
        ]
        outcomes, server = serve_timeline(
            serving_service, arrivals, tiny_config(), solve_s=(1.0,)
        )
        assert server.batches_dispatched == 2
        first, second = outcomes
        # Batch 1 flushes at 20 ms and completes at 1.020 s; batch 2's
        # flush deadline (0.52 s) passes while that solve is in flight,
        # so it is dispatched only at 1.020 s — and its queue time
        # counts that wait — then completes at 2.020 s.
        assert first.latency_ms == pytest.approx(1020.0)
        assert second.latency_ms == pytest.approx(1520.0)
        assert second.queue_ms == pytest.approx(1520.0 - 1000.0)
        assert second.batch_size == 1
        assert first.status == "IMPROVED" and second.status == "IMPROVED"


class TestBackpressure:
    def test_fifth_bronze_arrival_is_rejected_not_dropped(
        self, serving_service, serving_requests
    ):
        # Bronze budget is 4; all five arrive before anything completes.
        arrivals = [
            (0.0, serving_requests[n % len(serving_requests)], "bronze")
            for n in range(5)
        ]
        outcomes, server = serve_timeline(serving_service, arrivals, tiny_config())
        assert len(outcomes) == 5
        assert all(isinstance(o, ServedResponse) for o in outcomes[:4])
        rejected = outcomes[4]
        assert isinstance(rejected, AdmissionRejected)
        assert rejected.retry_after_s == pytest.approx(0.250)
        assert server.scoreboard.report()["bronze"]["rejected"] == 1

    def test_completion_frees_capacity_for_later_arrivals(
        self, serving_service, serving_requests
    ):
        # Four fill the bronze budget and flush as a full batch at t=0;
        # a fifth at t=1 finds the queue empty again and is served.
        arrivals = [(0.0, serving_requests[n], "bronze") for n in range(4)]
        arrivals.append((1.0, serving_requests[4], "bronze"))
        outcomes, _ = serve_timeline(serving_service, arrivals, tiny_config())
        assert all(isinstance(o, ServedResponse) for o in outcomes)
        assert len(outcomes) == 5


class TestDegradation:
    def test_queue_depth_crossing_degrades_and_classifies_neutral(
        self, serving_service, serving_requests
    ):
        # Three c_boundaries requests pending at dispatch: depth 3 is
        # past bronze's degrade_queue_depth of 2, so each steps one rung
        # down to c_maxbounds and classifies NEUTRAL (met deadline,
        # degraded — the graceful-degradation bargain).
        request = serving_requests[0]
        assert request.algorithm == "c_boundaries"
        arrivals = [(0.0, request, "bronze") for _ in range(3)]
        outcomes, server = serve_timeline(serving_service, arrivals, tiny_config())
        assert server.policy.downgrades == 3
        for served in outcomes:
            assert served.algorithm == "c_maxbounds"
            assert served.status == "NEUTRAL"
            assert served.response.degraded
            assert "queue depth 3" in served.response.degradation_reason
            assert "c_boundaries -> c_maxbounds" in served.response.degradation_reason

    def test_context_routed_requests_degrade_like_explicit_ones(
        self, serving_service, movie_query
    ):
        # A phone context routes to Problem 3, whose recommended
        # algorithm is c_boundaries; under the same queue depth the
        # context-routed request must step down exactly like one that
        # names the problem itself.
        context = SearchContext(device="phone")
        problem = problem_for_context(context)
        assert recommended_algorithm(problem) == "c_boundaries"
        routed = BatchRequest(
            user="pat", query=movie_query, context=context, k_limit=K_LIMIT
        )
        explicit = replace(routed, context=None, problem=problem)
        for request in (routed, explicit):
            arrivals = [(0.0, request, "bronze") for _ in range(3)]
            outcomes, server = serve_timeline(serving_service, arrivals, tiny_config())
            assert server.policy.downgrades == 3
            for served in outcomes:
                assert served.algorithm == "c_maxbounds"
                assert (
                    "c_boundaries -> c_maxbounds"
                    in served.response.degradation_reason
                )
        reference = serving_service.request(
            "pat", movie_query, problem=problem, algorithm="c_maxbounds",
            k_limit=K_LIMIT,
        )
        assert Receipt.of(outcomes[0].response.outcome.solution) == Receipt.of(
            reference.outcome.solution
        )
        assert outcomes[0].response.rows == reference.rows

    def test_degradation_off_pins_the_algorithm_under_load(
        self, serving_service, serving_requests
    ):
        request = serving_requests[0]
        arrivals = [(0.0, request, "bronze") for _ in range(3)]
        outcomes, server = serve_timeline(
            serving_service, arrivals, tiny_config(degradation=False)
        )
        assert server.policy.downgrades == 0
        assert all(served.algorithm == "c_boundaries" for served in outcomes)
        assert all(not served.response.degraded for served in outcomes)

    def test_wait_for_the_solver_burns_the_elapsed_budget(
        self, serving_service, serving_requests
    ):
        # A 3 s solve is in flight when the c_boundaries request arrives
        # at 0.1 s; it is dispatched at 3.02 s, 2920 ms after arrival —
        # past half of bronze's 2 s deadline — so it runs one rung down.
        request = serving_requests[0]
        assert request.algorithm == "c_boundaries"
        arrivals = [
            (0.0, serving_requests[1], "bronze"),
            (0.1, request, "bronze"),
        ]
        (_, served), _ = serve_timeline(
            serving_service, arrivals, tiny_config(), solve_s=(3.0,)
        )
        assert served.algorithm == "c_maxbounds"
        assert "queued 2920.0 ms > 50%" in served.response.degradation_reason


class TestDeadlineMiss:
    def test_slow_solve_classifies_regression(self, serving_service, serving_requests):
        outcomes, server = serve_timeline(
            serving_service,
            [(0.0, serving_requests[0], "bronze")],
            tiny_config(),
            solve_s=(3.0,),  # bronze deadline is 2 s
        )
        served = outcomes[0]
        assert served.status == "REGRESSION"
        assert served.latency_ms == pytest.approx(3020.0)
        assert served.queue_ms == pytest.approx(20.0)
        assert server.scoreboard.report()["bronze"]["taxonomy"]["REGRESSION"] == 1


class TestFailureIsolation:
    def test_a_failing_solve_fails_only_its_batch(
        self, serving_service, serving_requests, monkeypatch
    ):
        # The first request_many raises: A and B (one batch) hear the
        # error, their admission slots come back, and C — a later batch
        # on the same loop — is served normally.
        real = serving_service.request_many
        calls = []

        def flaky(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                raise RuntimeError("solver blew up")
            return real(requests)

        monkeypatch.setattr(serving_service, "request_many", flaky)
        arrivals = [
            (0.0, serving_requests[0], "bronze"),
            (0.0, serving_requests[1], "bronze"),
            (0.5, serving_requests[2], "bronze"),
        ]
        outcomes, server = serve_timeline(serving_service, arrivals, tiny_config())
        assert calls == [2, 1]
        assert all(isinstance(o, RuntimeError) for o in outcomes[:2])
        assert isinstance(outcomes[2], ServedResponse)
        assert outcomes[2].response.personalized
        assert server.admission.depth == 0
        assert server.requests_served == 1 and server.batches_dispatched == 1
