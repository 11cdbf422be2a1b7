"""Tests for the multi-user personalization service."""

import pytest

from repro.core.context import SearchContext
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.errors import PreferenceError
from repro.preferences.model import SelectionCondition


@pytest.fixture()
def service(movie_db):
    return PersonalizationService(movie_db)


class TestUserManagement:
    def test_register_and_list(self, service, movie_profile):
        service.register("al", movie_profile)
        service.register("bo")
        assert service.users == ["al", "bo"]
        assert service.profile_of("al") is movie_profile

    def test_duplicate_registration_rejected(self, service):
        service.register("al")
        with pytest.raises(PreferenceError):
            service.register("al")

    def test_unknown_user_rejected(self, service):
        with pytest.raises(PreferenceError):
            service.profile_of("ghost")
        with pytest.raises(PreferenceError):
            service.request("ghost", "select title from MOVIE",
                            problem=CQPProblem.problem2(cmax=100))


class TestRequests:
    def test_request_with_explicit_problem(self, service, movie_profile):
        service.register("al", movie_profile)
        response = service.request(
            "al", "select title from MOVIE", problem=CQPProblem.problem2(cmax=150.0)
        )
        assert response.user == "al"
        assert response.personalized
        assert response.outcome.solution.cost <= 150.0 + 1e-6

    def test_request_with_context_policy(self, service, movie_profile):
        service.register("al", movie_profile)
        response = service.request(
            "al",
            "select title from MOVIE",
            context=SearchContext(device="desktop", time_budget_ms=150.0),
        )
        assert response.outcome.problem.table1_number() == 2

    def test_request_needs_context_or_problem(self, service, movie_profile):
        service.register("al", movie_profile)
        with pytest.raises(PreferenceError):
            service.request("al", "select title from MOVIE")

    def test_empty_profile_serves_unpersonalized(self, service):
        service.register("new-user")
        response = service.request(
            "new-user", "select title from MOVIE", problem=CQPProblem.problem2(cmax=100)
        )
        assert not response.personalized
        assert len(response.rows) > 0

    def test_queries_are_logged(self, service, movie_profile):
        service.register("al", movie_profile)
        service.request("al", "select title from MOVIE",
                        problem=CQPProblem.problem2(cmax=100))
        service.request("al", "select title from MOVIE where year >= 1990",
                        problem=CQPProblem.problem2(cmax=100))
        assert len(service.query_log_of("al")) == 2


class TestLearning:
    def test_relearn_blends_observed_conditions(self, movie_db):
        service = PersonalizationService(movie_db, relearn_every=2)
        service.register("cara")  # empty profile: everything is learned
        genre = movie_db.table("GENRE").column("genre")[0]
        query = (
            "select title from MOVIE M, GENRE G "
            "where M.mid = G.mid and G.genre = '%s'" % genre
        )
        problem = CQPProblem.problem2(cmax=1e9)
        service.request("cara", query, problem=problem)
        assert len(service.profile_of("cara")) == 0  # not yet due
        service.request("cara", query, problem=problem)
        learned = service.profile_of("cara")
        assert learned.get(SelectionCondition("GENRE", "genre", genre)) is not None

    def test_learned_profile_personalizes_next_request(self, movie_db):
        service = PersonalizationService(movie_db, relearn_every=1)
        service.register("cara")
        genre = movie_db.table("GENRE").column("genre")[0]
        query = (
            "select title from MOVIE M, GENRE G "
            "where M.mid = G.mid and G.genre = '%s'" % genre
        )
        problem = CQPProblem.problem2(cmax=1e9)
        service.request("cara", query, problem=problem)  # learns from this
        response = service.request(
            "cara", "select title from MOVIE", problem=problem
        )
        assert response.personalized

    def test_relearn_now_idempotent_on_empty_log(self, service):
        service.register("dan")
        profile = service.relearn_now("dan")
        assert len(profile) == 0

    def test_learning_weight_blends(self, movie_db):
        service = PersonalizationService(
            movie_db, relearn_every=0, learning_weight=0.5
        )
        genre = movie_db.table("GENRE").column("genre")[0]
        from repro.preferences.profile import UserProfile

        curated = UserProfile("eve")
        curated.add_selection("GENRE", "genre", genre, doi=1.0)
        service.register("eve", curated)
        query = (
            "select title from MOVIE M, GENRE G "
            "where M.mid = G.mid and G.genre = '%s'" % genre
        )
        service.request("eve", query, problem=CQPProblem.problem2(cmax=1e9))
        profile = service.relearn_now("eve")
        blended = profile.get(SelectionCondition("GENRE", "genre", genre))
        # 0.5 x curated 1.0 + 0.5 x learned cap (0.95) = 0.975.
        assert blended.doi == pytest.approx(0.975)

    def test_invalid_relearn_every(self, movie_db):
        with pytest.raises(ValueError):
            PersonalizationService(movie_db, relearn_every=-1)

    def test_learning_config_not_shared_between_services(self, movie_db):
        # A mutable default LearningConfig instance shared by every
        # service would leak tuning between tenants.
        first = PersonalizationService(movie_db)
        second = PersonalizationService(movie_db)
        assert first.learning_config is not second.learning_config
        explicit = first.learning_config
        third = PersonalizationService(movie_db, learning_config=explicit)
        assert third.learning_config is explicit


class TestRequestMany:
    PROBLEM = CQPProblem.problem2(cmax=150.0)

    def _batch(self, users, queries, repeats=1):
        return [
            BatchRequest(user=user, query=query, problem=self.PROBLEM)
            for _ in range(repeats)
            for user in users
            for query in queries
        ]

    def test_matches_sequential_requests(self, movie_db, movie_profile):
        batch_service = PersonalizationService(movie_db)
        loop_service = PersonalizationService(movie_db)
        for svc in (batch_service, loop_service):
            svc.register("al", movie_profile)
            svc.register("bo")
        queries = ["select title from MOVIE", "select title from MOVIE where year >= 1990"]
        batch = self._batch(["al", "bo"], queries)
        responses = batch_service.request_many(batch)
        assert len(responses) == len(batch)
        for req, response in zip(batch, responses):
            expected = loop_service.request(req.user, req.query, problem=req.problem)
            assert response.user == req.user
            assert response.personalized == expected.personalized
            assert response.outcome.sql == expected.outcome.sql
            assert response.rows == expected.rows

    def test_duplicates_share_one_solve(self, movie_db, movie_profile):
        service = PersonalizationService(movie_db)
        service.register("al", movie_profile)
        batch = self._batch(["al"], ["select title from MOVIE"], repeats=4)
        responses = service.request_many(batch)
        assert len(responses) == 4
        first = responses[0]
        for response in responses[1:]:
            # One shared outcome object per group, not four equal ones.
            assert response.outcome is first.outcome
            assert response.rows == first.rows
        # Every request still logged individually.
        assert len(service.query_log_of("al")) == 4

    def test_responses_keep_input_order(self, movie_db, movie_profile):
        service = PersonalizationService(movie_db)
        service.register("al", movie_profile)
        service.register("bo", movie_profile)
        batch = [
            BatchRequest("al", "select title from MOVIE", problem=self.PROBLEM),
            BatchRequest("bo", "select title from MOVIE", problem=self.PROBLEM),
            BatchRequest("al", "select title from MOVIE", problem=self.PROBLEM),
        ]
        responses = service.request_many(batch)
        assert [r.user for r in responses] == ["al", "bo", "al"]
        assert responses[0].outcome is responses[2].outcome
        assert responses[0].outcome is not responses[1].outcome

    def test_execute_false_skips_rows(self, movie_db, movie_profile):
        service = PersonalizationService(movie_db)
        service.register("al", movie_profile)
        responses = service.request_many(
            self._batch(["al"], ["select title from MOVIE"]), execute=False
        )
        assert responses[0].rows == ()
        assert responses[0].personalized

    def test_context_resolution_and_errors(self, movie_db, movie_profile):
        service = PersonalizationService(movie_db)
        service.register("al", movie_profile)
        with pytest.raises(PreferenceError):
            service.request_many([BatchRequest("al", "select title from MOVIE")])
        with pytest.raises(PreferenceError):
            service.request_many(
                [BatchRequest("ghost", "select title from MOVIE", problem=self.PROBLEM)]
            )
        # Failed batches must not have logged anything.
        assert service.query_log_of("al") == []
        responses = service.request_many(
            [
                BatchRequest(
                    "al",
                    "select title from MOVIE",
                    context=SearchContext(device="desktop", time_budget_ms=150.0),
                )
            ]
        )
        assert responses[0].outcome.problem.table1_number() == 2

    def test_batch_boundary_learning(self, movie_db):
        service = PersonalizationService(movie_db, relearn_every=2)
        service.register("cara")
        genre = movie_db.table("GENRE").column("genre")[0]
        query = (
            "select title from MOVIE M, GENRE G "
            "where M.mid = G.mid and G.genre = '%s'" % genre
        )
        problem = CQPProblem.problem2(cmax=1e9)
        service.request_many(
            [BatchRequest("cara", query, problem=problem) for _ in range(2)]
        )
        learned = service.profile_of("cara")
        assert learned.get(SelectionCondition("GENRE", "genre", genre)) is not None


class TestDegradedSemantics:
    """``degraded`` reads exactly ``degradation_reason``, the one
    degradation channel (SLA-driven algorithm downgrades, set by the
    serving layer)."""

    PROBLEM = CQPProblem.problem2(cmax=200.0)

    def _response(self, service):
        service.register("al")
        return service.request(
            "al", "select title from MOVIE", problem=self.PROBLEM
        )

    def test_pristine_response_is_not_degraded(self, service):
        response = self._response(service)
        assert response.degradation_reason is None
        assert not response.degraded

    def test_degradation_reason_alone_marks_degraded(self, service):
        from dataclasses import replace

        response = replace(
            self._response(service),
            degradation_reason="downgraded c_boundaries -> c_maxbounds: test",
        )
        assert response.degraded
