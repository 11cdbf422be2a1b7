from dataclasses import replace

import pytest

from perfbench.gate import Gate, fingerprint


def test_gate_passes_matching_answers_and_rejects_a_planted_one():
    truth = {("u", q): (True, (q,), 0.5, 10.0, 3.0, "digest-%d" % q) for q in range(10)}
    gate = Gate()
    for key, print_ in truth.items():
        gate.observe(key, print_)
    gate.verify(truth.__getitem__, sample=10, seed=0)
    assert gate.ok and gate.checked == 10

    planted = Gate()
    for key, print_ in truth.items():
        if key == ("u", 4):
            print_ = print_[:2] + (0.5000000001,) + print_[3:]  # doi off by 1e-10
        planted.observe(key, print_)
    planted.verify(truth.__getitem__, sample=10, seed=0)
    assert not planted.ok and "('u', 4)" in planted.errors[0]


def test_gate_rejects_disagreeing_repeats():
    gate = Gate()
    gate.observe("k", (True, (1,), 0.5, 1.0, 1.0, "a"))
    gate.observe("k", (True, (1,), 0.5, 1.0, 1.0, "b"))
    assert gate.repeats == 1 and not gate.ok


@pytest.fixture(scope="module")
def service():
    from repro.core.service import PersonalizationService
    from repro.datasets.movies import MovieDatasetConfig, build_movie_database
    from repro.workloads.profiles import generate_profiles

    database = build_movie_database(
        MovieDatasetConfig(n_movies=200, n_directors=40, n_actors=80), seed=0
    )
    svc = PersonalizationService(database)
    svc.register("al", generate_profiles(database, count=1, seed=5)[0])
    return svc


def test_gate_on_real_responses(service):
    from repro.core.problem import CQPProblem

    query = "select title from MOVIE"
    problem = CQPProblem.problem2(cmax=40.0)
    served = service.request("al", query, problem=problem, k_limit=10)
    assert served.outcome.solution is not None

    def resolve(_key):
        return fingerprint(service.request("al", query, problem=problem, k_limit=10))

    gate = Gate()
    gate.observe("k", fingerprint(served))
    gate.verify(resolve, sample=1, seed=0)
    assert gate.ok

    wrong = replace(served, rows=served.rows + (("Movie_99999",),))
    planted = Gate()
    planted.observe("k", fingerprint(wrong))
    planted.verify(resolve, sample=1, seed=0)
    assert not planted.ok
