import itertools

from perfbench import streams


def take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_same_seed_same_streams():
    assert take(streams.cold_stream(3), 300) == take(streams.cold_stream(3), 300)
    assert take(streams.saturate_bundles(3), 100) == take(streams.saturate_bundles(3), 100)


def test_different_seed_different_streams():
    assert take(streams.cold_stream(3), 50) != take(streams.cold_stream(4), 50)
    assert take(streams.saturate_bundles(3), 50) != take(streams.saturate_bundles(4), 50)


def test_cold_never_repeats_a_key():
    specs = take(streams.cold_stream(0), 5000)
    assert len(set(specs)) == len(specs)
    assert {spec.problem[0] for spec in specs} == {"p2", "p3"}


def test_saturate_bundles_share_an_extraction_key():
    kinds = []
    for bundle in take(streams.saturate_bundles(0), 200):
        assert len(bundle) == streams.SATURATE_BUNDLE
        assert len({(spec.user, spec.query, spec.k_limit, spec.tier) for spec in bundle}) == 1
        assert len({spec.problem for spec in bundle}) == len(bundle)
        kind = bundle[0].problem[0]
        assert all(spec.problem[0] == kind for spec in bundle)
        if kind == "p3":
            # One cmax and smin: one extraction and one stacked frontier.
            assert len({spec.problem[1:3] for spec in bundle}) == 1
            assert bundle[0].k_limit <= 20
        kinds.append(kind)
    assert kinds.count("p3") == kinds.count("p4")


def test_saturate_never_revisits_a_space_within_a_round():
    rounds = streams.SATURATE_USERS * streams.SATURATE_QUERIES
    pairs = [(b[0].user, b[0].query) for b in take(streams.saturate_bundles(1), rounds)]
    assert len(set(pairs)) == rounds
