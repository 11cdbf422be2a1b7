"""Tests for search instrumentation."""

from repro.core.stats import SearchStats, node_bytes
from repro.testing.reference import container_bytes


class TestCounters:
    def test_increments(self):
        stats = SearchStats()
        stats.examined()
        stats.examined(2)
        stats.evaluated(5)
        stats.moved()
        assert stats.states_examined == 3
        assert stats.parameter_evaluations == 5
        assert stats.transitions_taken == 1

    def test_merge(self):
        a = SearchStats(states_examined=3, peak_memory_bytes=100, wall_time_s=1.0)
        b = SearchStats(states_examined=2, peak_memory_bytes=300, wall_time_s=0.5)
        a.merge(b)
        assert a.states_examined == 5
        assert a.peak_memory_bytes == 300
        assert a.wall_time_s == 1.5


class TestMemoryAccounting:
    def test_node_bytes_scales_with_group(self):
        assert node_bytes((1,)) < node_bytes((1, 2, 3))

    def test_container_bytes_sums_nodes(self):
        states = [(1,), (1, 2)]
        assert container_bytes(states) == node_bytes((1,)) + node_bytes((1, 2))

    def test_peak_tracks_maximum(self):
        stats = SearchStats()
        container = [(1, 2, 3)] * 10
        stats.track_container("q", lambda: container_bytes(container))
        stats.sample_memory(force=True)
        first_peak = stats.peak_memory_bytes
        del container[5:]
        stats.sample_memory(force=True)
        assert stats.peak_memory_bytes == first_peak  # peak never shrinks

    def test_small_runs_sampled_exactly(self):
        stats = SearchStats()
        sizes = [0]
        stats.track_container("q", lambda: sizes[0])
        for size in (10, 50, 20):
            sizes[0] = size
            stats.sample_memory()
        assert stats.peak_memory_bytes == 50

    def test_kb_property(self):
        stats = SearchStats(peak_memory_bytes=2048)
        assert stats.peak_memory_kb == 2.0

    def test_multiple_containers_summed(self):
        stats = SearchStats()
        stats.track_container("a", lambda: 100)
        stats.track_container("b", lambda: 50)
        assert stats.sample_memory(force=True) == 150


class TestReleaseIdempotency:
    def test_release_twice_is_a_no_op(self):
        stats = SearchStats()
        sizes = [100]
        stats.track_container("q", lambda: sizes[0])
        stats.release_containers()
        peak = stats.peak_memory_bytes
        assert stats.released
        # A second release must neither fail nor re-sample anything.
        sizes[0] = 10_000
        stats.release_containers()
        assert stats.peak_memory_bytes == peak

    def test_release_takes_final_sample(self):
        stats = SearchStats()
        stats.track_container("q", lambda: 640)
        stats.release_containers()
        assert stats.peak_memory_bytes == 640

    def test_tracking_after_release_is_ignored(self):
        stats = SearchStats()
        stats.release_containers()
        stats.track_container("late", lambda: 10**9)
        assert stats.sample_memory(force=True) == 0
        assert stats.peak_memory_bytes == 0

    def test_release_without_containers(self):
        stats = SearchStats()
        stats.release_containers()
        assert stats.released
        assert stats.peak_memory_bytes == 0


class TestPerRequestCounterReset:
    """A response's solution stats report per-request deltas, never
    cumulative cache totals leaked across requests."""

    def test_second_request_reports_only_its_own_traffic(self):
        from repro.core.frontier_cache import FrontierCache
        from repro.core.param_cache import ParameterCache
        from repro.core.problem import CQPProblem
        from repro.core.service import PersonalizationService
        from repro.datasets.movies import MovieDatasetConfig, build_movie_database
        from repro.workloads.profiles import generate_profile

        database = build_movie_database(
            MovieDatasetConfig(
                n_movies=150, n_directors=40, n_actors=80, cast_per_movie=2
            ),
            seed=5,
        )
        service = PersonalizationService(
            database,
            param_cache=ParameterCache(),
            frontier_cache=FrontierCache(),
        )
        service.register("u", generate_profile(database, seed=11))
        problem = CQPProblem.problem2(cmax=50.0)

        def ask():
            return service.request(
                "u", "select title from MOVIE", problem=problem,
                algorithm="c_boundaries", k_limit=6,
            )

        first = ask().outcome.solution.stats
        second = ask().outcome.solution.stats
        # The repeat request rides the first one's frontier: its own
        # traffic is exactly one memo hit, and had the counters been
        # cumulative it would also carry the first request's miss.
        assert (first.frontier_cache_hits, first.frontier_cache_misses) == (0, 1)
        assert (second.frontier_cache_hits, second.frontier_cache_misses) == (1, 0)
        totals = service.frontier_cache.counters()
        assert (
            first.frontier_cache_hits + second.frontier_cache_hits
            == totals["hits"]
        )
        assert (
            first.frontier_cache_misses + second.frontier_cache_misses
            == totals["misses"]
        )
