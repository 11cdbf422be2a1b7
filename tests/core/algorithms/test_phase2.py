"""Direct tests for the shared second phase: pointer search and the
below-boundary region search.

The pointer trick's optimality claim (greedy over nested rank ranges
maximizes the doi conjunction) is the least obvious step of
C_FINDMAXDOI; it gets its own brute-force cross-check here.
"""

import itertools
import random

import pytest

from repro.core.algorithms.base import find_max_doi_below, pointer_best_below
from repro.core.state import mask_of, state_of
from repro.core.stats import SearchStats
from repro.testing.reference import is_below, prefs, within_budget
from repro.workloads.scenarios import (
    figure6_cost_space,
    make_cost_space,
    make_synthetic_evaluator,
)


def brute_best_below(space, boundary):
    """All states below the boundary, maximizing doi, by enumeration."""
    k = space.k
    best_doi, best = -1.0, None
    slots = [range(start, k) for start in boundary]
    for ranks in itertools.product(*slots):
        if len(set(ranks)) != len(ranks):
            continue
        state = tuple(sorted(ranks))
        if not is_below(state, boundary):
            continue
        doi = space.evaluator.doi(prefs(space, state))
        if doi > best_doi:
            best_doi, best = doi, state
    return best_doi


class TestPointerBestBelow:
    def test_figure6_boundary(self):
        space = figure6_cost_space()
        doi, indices = pointer_best_below(space, mask_of((1, 2, 3)))
        # Below c2c3c4 the best-doi node is c2c3c4 itself (prefs 1,2,3).
        assert state_of(indices) == (1, 2, 3)
        assert doi == pytest.approx(1 - 0.2 * 0.3 * 0.4)

    def test_picks_better_doi_below(self):
        # C-vector order differs from doi order: the best node below a
        # boundary may replace ranks with later, more interesting ones.
        # Post-resort: P = [doi .9/cost 50, doi .8/cost 10, doi .2/cost 40],
        # so C = [pref0, pref2, pref1].
        evaluator = make_synthetic_evaluator([0.9, 0.2, 0.8], [50.0, 40.0, 10.0])
        space = make_cost_space(evaluator, cmax=90.0)
        assert space.vector == (0, 2, 1)
        doi, indices = pointer_best_below(space, mask_of((0, 1)))
        # Boundary {rank0, rank1} = prefs {0, 2}; swapping rank1 -> rank2
        # yields prefs {0, 1} (dois .9 and .8), strictly better and cheaper.
        assert state_of(indices) == (0, 1)
        assert doi == pytest.approx(1 - 0.1 * 0.2)

    def test_stays_within_budget(self):
        rng = random.Random(4)
        for _ in range(50):
            k = rng.randint(2, 8)
            evaluator = make_synthetic_evaluator(
                [rng.uniform(0.05, 1) for _ in range(k)],
                [rng.uniform(1, 50) for _ in range(k)],
            )
            cmax = rng.uniform(10, 50 * k)
            space = make_cost_space(evaluator, cmax)
            group = rng.randint(1, k)
            boundary = tuple(sorted(rng.sample(range(k), group)))
            if not within_budget(space, boundary):
                continue
            _, indices = pointer_best_below(space, mask_of(boundary))
            assert evaluator.cost_mask(indices) <= cmax + 1e-9

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(80):
            k = rng.randint(1, 7)
            evaluator = make_synthetic_evaluator(
                [rng.uniform(0.05, 1) for _ in range(k)],
                [rng.uniform(1, 50) for _ in range(k)],
            )
            space = make_cost_space(evaluator, cmax=1e9)
            group = rng.randint(1, k)
            boundary = tuple(sorted(rng.sample(range(k), group)))
            doi, _ = pointer_best_below(space, mask_of(boundary))
            assert doi == pytest.approx(brute_best_below(space, boundary), abs=1e-9)


class TestRegionSearch:
    def _constrained_space(self, evaluator, cmax, max_size):
        def extra(mask):
            return evaluator.size_mask(mask) <= max_size * (1 + 1e-9)

        return make_cost_space(evaluator, cmax, extra=extra)

    def test_respects_extra_predicate(self):
        evaluator = make_synthetic_evaluator(
            [0.9, 0.8, 0.7], [30.0, 20.0, 10.0], [900.0, 800.0, 10.0], base_size=1000.0
        )
        space = self._constrained_space(evaluator, cmax=60.0, max_size=50.0)
        from repro.core.algorithms.c_boundaries import find_boundaries

        boundaries = find_boundaries(space, SearchStats())
        best = find_max_doi_below(space, boundaries, SearchStats())
        assert best is not None
        assert evaluator.size_mask(best) <= 50.0 + 1e-6

    def test_none_when_region_fully_excluded(self):
        evaluator = make_synthetic_evaluator([0.9, 0.8], [10.0, 10.0])
        # Extra predicate nothing can satisfy.
        space = make_cost_space(evaluator, cmax=100.0, extra=lambda mask: False)
        from repro.core.algorithms.c_boundaries import find_boundaries

        boundaries = find_boundaries(space, SearchStats())
        assert find_max_doi_below(space, boundaries, SearchStats()) is None

    def test_matches_exhaustive_with_extras(self):
        rng = random.Random(12)
        from repro.core.algorithms import Exhaustive
        from repro.core.algorithms.c_boundaries import find_boundaries

        for _ in range(40):
            k = rng.randint(1, 7)
            evaluator = make_synthetic_evaluator(
                [rng.uniform(0.05, 1) for _ in range(k)],
                [rng.uniform(1, 50) for _ in range(k)],
                [rng.uniform(1, 900) for _ in range(k)],
                base_size=1000.0,
            )
            cmax = rng.uniform(0, 50 * k)
            max_size = rng.uniform(1, 1000)
            space = self._constrained_space(evaluator, cmax, max_size)
            reference = Exhaustive().solve(space)
            boundaries = find_boundaries(space, SearchStats())
            best = find_max_doi_below(space, boundaries, SearchStats())
            if reference is None:
                assert best is None
            else:
                assert best is not None
                assert evaluator.doi_mask(best) == pytest.approx(reference.doi, abs=1e-9)

    def test_empty_boundaries_returns_none(self):
        space = figure6_cost_space()
        assert find_max_doi_below(space, [], SearchStats()) is None
