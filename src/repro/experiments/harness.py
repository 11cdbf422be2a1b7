"""Shared experiment fixtures and the grid runner.

The paper's setup: every data point is the average of 200 runs — 20
profiles × 10 queries — at fixed (K, cmax). A :class:`Workbench` builds
the database, the profile and query populations, and caches one
extracted preference space per (profile, query) pair; experiments then
truncate that space to the K under test (exactly "the number of
preferences K … used by a CQP algorithm") and solve Problem 2 at the
cmax under test.

``ExperimentConfig.quick()`` shrinks the populations so the whole figure
suite runs in minutes; ``full()`` is the paper's 20 × 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import adapters
from repro.core.algorithms.base import paper_algorithms
from repro.core.preference_space import PreferenceSpace, extract_preference_space
from repro.core.problem import CQPProblem
from repro.core.solution import CQPSolution
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.preferences.profile import UserProfile
from repro.sql.ast_nodes import SelectQuery
from repro.storage.database import Database
from repro.workloads.profiles import ProfileConfig, generate_profiles
from repro.workloads.queries import generate_queries


@dataclass(frozen=True)
class ExperimentConfig:
    """Population sizes and paper defaults for one experiment session."""

    seed: int = 0
    n_profiles: int = 20
    n_queries: int = 10
    k_default: int = 20          # the paper's default K
    cmax_default: float = 400.0  # the paper's default cmax (ms)
    k_values: Tuple[int, ...] = (10, 20, 30, 40)
    cmax_fractions: Tuple[float, ...] = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    )
    dataset: MovieDatasetConfig = field(default_factory=MovieDatasetConfig)
    profile_config: ProfileConfig = field(default_factory=ProfileConfig)
    algorithms: Tuple[str, ...] = tuple(paper_algorithms())

    @classmethod
    def full(cls, seed: int = 0) -> "ExperimentConfig":
        """The paper's 20 profiles × 10 queries."""
        return cls(seed=seed)

    @classmethod
    def quick(cls, seed: int = 0) -> "ExperimentConfig":
        """A minutes-scale configuration preserving every trend.

        K stays in single/low-double digits: the doi-space algorithms'
        exploration is exponential in the size of the feasible groups
        (their "poor behavior" in Figure 12(a) — the paper's own runs
        reach 900 s), so the quick suite demonstrates the same curves
        where every algorithm still terminates in milliseconds-to-
        seconds.
        """
        return cls(
            seed=seed,
            n_profiles=4,
            n_queries=3,
            k_default=12,
            cmax_default=250.0,
            k_values=(8, 10, 12, 14),
            cmax_fractions=(0.1, 0.25, 0.5, 0.75, 1.0),
            dataset=MovieDatasetConfig(n_movies=2000, n_directors=400, n_actors=1000),
        )

    def with_runs(self, n_profiles: int, n_queries: int) -> "ExperimentConfig":
        return replace(self, n_profiles=n_profiles, n_queries=n_queries)


@dataclass
class RunRecord:
    """One (algorithm, K, cmax, profile, query) solve."""

    algorithm: str
    k: int
    cmax: float
    profile_index: int
    query_index: int
    found: bool
    doi: float
    cost: float
    size: float
    wall_time_s: float
    states_examined: int
    parameter_evaluations: int
    peak_memory_kb: float


class Workbench:
    """Database + populations + cached preference spaces."""

    def __init__(self, config: ExperimentConfig = ExperimentConfig()) -> None:
        self.config = config
        self.database: Database = build_movie_database(config.dataset, seed=config.seed)
        self.profiles: List[UserProfile] = generate_profiles(
            self.database,
            count=config.n_profiles,
            seed=config.seed,
            config=config.profile_config,
        )
        self.queries: List[SelectQuery] = generate_queries(
            count=config.n_queries, seed=config.seed
        )
        self._spaces: Dict[Tuple[int, int], PreferenceSpace] = {}

    # -- fixtures ------------------------------------------------------------------

    def run_pairs(self) -> List[Tuple[int, int]]:
        """All (profile index, query index) pairs of the session."""
        return [
            (profile_index, query_index)
            for profile_index in range(len(self.profiles))
            for query_index in range(len(self.queries))
        ]

    def preference_space(self, profile_index: int, query_index: int) -> PreferenceSpace:
        """The full extracted space for one pair (cached; truncate per K)."""
        key = (profile_index, query_index)
        if key not in self._spaces:
            self._spaces[key] = extract_preference_space(
                self.database,
                self.queries[query_index],
                self.profiles[profile_index],
            )
        return self._spaces[key]

    def max_k(self) -> int:
        """The largest K every pair supports."""
        return min(
            self.preference_space(p, q).k for p, q in self.run_pairs()
        )

    # -- the grid runner -------------------------------------------------------------

    def solve_one(
        self,
        algorithm: str,
        profile_index: int,
        query_index: int,
        k: int,
        cmax: Optional[float] = None,
        cmax_fraction: Optional[float] = None,
    ) -> RunRecord:
        """Solve Problem 2 for one pair at (k, cmax) and record the run."""
        pspace = self.preference_space(profile_index, query_index).truncated(k)
        if cmax is None:
            fraction = 1.0 if cmax_fraction is None else cmax_fraction
            cmax = fraction * pspace.supreme_cost()
        solution: Optional[CQPSolution] = adapters.solve(
            pspace, CQPProblem.problem2(cmax), algorithm
        )
        k = pspace.k
        if solution is None:
            return RunRecord(
                algorithm=algorithm,
                k=k,
                cmax=cmax,
                profile_index=profile_index,
                query_index=query_index,
                found=False,
                doi=0.0,
                cost=0.0,
                size=0.0,
                wall_time_s=0.0,
                states_examined=0,
                parameter_evaluations=0,
                peak_memory_kb=0.0,
            )
        stats = solution.stats
        return RunRecord(
            algorithm=algorithm,
            k=k,
            cmax=cmax,
            profile_index=profile_index,
            query_index=query_index,
            found=True,
            doi=solution.doi,
            cost=solution.cost,
            size=solution.size,
            wall_time_s=stats.wall_time_s,
            states_examined=stats.states_examined,
            parameter_evaluations=stats.parameter_evaluations,
            peak_memory_kb=stats.peak_memory_kb,
        )

    def solve_grid(
        self,
        algorithm: str,
        k: int,
        cmax: Optional[float] = None,
        cmax_fraction: Optional[float] = None,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> List[RunRecord]:
        """One record per (profile, query) pair at fixed (k, cmax), in
        pair order."""
        grid = pairs if pairs is not None else self.run_pairs()
        return [
            self.solve_one(algorithm, p, q, k, cmax=cmax, cmax_fraction=cmax_fraction)
            for p, q in grid
        ]
