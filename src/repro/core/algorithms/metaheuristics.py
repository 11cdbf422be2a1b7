"""Generic metaheuristic baselines (related work, Section 2).

The paper argues that generic state-space methods — simulated annealing
[10], tabu search [4], genetic algorithms [5] — do not exploit CQP's
syntactic partial orders. These implementations exist to quantify that
claim in an ablation bench: same spaces, same feasibility, no structure.

All three search over bit-vector states (any subset of the ranks, as a
rank mask), treat infeasible states as worthless, and are
deterministically seeded.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.algorithms.base import CQPAlgorithm, register
from repro.core.space import SearchSpace
from repro.core.state import Mask, mask_group_size
from repro.core.stats import SearchStats
from repro.utils.rng import SeededRNG


def _score(space: SearchSpace, ranks: Mask, stats: SearchStats) -> float:
    """Objective for feasible states, -1 otherwise (doi is in [0, 1])."""
    stats.examined()
    if not ranks:
        return -1.0
    pmask = space.pref_mask(ranks)
    if not space.fully_feasible(pmask):
        return -1.0
    return space.objective(pmask)


class _StochasticSearch(CQPAlgorithm):
    """Common plumbing: seeded RNG + incumbent tracking."""

    exact = False
    space_kind = "any"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _initial(self, space: SearchSpace, rng: SeededRNG, stats: SearchStats) -> Mask:
        """A random feasible-ish start: singletons tried in random order."""
        for rank in rng.shuffled(list(range(space.k))):
            if space.within_budget(space.pref_bits[rank]):
                return 1 << rank
        return 0


@register
class SimulatedAnnealing(_StochasticSearch):
    """Classic SA over single-bit flips with geometric cooling."""

    name = "simulated_annealing"

    def __init__(
        self,
        seed: int = 0,
        steps: int = 2000,
        start_temperature: float = 0.1,
        cooling: float = 0.995,
    ) -> None:
        super().__init__(seed)
        self.steps = steps
        self.start_temperature = start_temperature
        self.cooling = cooling

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        if space.k == 0:
            return None
        rng = SeededRNG(self.seed).child("sa")
        current = self._initial(space, rng, stats)
        current_score = _score(space, current, stats)
        best, best_score = current, current_score
        temperature = self.start_temperature
        for _ in range(self.steps):
            candidate = current ^ (1 << rng.randint(0, space.k - 1))
            stats.moved()
            candidate_score = _score(space, candidate, stats)
            delta = candidate_score - current_score
            if delta >= 0 or rng.random() < math.exp(delta / max(temperature, 1e-12)):
                current, current_score = candidate, candidate_score
                if current_score > best_score:
                    best, best_score = current, current_score
            temperature *= self.cooling
        if best_score < 0:
            return None
        return space.pref_mask(best)


@register
class TabuSearch(_StochasticSearch):
    """Steepest-ascent over flips with a fixed-length tabu list."""

    name = "tabu"

    def __init__(self, seed: int = 0, iterations: int = 200, tenure: int = 8) -> None:
        super().__init__(seed)
        self.iterations = iterations
        self.tenure = tenure

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        if space.k == 0:
            return None
        rng = SeededRNG(self.seed).child("tabu")
        current = self._initial(space, rng, stats)
        best = current
        best_score = _score(space, current, stats)
        tabu: List[int] = []
        for _ in range(self.iterations):
            candidates = []
            for rank in range(space.k):
                if rank in tabu:
                    continue
                neighbor = current ^ (1 << rank)
                stats.moved()
                candidates.append((_score(space, neighbor, stats), rank, neighbor))
            if not candidates:
                break
            score, rank, neighbor = max(candidates)
            current = neighbor
            tabu.append(rank)
            if len(tabu) > self.tenure:
                tabu.pop(0)
            if score > best_score:
                best, best_score = current, score
        if best_score < 0:
            return None
        return space.pref_mask(best)


@register
class GeneticSearch(_StochasticSearch):
    """Tournament-selection GA over subset bit-vectors."""

    name = "genetic"

    def __init__(
        self,
        seed: int = 0,
        population: int = 40,
        generations: int = 60,
        mutation_rate: float = 0.05,
    ) -> None:
        super().__init__(seed)
        self.population = population
        self.generations = generations
        self.mutation_rate = mutation_rate

    def _random_member(self, space: SearchSpace, rng: SeededRNG) -> Mask:
        member = 0
        for rank in range(space.k):
            if rng.random() < 0.25:
                member |= 1 << rank
        return member

    def _crossover(self, rng: SeededRNG, a: Mask, b: Mask, k: int) -> Mask:
        point = rng.randint(0, k - 1)
        head = (1 << (point + 1)) - 1  # ranks <= point come from a
        return (a & head) | (b & ~head)

    def _mutate(self, rng: SeededRNG, member: Mask, k: int) -> Mask:
        for rank in range(k):
            if rng.random() < self.mutation_rate:
                member ^= 1 << rank
        return member

    def _search(self, space: SearchSpace, stats: SearchStats) -> Optional[Mask]:
        if space.k == 0:
            return None
        rng = SeededRNG(self.seed).child("ga")
        population = [self._random_member(space, rng) for _ in range(self.population)]
        population.append(self._initial(space, rng, stats))
        best: Optional[Mask] = None
        best_score = -1.0
        words = space.words

        def fitness(member: Mask) -> float:
            return _score(space, member, stats)

        def fittest(contenders: List[Tuple[float, Mask]]) -> Tuple[float, Mask]:
            # Equal scores fall back to the members' rank-tuple order.
            return max(
                contenders,
                key=lambda entry: (
                    entry[0],
                    words.lex_key(words.pack(entry[1]), mask_group_size(entry[1])),
                ),
            )

        for _ in range(self.generations):
            scored = [(fitness(member), member) for member in population]
            for score, member in scored:
                if score > best_score:
                    best_score, best = score, member
            next_generation: List[Mask] = []
            while len(next_generation) < self.population:
                contenders = rng.sample(scored, min(3, len(scored)))
                _, parent_a = fittest(contenders)
                contenders = rng.sample(scored, min(3, len(scored)))
                _, parent_b = fittest(contenders)
                child = self._crossover(rng, parent_a, parent_b, space.k)
                next_generation.append(self._mutate(rng, child, space.k))
                stats.moved()
            population = next_generation
        if best is None or best_score < 0:
            return None
        return space.pref_mask(best)
