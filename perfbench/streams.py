"""Seeded request streams for the benchmark workloads.

A stream is a pure function of the workload seed and never looks at the
program: it yields :class:`Spec` records (user index, query index,
problem parameters, tier, ``k_limit``) that :mod:`perfbench.workloads`
turns into public-API calls. The same seed therefore gives the same
requests in the same order on every commit, and a different seed gives
different ones.

The population the requests address — database, user profiles and query
templates — is fixed (``POPULATION_SEED``), so a seed changes the
traffic, not the users.

Parameter ranges were chosen so that every solve stays cheap and
bounded: Problem 3 runs the exact C-BOUNDARIES search, whose work grows
steeply with ``cmax`` at K = 30, so its budgets stay tight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

POPULATION_SEED = 0
K = 30  # preferences extracted per request (k_limit)
N_USERS = 40  # registered users in the cold workload
N_QUERIES = 6  # query templates
# Saturate's population is large enough that a run never asks the same
# (user, query) space twice: repeats would let the search memos warm up
# over the run, and the run would measure a moving target. 24,000 spaces
# is about 2.4 times what a 40 s run asked on the machine it was built on.
SATURATE_USERS = 2000
SATURATE_QUERIES = 12
SATURATE_BUNDLE = 2  # problems per (user, query) bundle
# Problem 3 bundles are extracted at K = 12, within the stacked frontier
# kernel's limit (K <= 20), so one 2^K table serves the whole bundle; at
# K = 12 a Problem 3 bundle costs about what a Problem 4 bundle does.
SATURATE_P3_K = 12
# One tier for every request, so that no shape overtakes the other in
# the queue: with two tiers the latency sample splits into two modes and
# its median falls between them. Gold, because Problem 3 could degrade
# and the clients never exceed gold's degradation depth (64 requests
# outstanding); Problem 4, a cost minimization, never degrades.
SATURATE_TIER = "gold"

# The working set the traced run compiles and snapshots, to measure the
# compiler and snapshot layers.
COMPILE_USERS = 8
COMPILE_QUERIES = 3
COMPILE_K = 15
COMPILE_PROBLEMS: Tuple[Tuple, ...] = (
    ("p2", 30.0),
    ("p2", 45.0),
    ("p4", 0.95),
    ("p4", 0.98),
)


@dataclass(frozen=True)
class Spec:
    """One request, before it is bound to a database.

    ``problem`` is ``("p2", cmax)``, ``("p3", cmax, smin, smax)`` or
    ``("p4", dmin)``: a Table 1 problem number with its constraints.
    """

    user: int
    query: int
    problem: Tuple
    tier: Optional[str] = None
    k_limit: int = K


def _rng(seed: int, label: str) -> random.Random:
    # String seeds hash deterministically across processes.
    return random.Random("perfbench:%d:%s" % (seed, label))


def _strata(rng: random.Random, low: float, high: float, count: int) -> List[float]:
    """``count`` values, one uniform draw from each of ``count`` equal
    slices of ``[low, high)``, in random order: every round of a stream
    covers the whole range evenly, whatever the seed."""
    width = (high - low) / count
    values = [round(low + width * (i + rng.random()), 6) for i in range(count)]
    rng.shuffle(values)
    return values


def _rounds(rng: random.Random, users: int, queries: int) -> Iterator[Tuple[int, int]]:
    """Every (user, query) pair once per round, in a fresh random order."""
    pairs = [(user, query) for user in range(users) for query in range(queries)]
    while True:
        rng.shuffle(pairs)
        yield from pairs


def cold_stream(seed: int) -> Iterator[Spec]:
    """Endless never-repeating (user, query, problem) requests.

    Each round asks every (user, query) pair once: half under Problem 2
    (cost bound only), half under Problem 3 (cost bound and a size
    window), with the constraints spread evenly over their ranges. The
    work per round therefore hardly depends on the seed; the values are
    drawn fresh, so no request key recurs within a run.
    """
    rng = _rng(seed, "cold")
    pairs = _rounds(rng, N_USERS, N_QUERIES)
    per_round = N_USERS * N_QUERIES
    half = per_round // 2
    seen = set()
    while True:
        kinds = ["p2"] * half + ["p3"] * (per_round - half)
        rng.shuffle(kinds)
        p2_cmax = _strata(rng, 20.0, 60.0, half)
        p3_cmax = _strata(rng, 20.0, 32.0, per_round - half)
        p3_smax = _strata(rng, 200.0, 800.0, per_round - half)
        for kind in kinds:
            user, query = next(pairs)
            if kind == "p2":
                problem: Tuple = ("p2", p2_cmax.pop())
            else:
                problem = ("p3", p3_cmax.pop(), 1.0, p3_smax.pop())
            spec = Spec(user, query, problem)
            if spec not in seen:
                seen.add(spec)
                yield spec


def saturate_bundles(seed: int) -> Iterator[Tuple[Spec, ...]]:
    """Endless bundles of requests that share one extraction key.

    A bundle is one (user, query) asked ``SATURATE_BUNDLE`` times with
    the same extraction key, alternating between two shapes:

    * Problem 4 at K = 30 under different ``dmin`` values (no
      ``cmax``/``smin``);
    * Problem 3 at K = 12 under one ``cmax`` and ``smin`` and different
      ``smax`` values: the C-BOUNDARIES solves share a budget axis and a
      limit, so the stacked frontier kernel computes the frontier once
      and the bundle's other solves hit the frontier cache.

    Each bundle asks a (user, query) pair not asked before in the run,
    with the constraints spread evenly over their ranges in every block
    of bundles.
    """
    rng = _rng(seed, "saturate")
    pairs = _rounds(rng, SATURATE_USERS, SATURATE_QUERIES)
    block = 256  # bundles per stratified block, half of each shape
    half = block // 2
    while True:
        dmins = _strata(rng, 0.9, 0.99, half * SATURATE_BUNDLE)
        cmaxes = _strata(rng, 20.0, 40.0, half)
        smaxes = _strata(rng, 200.0, 800.0, half * SATURATE_BUNDLE)
        for index in range(half):
            for kind in ("p4", "p3"):
                user, query = next(pairs)
                window = slice(SATURATE_BUNDLE * index, SATURATE_BUNDLE * (index + 1))
                if kind == "p4":
                    problems = [("p4", dmin) for dmin in sorted(dmins[window])]
                    k_limit = K
                else:
                    cmax = cmaxes[index]
                    problems = [("p3", cmax, 1.0, smax) for smax in sorted(smaxes[window])]
                    k_limit = SATURATE_P3_K
                yield tuple(
                    Spec(user, query, problem, SATURATE_TIER, k_limit)
                    for problem in problems
                )

