"""Constraint sweeps: cold vs frontier-cache-warm vs stacked batch solves.

The access pattern of the paper's Figure-12 benchmarks and of real
budget-tuning users alike: the *same* (query, profile) space is solved
under a descending ladder of constraint values, and the ladder itself
is revisited (per algorithm, per session, per replot). The sweep
benchmark replays that regime on synthetic preference spaces over two
budget axes:

* a **cmax sweep** (Problem 2, cost axis) over descending fractions of
  the supreme cost, and
* an **smin sweep** (Problem 1, size axis) over ascending size floors,

each stream repeated ``REPEATS`` times, in three modes:

* **cold** — every solve from scratch (no :class:`FrontierCache`), the
  pre-PR baseline;
* **warm** — one shared :class:`FrontierCache`, so every solve prices
  through the space's one shared evaluator: the first pass resumes
  each tightening from the previous frontier, later passes hit exact
  stored frontiers and skip phase 1 outright;
* **solve_many** — the whole stream as one
  :func:`~repro.core.adapters.solve_many` call (stacked frontier kernel
  + duplicate sharing) in one process. This is the mode the
  ``speedup_solve_many_vs_cold`` floor gates.

Every mode's solutions are asserted identical to cold's before any
timing is reported.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_constraint_sweep.py [--quick]

Appends one trajectory point to ``BENCH_constraint_sweep.json`` at the
repo root (``--no-write`` to skip). The driver asserts warm >= 2x cold
and solve_many >= 3x cold on the combined stream (non-quick runs).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import adapters
from repro.core.frontier_cache import FrontierCache
from repro.core.problem import CQPProblem
from repro.core.solution import CQPSolution
from repro.workloads.scenarios import make_synthetic_pspace

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_FILE = REPO_ROOT / "BENCH_constraint_sweep.json"

K = 16
SEEDS = (7, 11)
N_CMAX_STEPS = 16
N_SMIN_STEPS = 12
REPEATS = 3  # each sweep ladder is replayed R times (the Fig-12 regime)
SPEEDUP_FLOOR = 2.0  # warm vs cold, combined cmax + smin streams
PARALLEL_FLOOR = 3.0  # one stacked solve_many call vs cold, same streams


def build_space(seed: int, k: int):
    rng = random.Random(seed)
    dois = [round(rng.uniform(0.2, 1.0), 3) for _ in range(k)]
    costs = [round(rng.uniform(5.0, 60.0), 1) for _ in range(k)]
    sizes = [round(rng.uniform(50.0, 1000.0), 1) for _ in range(k)]
    return make_synthetic_pspace(dois, costs, sizes)


def build_streams(pspace, n_cmax: int, n_smin: int, repeats: int
                  ) -> Dict[str, List[CQPProblem]]:
    """The two replayed constraint ladders for one space."""
    supreme = pspace.supreme_cost()
    cmax_ladder = [
        CQPProblem.problem2(cmax=(0.60 - 0.02 * i) * supreme) for i in range(n_cmax)
    ]
    smin_ladder = [
        CQPProblem.problem1(smin=(0.05 + 0.03 * i) * pspace.base_size)
        for i in range(n_smin)
    ]
    return {
        "cmax": [problem for _ in range(repeats) for problem in cmax_ladder],
        "smin": [problem for _ in range(repeats) for problem in smin_ladder],
    }


def solution_key(solution: Optional[CQPSolution]) -> Optional[Tuple]:
    if solution is None:
        return None
    return (solution.pref_indices, solution.doi, solution.cost, solution.size)


def run_stream(pspace, stream: List[CQPProblem],
               cache: Optional[FrontierCache], batched: bool = False,
               ) -> Tuple[float, List[Optional[Tuple]]]:
    started = time.perf_counter()
    if batched:
        solutions = adapters.solve_many(
            pspace, stream, algorithm="c_boundaries", frontier_cache=cache
        )
    else:
        solutions = [
            adapters.solve(pspace, problem, "c_boundaries", frontier_cache=cache)
            for problem in stream
        ]
    elapsed = time.perf_counter() - started
    return elapsed, [solution_key(s) for s in solutions]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller spaces for a fast sanity run")
    parser.add_argument("--no-write", action="store_true",
                        help="do not append to %s" % TRAJECTORY_FILE.name)
    args = parser.parse_args()

    k = 12 if args.quick else K
    seeds = SEEDS[:1] if args.quick else SEEDS
    n_cmax = 8 if args.quick else N_CMAX_STEPS
    n_smin = 6 if args.quick else N_SMIN_STEPS
    repeats = 2 if args.quick else REPEATS

    totals = {"cold": 0.0, "warm": 0.0, "solve_many": 0.0}
    axis_totals: Dict[str, Dict[str, float]] = {
        "cmax": dict(totals), "smin": dict(totals),
    }
    warm_counters: Dict[str, int] = {}
    n_solves = 0

    for seed in seeds:
        pspace = build_space(seed, k)
        streams = build_streams(pspace, n_cmax, n_smin, repeats)
        warm_cache = FrontierCache()
        for axis, stream in streams.items():
            n_solves += len(stream)
            cold_s, cold_keys = run_stream(pspace, stream, cache=None)
            warm_s, warm_keys = run_stream(pspace, stream, cache=warm_cache)
            # A copy of the space starts without the evaluator the warm
            # mode filled, so solve_many prices from scratch as cold does.
            many_s, many_keys = run_stream(
                replace(pspace), stream, cache=None, batched=True
            )
            assert warm_keys == cold_keys, "warm diverged on %s/%d" % (axis, seed)
            assert many_keys == cold_keys, (
                "solve_many diverged on %s/%d" % (axis, seed)
            )
            for mode, value in (("cold", cold_s), ("warm", warm_s),
                                ("solve_many", many_s)):
                totals[mode] += value
                axis_totals[axis][mode] += value
            print("seed %2d %-4s x%d: cold %6.2fs | warm %6.2fs | solve_many %6.2fs"
                  % (seed, axis, len(stream), cold_s, warm_s, many_s))
        for name, value in warm_cache.counters().items():
            warm_counters[name] = warm_counters.get(name, 0) + value

    warm_speedup = totals["cold"] / totals["warm"]
    many_speedup = totals["cold"] / totals["solve_many"]
    print("\n%d solves/mode | warm %.2fx cold (floor %.1fx) | "
          "solve_many %.2fx cold (floor %.1fx)"
          % (n_solves, warm_speedup, SPEEDUP_FLOOR,
             many_speedup, PARALLEL_FLOOR))
    print("frontier cache: %s" % warm_counters)

    modes = {
        mode: {
            "total_s": round(totals[mode], 4),
            "cmax_s": round(axis_totals["cmax"][mode], 4),
            "smin_s": round(axis_totals["smin"][mode], 4),
        }
        for mode in totals
    }
    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "config": {
            "k": k,
            "seeds": list(seeds),
            "n_cmax_steps": n_cmax,
            "n_smin_steps": n_smin,
            "repeats": repeats,
            "quick": args.quick,
        },
        "modes": modes,
        "frontier_cache": warm_counters,
        "speedup_warm_vs_cold": round(warm_speedup, 2),
        "speedup_solve_many_vs_cold": round(many_speedup, 2),
    }
    if not args.no_write:
        trajectory = []
        if TRAJECTORY_FILE.exists():
            trajectory = json.loads(TRAJECTORY_FILE.read_text())["trajectory"]
        trajectory.append(entry)
        TRAJECTORY_FILE.write_text(
            json.dumps({"benchmark": "constraint_sweep", "trajectory": trajectory},
                       indent=2) + "\n"
        )
        print("appended to %s" % TRAJECTORY_FILE)

    if not args.quick and warm_speedup < SPEEDUP_FLOOR:
        print("FAIL: warm speedup %.2fx under the %.1fx floor"
              % (warm_speedup, SPEEDUP_FLOOR))
        return 1
    if not args.quick and many_speedup < PARALLEL_FLOOR:
        print("FAIL: solve_many speedup %.2fx under the %.1fx floor"
              % (many_speedup, PARALLEL_FLOOR))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
