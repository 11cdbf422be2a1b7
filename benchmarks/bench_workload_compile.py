"""Workload compilation: fleet-scale interning + snapshot-warm cold start.

The tentpole claim, quantified on one fleet:

* **interning** — a 100k-user fleet drawn from ``ARCHETYPES`` archetypes
  interns down to its canonical profiles before any solving happens;
  the compiler then collapses further to distinct
  ``(profile, query, constraint-cluster)`` signatures. Both compressions
  are reported and the fleet-to-signature ratio is gated at
  ``COMPRESSION_FLOOR``;
* **compile** — the offline pass prices every parameter and sweeps
  every frontier once, fanned over the solve scheduler, then persists
  both as an on-disk snapshot;
* **cold start** — a *fresh* service bootstrapped from the snapshot
  must answer its first requests out of warm caches. The replay stream
  (users reconstructed by index, never from the materialized fleet) is
  served twice: by an uncompiled service and by a snapshot-warmed one.
  Responses must be bit-identical; the warm p95 must beat the
  uncompiled p95 by ``COLD_START_FLOOR``x.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_workload_compile.py [--quick]

Appends one trajectory point to ``BENCH_workload_compile.json`` at the
repo root (``--no-write`` to skip) and prints a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.problem import CQPProblem
from repro.core.service import PersonalizationService
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.storage.snapshot import load_snapshot, save_snapshot, snapshot_nbytes
from repro.utils.rng import derive_seed
from repro.workloads.compiler import compile_workload
from repro.workloads.profiles import fleet_archetypes, fleet_member, generate_fleet
from repro.workloads.queries import generate_queries

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_FILE = REPO_ROOT / "BENCH_workload_compile.json"

FLEET_USERS = 100_000
ARCHETYPES = 50
N_QUERIES = 6
K = 16
CMAX = 400.0  # the paper's default cost bound (ms)
SEED = 0
REPLAY_REQUESTS = 36
ROUNDS = 3  # best-of, to shrug off scheduler noise; every round is a fresh boot
DATASET = MovieDatasetConfig(n_movies=2000, n_directors=400, n_actors=1000)
COMPRESSION_FLOOR = 10.0  # fleet requests per distinct solve signature
COLD_START_FLOOR = 5.0  # uncompiled p95 / snapshot-warm p95


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    grid = statistics.quantiles(ordered, n=100)
    return {
        "p50_ms": round(1000 * grid[49], 3),
        "p95_ms": round(1000 * grid[94], 3),
        "mean_ms": round(1000 * statistics.mean(ordered), 3),
    }


def replay_users(users: int, requests: int) -> List[int]:
    return [derive_seed(SEED, "replay", r) % users for r in range(requests)]


def serve_replay(
    service: PersonalizationService,
    archetype_pool,
    user_indices: List[int],
    queries,
    problem: CQPProblem,
) -> Tuple[Dict, List]:
    """Serve the replay stream, reconstructing each user by index —
    the online regime, where the materialized fleet no longer exists."""
    from repro.testing.differential import Receipt

    latencies: List[float] = []
    fingerprints = []
    for request_no, user_index in enumerate(user_indices):
        profile = fleet_member(archetype_pool, SEED, user_index)
        user = profile.name
        service.register(user, profile)
        query = queries[request_no % len(queries)]
        t0 = time.perf_counter()
        response = service.request(
            user, query, problem=problem, algorithm="c_boundaries", k_limit=K
        )
        latencies.append(time.perf_counter() - t0)
        fingerprints.append(
            (response.outcome.sql, Receipt.of(response.outcome.solution),
             response.rows)
        )
    stats = _percentiles(latencies)
    stats["total_s"] = round(sum(latencies), 4)
    return stats, fingerprints


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small fleet for a fast sanity run")
    parser.add_argument("--no-write", action="store_true",
                        help="do not append to %s" % TRAJECTORY_FILE.name)
    parser.add_argument("--parallelism", type=int, default=2)
    args = parser.parse_args()

    users = 2_000 if args.quick else FLEET_USERS
    archetypes = 10 if args.quick else ARCHETYPES
    n_queries = 3 if args.quick else N_QUERIES
    dataset = (
        MovieDatasetConfig(n_movies=300, n_directors=60, n_actors=150)
        if args.quick else DATASET
    )
    requests = 24 if args.quick else REPLAY_REQUESTS

    print("building database (%d movies)..." % dataset.n_movies)
    database = build_movie_database(dataset, seed=SEED)
    queries = generate_queries(count=n_queries, seed=SEED)
    problem = CQPProblem.problem2(cmax=CMAX)

    print("generating fleet: %d users over %d archetypes..." % (users, archetypes))
    t0 = time.perf_counter()
    fleet = generate_fleet(database, users, archetypes=archetypes, seed=SEED)
    fleet_s = time.perf_counter() - t0

    print("compiling workload (%d units, parallelism=%d)..."
          % (archetypes * n_queries, args.parallelism))
    t0 = time.perf_counter()
    compiled = compile_workload(
        database, fleet, queries, [problem],
        algorithms=["c_boundaries"], k_limit=K,
        parallelism=args.parallelism,
        meta={"bench": "workload_compile"},
    )
    compile_s = time.perf_counter() - t0
    del fleet  # online serving must not depend on the materialized fleet

    telemetry = compiled.telemetry
    interning = compiled.interning
    print("interning:  %d users -> %d canonical (%.1fx), %d signatures"
          % (interning["fleet_size"], interning["canonical_profiles"],
             telemetry["profile_compression"], telemetry["distinct_signatures"]))
    print("compiled:   %d pricing entries, %d frontiers in %.2fs"
          % (telemetry["param_cache"]["entries"],
             telemetry["frontier_cache"]["entries"], compile_s))

    with tempfile.TemporaryDirectory() as scratch:
        snapshot_path = str(Path(scratch) / "workload")
        t0 = time.perf_counter()
        written = save_snapshot(compiled, snapshot_path)
        save_s = time.perf_counter() - t0
        print("snapshot:   %d files, %.1f KiB, saved in %.3fs"
              % (written["files"], written["bytes"] / 1024, save_s))

        archetype_pool = fleet_archetypes(database, archetypes, seed=SEED)
        user_indices = replay_users(users, requests)

        # Every round is a genuine cold start (a fresh service), and the
        # best round is kept per mode — the same best-of-N discipline the
        # perf smoke uses, because single-round p95 on a busy host is
        # mostly scheduler noise.
        uncompiled = cold_prints = None
        for _ in range(ROUNDS):
            cold_service = PersonalizationService(database)
            stats, prints = serve_replay(
                cold_service, archetype_pool, user_indices, queries, problem
            )
            assert cold_prints is None or prints == cold_prints
            cold_prints = prints
            if uncompiled is None or stats["p95_ms"] < uncompiled["p95_ms"]:
                uncompiled = stats
        print("uncompiled: %s" % uncompiled)

        t0 = time.perf_counter()
        loaded = load_snapshot(snapshot_path)
        boot_s = time.perf_counter() - t0
        warm = warm_prints = warm_service = None
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            warm_service = PersonalizationService(database, snapshot=loaded)
            boot_round = time.perf_counter() - t0
            stats, prints = serve_replay(
                warm_service, archetype_pool, user_indices, queries, problem
            )
            assert warm_prints is None or prints == warm_prints
            warm_prints = prints
            if warm is None or stats["p95_ms"] < warm["p95_ms"]:
                warm = stats
                warm["boot_s"] = round(boot_s + boot_round, 4)
        print("snapshot_warm: %s" % warm)
        warm_counters = warm_service.cache_telemetry()
        print("warm caches:  %s" % {
            name: {"hits": c["hits"], "misses": c["misses"]}
            for name, c in warm_counters.items()
        })
        for name in ("param_cache", "frontier_cache"):
            if warm_counters[name]["misses"]:
                print("FAIL: warm %s missed %d times — snapshot incomplete"
                      % (name, warm_counters[name]["misses"]))
                return 1
        nbytes = snapshot_nbytes(snapshot_path)

    if warm_prints != cold_prints:
        print("FAIL: snapshot-warm responses diverged from uncompiled responses")
        return 1
    print("replay bit-identical across %d requests" % requests)

    compression = telemetry["signature_compression"]
    cold_start = uncompiled["p95_ms"] / warm["p95_ms"]
    print("\nfleet-to-signature compression: %.1fx (floor %.1fx)"
          % (compression, COMPRESSION_FLOOR))
    print("cold-start p95 improvement:     %.1fx (floor %.1fx)"
          % (cold_start, COLD_START_FLOOR))

    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "config": {
            "users": users,
            "archetypes": archetypes,
            "n_queries": n_queries,
            "k": K,
            "cmax": CMAX,
            "n_movies": dataset.n_movies,
            "replay_requests": requests,
            "parallelism": args.parallelism,
            "quick": args.quick,
        },
        "fleet_generate_s": round(fleet_s, 3),
        "compile_s": round(compile_s, 3),
        "snapshot_bytes": nbytes,
        "interning": interning,
        "distinct_signatures": telemetry["distinct_signatures"],
        "profile_compression": telemetry["profile_compression"],
        "signature_compression": round(compression, 2),
        "uncompiled": uncompiled,
        "snapshot_warm": warm,
        "cold_start_p95_improvement": round(cold_start, 2),
    }
    if not args.no_write:
        trajectory = []
        if TRAJECTORY_FILE.exists():
            trajectory = json.loads(TRAJECTORY_FILE.read_text())["trajectory"]
        trajectory.append(entry)
        TRAJECTORY_FILE.write_text(
            json.dumps({"benchmark": "workload_compile", "trajectory": trajectory},
                       indent=2) + "\n"
        )
        print("appended to %s" % TRAJECTORY_FILE)

    if not args.quick and compression < COMPRESSION_FLOOR:
        print("FAIL: compression %.1fx under the %.1fx floor"
              % (compression, COMPRESSION_FLOOR))
        return 1
    if not args.quick and cold_start < COLD_START_FLOOR:
        print("FAIL: cold-start improvement %.1fx under the %.1fx floor"
              % (cold_start, COLD_START_FLOOR))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
