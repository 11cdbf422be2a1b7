"""The ``workload`` subcommand: compile / inspect / replay snapshots.

Usage::

    python -m repro.experiments workload compile --out /tmp/wl [--quick]
    python -m repro.experiments workload inspect /tmp/wl
    python -m repro.experiments workload serve-replay /tmp/wl --verify

``compile`` builds the seeded movie database, generates an archetype
fleet, and runs the workload compiler
(:mod:`repro.workloads.compiler`), persisting the result as a snapshot
directory. ``serve-replay`` is the restore proof: run in a *fresh
process*, it rebuilds the database from the manifest's seeds, boots a
:class:`~repro.core.service.PersonalizationService` warm from the
snapshot, and replays a seeded request stream; with ``--verify`` every
response is compared bit-for-bit (personalized SQL, solution receipt,
and result rows) against an uncompiled cold service.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Sequence

from repro.core.algorithms.scheduler import BACKENDS
from repro.storage.snapshot import (
    CompiledWorkload,
    load_snapshot,
    save_snapshot,
    snapshot_nbytes,
)


def build_workload_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments workload",
        description="Compile, inspect, and replay workload snapshots.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser(
        "compile", help="precompute a fleet's caches into a snapshot directory"
    )
    compile_cmd.add_argument("--out", required=True, help="snapshot directory")
    compile_cmd.add_argument("--users", type=int, default=2000)
    compile_cmd.add_argument("--archetypes", type=int, default=50)
    compile_cmd.add_argument("--queries", type=int, default=6)
    compile_cmd.add_argument("--movies", type=int, default=800)
    compile_cmd.add_argument("--cmax", type=float, default=400.0)
    compile_cmd.add_argument("--k-limit", type=int, default=16)
    compile_cmd.add_argument("--seed", type=int, default=0)
    compile_cmd.add_argument(
        "--algorithm", default="c_boundaries",
        help="doi-problem search algorithm the serving side will run",
    )
    compile_cmd.add_argument("--parallelism", type=int, default=1)
    compile_cmd.add_argument("--backend", default="auto", choices=BACKENDS)
    compile_cmd.add_argument(
        "--quick", action="store_true",
        help="tiny CI-sized settings (overrides the scale flags)",
    )

    inspect_cmd = commands.add_parser(
        "inspect", help="print a snapshot's manifest and telemetry"
    )
    inspect_cmd.add_argument("path")

    replay_cmd = commands.add_parser(
        "serve-replay",
        help="boot a warm service from a snapshot and replay requests",
    )
    replay_cmd.add_argument("path")
    replay_cmd.add_argument("--requests", type=int, default=24)
    replay_cmd.add_argument("--seed", type=int, default=0)
    replay_cmd.add_argument(
        "--verify", action="store_true",
        help="also answer every request on a cold uncompiled service and "
        "require bit-identical responses",
    )
    return parser


def _build_database(meta: Dict):
    from repro.datasets.movies import MovieDatasetConfig, build_movie_database

    dataset = meta["dataset"]
    config = MovieDatasetConfig(
        n_movies=int(dataset["movies"]),
        n_directors=int(dataset["directors"]),
        n_actors=int(dataset["actors"]),
        cast_per_movie=int(dataset["cast_per_movie"]),
    )
    return build_movie_database(config, seed=int(dataset["seed"]))


def _workload_from_meta(meta: Dict, database):
    """(queries, problems, algorithms, archetypes) a manifest describes."""
    from repro.sql.parser import parse_select
    from repro.workloads.compiler import problem_from_spec
    from repro.workloads.profiles import fleet_archetypes

    queries = [parse_select(sql) for sql in meta["queries"]]
    problems = [problem_from_spec(spec) for spec in meta["problems"]]
    algorithms = list(meta["algorithms"])
    fleet = meta["fleet"]
    base = fleet_archetypes(
        database, int(fleet["archetypes"]), seed=int(fleet["seed"])
    )
    return queries, problems, algorithms, base


def run_compile(options: argparse.Namespace) -> int:
    from repro.datasets.movies import MovieDatasetConfig, build_movie_database
    from repro.workloads.compiler import compile_workload
    from repro.workloads.profiles import generate_fleet
    from repro.workloads.queries import generate_queries

    users = options.users
    archetypes = options.archetypes
    movies = options.movies
    n_queries = options.queries
    k_limit = options.k_limit
    if options.quick:
        users, archetypes, movies, n_queries, k_limit = 200, 6, 300, 3, 8

    dataset = {
        "movies": movies,
        "directors": max(20, movies // 5),
        "actors": max(40, movies // 2),
        "cast_per_movie": 3,
        "seed": options.seed,
    }
    config = MovieDatasetConfig(
        n_movies=dataset["movies"],
        n_directors=dataset["directors"],
        n_actors=dataset["actors"],
        cast_per_movie=dataset["cast_per_movie"],
    )
    print(
        "# compiling workload: %d users over %d archetypes, %d queries, "
        "%d movies" % (users, archetypes, n_queries, movies)
    )
    database = build_movie_database(config, seed=options.seed)
    fleet = generate_fleet(
        database, users, archetypes=archetypes, seed=options.seed
    )
    queries = generate_queries(count=n_queries, seed=options.seed)
    from repro.core.problem import CQPProblem

    problems = [CQPProblem.problem2(cmax=options.cmax)]

    compiled = compile_workload(
        database,
        fleet,
        queries,
        problems,
        algorithms=[options.algorithm] * len(problems),
        k_limit=k_limit,
        parallelism=options.parallelism,
        backend=options.backend,
        meta={
            "dataset": dataset,
            "fleet": {"users": users, "archetypes": archetypes, "seed": options.seed},
            "queries_seed": options.seed,
        },
    )
    written = save_snapshot(compiled, options.out)
    report = compiled.interning
    seconds = compiled.telemetry["compile_seconds"]
    print(
        "# interned %d profiles -> %d canonical (%.1fx), "
        "%d distinct space signatures (%.1fx over %d fleet requests)"
        % (
            report["fleet_size"],
            report["canonical_profiles"],
            report["compression"],
            compiled.telemetry["distinct_signatures"],
            compiled.telemetry["signature_compression"],
            compiled.telemetry["fleet_requests"],
        )
    )
    print(
        "# compiled %d units in %.2fs (solve %.2fs, frames %.2fs); "
        "%d pricing entries, %d frontiers, %d frames"
        % (
            compiled.telemetry["units"],
            seconds["total"],
            seconds["solve"],
            seconds["frames"],
            compiled.telemetry["param_cache"]["entries"],
            compiled.telemetry["frontier_cache"]["entries"],
            compiled.telemetry["frame_cache"]["entries"],
        )
    )
    print(
        "# snapshot written to %s (%d files, %.1f KiB)"
        % (options.out, written["files"], written["bytes"] / 1024.0)
    )
    return 0


def run_inspect(options: argparse.Namespace) -> int:
    compiled = load_snapshot(options.path)
    print("# workload snapshot at %s" % options.path)
    print("fingerprint:    %s" % compiled.fingerprint)
    print("stats_version:  %d" % compiled.stats_version)
    print("disk bytes:     %d" % snapshot_nbytes(options.path))
    for block in ("interning", "telemetry", "meta"):
        print("%s:" % block)
        value = getattr(compiled, block)
        for key in sorted(value):
            print("  %s: %r" % (key, value[key]))
    return 0


def _replay_requests(
    compiled: CompiledWorkload, count: int, seed: int, database
) -> List:
    """The seeded request stream a snapshot's workload implies."""
    from repro.core.service import BatchRequest
    from repro.utils.rng import derive_seed
    from repro.workloads.profiles import fleet_member

    queries, problems, algorithms, base = _workload_from_meta(
        compiled.meta, database
    )
    users = int(compiled.meta["fleet"]["users"])
    fleet_seed = int(compiled.meta["fleet"]["seed"])
    k_limit = compiled.meta.get("k_limit")
    requests = []
    profiles = {}
    for r in range(count):
        user_index = derive_seed(seed, "replay", r) % users
        user = "user-%06d" % user_index
        if user not in profiles:
            profiles[user] = fleet_member(base, fleet_seed, user_index)
        pindex = r % len(problems)
        requests.append(
            BatchRequest(
                user=user,
                query=queries[r % len(queries)],
                problem=problems[pindex],
                algorithm=algorithms[pindex],
                k_limit=k_limit,
            )
        )
    return requests, profiles


def _response_fingerprint(response) -> tuple:
    from repro.testing.differential import Receipt

    return (
        response.outcome.sql,
        Receipt.of(response.outcome.solution),
        response.rows,
    )


def run_serve_replay(options: argparse.Namespace) -> int:
    from repro.core.service import PersonalizationService

    compiled = load_snapshot(options.path)
    database = _build_database(compiled.meta)
    requests, profiles = _replay_requests(
        compiled, options.requests, options.seed, database
    )

    started = time.perf_counter()
    warm = PersonalizationService(database, snapshot=compiled)
    boot_seconds = time.perf_counter() - started
    for user, profile in profiles.items():
        warm.register(user, profile)
    started = time.perf_counter()
    warm_responses = [
        warm.request(
            req.user, req.query, problem=req.problem,
            algorithm=req.algorithm, k_limit=req.k_limit,
        )
        for req in requests
    ]
    warm_seconds = time.perf_counter() - started
    telemetry = warm_responses[-1].cache_telemetry if warm_responses else {}
    print(
        "# warm boot %.3fs (installed %r); replayed %d requests in %.3fs"
        % (boot_seconds, warm.snapshot_installed, len(requests), warm_seconds)
    )
    for name in sorted(telemetry):
        counters = telemetry[name]
        print(
            "#   %s: %d hits / %d lookups, %d entries"
            % (name, counters["hits"], counters["lookups"], counters["entries"])
        )

    if not options.verify:
        return 0

    cold = PersonalizationService(database)
    for user, profile in profiles.items():
        cold.register(user, profile)
    mismatches = 0
    for req, warm_response in zip(requests, warm_responses):
        cold_response = cold.request(
            req.user, req.query, problem=req.problem,
            algorithm=req.algorithm, k_limit=req.k_limit,
        )
        if _response_fingerprint(cold_response) != _response_fingerprint(
            warm_response
        ):
            mismatches += 1
            print(
                "MISMATCH user=%s query=%r problem=%s"
                % (req.user, req.query, req.problem)
            )
    if mismatches:
        print("# verify FAILED: %d/%d responses diverged" % (mismatches, len(requests)))
        return 1
    print(
        "# verify OK: %d restored responses bit-identical to the cold "
        "recompute" % len(requests)
    )
    return 0


def workload_main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_workload_parser().parse_args(argv)
    if options.command == "compile":
        return run_compile(options)
    if options.command == "inspect":
        return run_inspect(options)
    return run_serve_replay(options)
