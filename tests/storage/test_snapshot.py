"""Workload snapshots: round-trip fidelity and restore safety.

The contract under test: a snapshot restored into the *same* database
(by content fingerprint and statistics version) serves bit-identical
responses out of warm caches; restored into anything else it refuses
loudly (:class:`~repro.storage.snapshot.SnapshotMismatch`), never
degrading to silently-wrong or silently-cold behaviour.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.core.problem import CQPProblem
from repro.core.service import PersonalizationService
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.storage.snapshot import (
    CompiledWorkload,
    SnapshotMismatch,
    load_snapshot,
    save_snapshot,
    snapshot_nbytes,
)
from repro.testing.differential import Receipt
from repro.workloads.compiler import compile_workload
from repro.workloads.profiles import generate_fleet
from repro.workloads.queries import generate_queries

TINY = MovieDatasetConfig(n_movies=150, n_directors=30, n_actors=60, cast_per_movie=2)
CMAX = 400.0


def _build():
    return build_movie_database(TINY, seed=5)


def _compile(database, users=20, archetypes=3):
    fleet = generate_fleet(database, users, archetypes=archetypes, seed=3)
    queries = generate_queries(count=2, seed=3)
    problems = [CQPProblem.problem2(cmax=CMAX)]
    compiled = compile_workload(
        database,
        fleet,
        queries,
        problems,
        algorithms=["c_boundaries"],
        k_limit=8,
    )
    return compiled, fleet, queries, problems


def _responses(service, fleet, queries, problems):
    out = []
    for index in (0, 7, 13):
        user = "u%d" % index
        service.register(user, fleet[index])
        for query in queries:
            response = service.request(
                user, query, problem=problems[0], algorithm="c_boundaries",
                k_limit=8,
            )
            out.append((response.outcome.sql, Receipt.of(response.outcome.solution),
                        response.rows))
    return out


class TestRoundTrip:
    def test_restored_service_is_bit_identical_and_warm(self, tmp_path):
        database = _build()
        compiled, fleet, queries, problems = _compile(database)
        path = str(tmp_path / "snap")
        written = save_snapshot(compiled, path)
        assert written["bytes"] == snapshot_nbytes(path)

        loaded = load_snapshot(path)
        assert loaded.fingerprint == compiled.fingerprint
        assert loaded.stats_version == compiled.stats_version
        assert loaded.interning["fleet_size"] == 20

        cold = PersonalizationService(database)
        warm = PersonalizationService(database, snapshot=loaded)
        assert warm.snapshot_installed["param_entries"] > 0
        assert warm.snapshot_installed["frontiers"] > 0

        cold_out = _responses(cold, fleet, queries, problems)
        warm_out = _responses(warm, fleet, queries, problems)
        assert warm_out == cold_out

        # Warm really means warm: every compiled request is answered
        # with zero misses on both caches.
        telemetry = warm.cache_telemetry()
        for cache in ("param_cache", "frontier_cache"):
            assert telemetry[cache]["hits"] > 0, cache
            assert telemetry[cache]["misses"] == 0, cache

    def test_boot_grows_the_frontier_byte_budget(self):
        # A cache whose budget holds no memo at all still boots with
        # every compiled frontier: the boot grows the budget, never the
        # evaluator capacity.
        from repro.core.frontier_cache import FrontierCache, state_nbytes

        database = _build()
        compiled, _, _, _ = _compile(database)
        frontier = FrontierCache(capacity=2)
        frontier.byte_budget = 0
        warm = PersonalizationService(
            database, frontier_cache=frontier, snapshot=compiled
        )
        installed = warm.snapshot_installed["frontiers"]
        assert installed > 0
        assert frontier.counters()["frontiers"] == installed
        assert frontier.evictions == 0
        assert frontier.capacity == 2
        assert frontier.byte_budget == 2 * state_nbytes(compiled.frontier_state)

    def test_older_frame_sections_are_ignored(self, tmp_path):
        # An older writer also stored a ``frame`` blob in caches.pkl and
        # its arrays under columns/; the reader skips both.
        database = _build()
        compiled, _, _, _ = _compile(database)
        path = str(tmp_path / "snap")
        save_snapshot(compiled, path)
        caches_path = os.path.join(path, "caches.pkl")
        with open(caches_path, "rb") as handle:
            states = pickle.load(handle)
        states["frame"] = {"kind": "frame_cache", "entries": [], "columns": {}}
        with open(caches_path, "wb") as handle:
            pickle.dump(states, handle)
        os.makedirs(os.path.join(path, "columns"))
        np.save(os.path.join(path, "columns", "1.npy"), np.arange(3))
        warm = PersonalizationService(database, snapshot=path)
        fresh = PersonalizationService(database, snapshot=compiled)
        assert warm.snapshot_installed == fresh.snapshot_installed
        assert warm.snapshot_installed["frontiers"] > 0

    def test_service_accepts_a_snapshot_path(self, tmp_path):
        database = _build()
        compiled, fleet, queries, problems = _compile(database)
        path = str(tmp_path / "snap")
        save_snapshot(compiled, path)
        warm = PersonalizationService(database, snapshot=path)
        assert warm.snapshot_installed["frontiers"] > 0


class TestRestoreSafety:
    def test_stats_bump_refuses_restore(self):
        database = _build()
        compiled, _, _, _ = _compile(database)
        # Re-ANALYZE: same data (same fingerprint), new statistics
        # version — the snapshot's pricing is stale by definition.
        database.analyze()
        assert database.fingerprint == compiled.fingerprint
        with pytest.raises(SnapshotMismatch, match="statistics version"):
            PersonalizationService(database, snapshot=compiled)

    def test_data_mutation_refuses_restore(self):
        database = _build()
        compiled, _, _, _ = _compile(database)
        database.load("DIRECTOR", [(9001, "Late Arrival")])
        database.analyze()
        with pytest.raises(SnapshotMismatch, match="fingerprint"):
            PersonalizationService(database, snapshot=compiled)

    def test_different_database_refuses_restore(self):
        compiled, _, _, _ = _compile(_build())
        other = build_movie_database(TINY, seed=6)
        with pytest.raises(SnapshotMismatch, match="fingerprint"):
            compiled.restore_into(other)

    def test_missing_manifest_refuses_load(self, tmp_path):
        with pytest.raises(SnapshotMismatch, match="manifest"):
            load_snapshot(str(tmp_path / "nowhere"))

    def test_format_version_mismatch_refuses_load(self, tmp_path):
        database = _build()
        compiled, _, _, _ = _compile(database)
        path = str(tmp_path / "snap")
        save_snapshot(compiled, path)
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotMismatch, match="format"):
            load_snapshot(path)

    def test_format_1_snapshot_is_refused(self, tmp_path):
        # Format 1 keyed frontier memos on the raw parameter tuples; its
        # keys would never match a digest-keyed lookup.
        database = _build()
        compiled, _, _, _ = _compile(database)
        path = str(tmp_path / "snap")
        save_snapshot(compiled, path)
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 2
        manifest["format_version"] = 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotMismatch, match="format v1"):
            load_snapshot(path)
        compiled.format_version = 1
        with pytest.raises(SnapshotMismatch, match="format v1"):
            compiled.restore_into(database)

    def test_restore_into_is_selective(self):
        database = _build()
        compiled, _, _, _ = _compile(database)
        installed = compiled.restore_into(database)  # no caches passed
        assert installed == {"param_entries": 0, "frontiers": 0}

    def test_blank_compiled_workload_restores_nothing(self):
        database = _build()
        blank = CompiledWorkload(
            fingerprint=database.fingerprint,
            stats_version=database.stats_version,
        )
        from repro.core.param_cache import ParameterCache

        installed = blank.restore_into(database, param_cache=ParameterCache())
        assert installed["param_entries"] == 0
