"""Persistent workload snapshots: compiled cache state on disk.

The workload compiler (:mod:`repro.workloads.compiler`) spends minutes
of offline CPU so the online service can boot warm: per-path pricing
(:class:`~repro.core.param_cache.ParameterCache`) and canonical
boundary frontiers (:class:`~repro.core.frontier_cache.FrontierCache`)
are both pure functions of *(query, profile content, database
content + statistics)*, so the compiled state is reusable by any process that can prove it is
looking at the same database. This module is that proof plus the disk
format:

* **Identity** — a snapshot records the owning database's
  :attr:`~repro.storage.database.Database.fingerprint` (a SHA-256
  content digest: schema, rows, indexes, block size) *and* its
  ``stats_version``. :meth:`CompiledWorkload.restore_into` refuses both
  a different database (fingerprint mismatch) and the same database
  under re-ANALYZEd statistics (version mismatch) — restoring would be
  correct only by accident, so it is an error
  (:class:`SnapshotMismatch`), never a silent cold start. On success
  the cache entries are re-tagged with the *live* ``stats_token``, so
  the ordinary first-access invalidation keeps protecting them from
  later mutations.

* **Layout** — a snapshot is a directory::

      manifest.json     # identity, format version, meta + telemetry
      caches.pkl        # ParameterCache / FrontierCache blobs

  Both blobs are small (frontiers are rank tuples, pricing entries are
  float pairs) and travel through one pickle. A snapshot written by an
  older writer may also carry a ``frame`` blob and a ``columns/``
  directory; the reader ignores both.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import StorageError
from repro.storage.database import Database

# Version 2: frontier memos key on the space digest
# (repro.core.preference_space.space_digest), not the parameter tuples.
SNAPSHOT_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
CACHES_NAME = "caches.pkl"


class SnapshotMismatch(StorageError):
    """A snapshot does not belong to the database it was restored into
    (content fingerprint or statistics version differ), its on-disk
    format is from an incompatible writer, or its files are unreadable."""


@dataclass
class CompiledWorkload:
    """Everything one compiler run produced, in restorable form.

    ``meta`` is the JSON-able workload description (dataset seeds,
    fleet shape, query SQL, problem specs) that lets a fresh process
    rebuild the serving setup; ``interning`` is the
    :meth:`~repro.core.interning.ProfileInterner.report` block;
    ``telemetry`` the per-cache counters and timings at compile end.
    The two ``*_state`` blobs are the caches' ``snapshot()`` dicts.
    """

    fingerprint: str
    stats_version: int
    meta: Dict = field(default_factory=dict)
    interning: Dict = field(default_factory=dict)
    telemetry: Dict = field(default_factory=dict)
    param_state: Optional[Dict] = None
    frontier_state: Optional[Dict] = None
    format_version: int = SNAPSHOT_FORMAT_VERSION

    def restore_into(
        self,
        database: Database,
        param_cache=None,
        frontier_cache=None,
    ) -> Dict[str, int]:
        """Install the compiled state into live caches, provably safely.

        Raises :class:`SnapshotMismatch` unless ``database`` has the
        exact content fingerprint *and* statistics version the snapshot
        was compiled against. Only the caches actually passed are
        touched; returns ``{"param_entries", "frontiers"}`` counts for
        what was installed.
        """
        if self.format_version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotMismatch(
                "snapshot format v%r, this reader expects v%r"
                % (self.format_version, SNAPSHOT_FORMAT_VERSION)
            )
        live = database.fingerprint
        if live != self.fingerprint:
            raise SnapshotMismatch(
                "database content fingerprint %s... does not match the "
                "snapshot's %s... — compiled against different data"
                % (live[:12], str(self.fingerprint)[:12])
            )
        if database.stats_version != self.stats_version:
            raise SnapshotMismatch(
                "database statistics version %d does not match the "
                "snapshot's %d — statistics were rebuilt since the "
                "compile; recompile instead of restoring stale pricing"
                % (database.stats_version, self.stats_version)
            )
        token = database.stats_token
        installed = {"param_entries": 0, "frontiers": 0}
        if param_cache is not None and self.param_state is not None:
            installed["param_entries"] = param_cache.restore(self.param_state, token)
        if frontier_cache is not None and self.frontier_state is not None:
            installed["frontiers"] = frontier_cache.restore(self.frontier_state, token)
        return installed


def save_snapshot(compiled: CompiledWorkload, path: str) -> Dict[str, int]:
    """Write ``compiled`` as a snapshot directory at ``path``.

    Returns ``{"files": ..., "bytes": ...}`` for telemetry. Overwrites
    any snapshot already at ``path`` (the manifest is written last, so
    a torn write never looks like a valid snapshot).
    """
    os.makedirs(path, exist_ok=True)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)

    with open(os.path.join(path, CACHES_NAME), "wb") as handle:
        pickle.dump(
            {
                "param": compiled.param_state,
                "frontier": compiled.frontier_state,
            },
            handle,
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    manifest = {
        "format_version": compiled.format_version,
        "kind": "workload_snapshot",
        "fingerprint": compiled.fingerprint,
        "stats_version": compiled.stats_version,
        "meta": compiled.meta,
        "interning": compiled.interning,
        "telemetry": compiled.telemetry,
    }
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)

    return {"files": 2, "bytes": snapshot_nbytes(path)}


def load_snapshot(path: str) -> CompiledWorkload:
    """Read a snapshot directory back into a :class:`CompiledWorkload`.

    A missing, torn or otherwise unreadable manifest or cache file
    raises :class:`SnapshotMismatch`, like any other snapshot this
    reader cannot serve from.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise SnapshotMismatch("no snapshot manifest at %s" % manifest_path)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise SnapshotMismatch(
            "unreadable snapshot manifest at %s: %s" % (manifest_path, error)
        ) from error
    if not isinstance(manifest, dict):
        raise SnapshotMismatch("snapshot manifest at %s is not an object" % manifest_path)
    if manifest.get("kind") != "workload_snapshot":
        raise SnapshotMismatch(
            "not a workload snapshot: kind=%r" % (manifest.get("kind"),)
        )
    if manifest.get("format_version") != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotMismatch(
            "snapshot format v%r, this reader expects v%r"
            % (manifest.get("format_version"), SNAPSHOT_FORMAT_VERSION)
        )
    caches_path = os.path.join(path, CACHES_NAME)
    try:
        with open(caches_path, "rb") as handle:
            states = pickle.load(handle)
    except Exception as error:
        # A damaged pickle raises UnpicklingError, EOFError, ValueError,
        # TypeError, AttributeError, OverflowError, MemoryError, ...
        raise SnapshotMismatch(
            "unreadable snapshot caches at %s: %s: %s"
            % (caches_path, type(error).__name__, error)
        ) from error
    if not isinstance(states, dict):
        raise SnapshotMismatch("unreadable snapshot caches at %s" % caches_path)

    return CompiledWorkload(
        fingerprint=manifest["fingerprint"],
        stats_version=int(manifest["stats_version"]),
        meta=manifest.get("meta", {}),
        interning=manifest.get("interning", {}),
        telemetry=manifest.get("telemetry", {}),
        param_state=states.get("param"),
        frontier_state=states.get("frontier"),
        format_version=int(manifest["format_version"]),
    )


def snapshot_nbytes(path: str) -> int:
    """Total on-disk size of a snapshot directory."""
    total = 0
    for root, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
    return total
