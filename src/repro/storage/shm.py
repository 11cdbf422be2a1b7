"""Shared-memory column export for forked solve/execute workers.

The columnar engine scans a table through
:meth:`~repro.storage.table.Table.column_arrays` — parallel per-column
value sequences cached on the table. When work fans out to forked
worker processes, each worker's first scan would rebuild those arrays
from the fork-copied row store: correct, but it multiplies the resident
set and the warmup cost by the worker count. This module shares the
base-table columns instead:

* :func:`export_columns` (parent, before the fork) coerces each
  column of the selected tables into a fixed-dtype numpy array —
  int64 / float64 / bool / fixed-width unicode — backed by a
  :class:`multiprocessing.shared_memory.SharedMemory` segment, and
  returns a picklable :class:`SharedColumns` handle naming the
  segments. Columns that do not fit a fixed dtype (``None`` values,
  mixed types) make their whole table **unshareable**; it is simply
  left out of the handle and workers fall back to the fork-inherited
  rows — the per-worker recompute path, bit-identical just slower.
* :func:`attach_columns` (worker) maps the segments back as zero-copy
  numpy views and installs them as each table's column cache. Numpy
  scalars compare and hash exactly like the Python values they hold,
  so filters, hash joins and result rows are unchanged.

Lifecycle: the parent's :class:`ColumnExport` owns the segments —
``close()`` (or the context manager) unlinks them once the workers are
done. Workers keep their attachments alive in a module registry for the
process lifetime; attached views are unregistered from the resource
tracker so a worker exiting never unlinks a segment it does not own.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.columns import values_as_shared_array
from repro.storage.database import Database

__all__ = ["ColumnExport", "SharedColumns", "attach_columns", "export_columns"]

# Dtype kinds that survive the shared-memory round trip by value:
# bool, signed/unsigned int, float, fixed-width unicode.
_SHAREABLE_KINDS = frozenset("biufU")

# Worker-side attachments, kept referenced for the process lifetime:
# a numpy view dies with its segment mapping, so the SharedMemory
# objects must outlive every installed column cache.
_ATTACHED: List[shared_memory.SharedMemory] = []


def _as_shared_array(values: Sequence[object]) -> Optional[np.ndarray]:
    """``values`` as a fixed-dtype array, or None when not representable."""
    return values_as_shared_array(values)


class SharedColumns:
    """The picklable handle a worker needs to attach the export.

    ``tables`` maps a table name to its per-column segment descriptors
    ``(segment_name, dtype_string, length)``; ``token`` is the database
    statistics snapshot the export was taken under, so an attach against
    a since-mutated database refuses rather than serving stale columns.
    """

    def __init__(
        self,
        tables: Dict[str, List[Tuple[str, str, int]]],
        token: Tuple[int, int],
    ) -> None:
        self.tables = tables
        self.token = token


class ColumnExport:
    """Parent-side ownership of one set of shared column segments."""

    def __init__(self, handle: SharedColumns, segments: List[shared_memory.SharedMemory]) -> None:
        self.handle = handle
        self._segments = segments

    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        for segment in self._segments:
            try:
                # An attach in this process (or a fork sharing our
                # tracker) unregistered the name; re-register so the
                # unlink's own unregister always finds it (the tracker
                # cache is a set, so this is a no-op when balanced).
                resource_tracker.register(segment._name, "shared_memory")
            except Exception:
                pass
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    def __enter__(self) -> "ColumnExport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def export_columns(
    database: Database, tables: Optional[Sequence[str]] = None
) -> ColumnExport:
    """Export the column arrays of ``tables`` (default: all) to shm.

    Returns a :class:`ColumnExport` whose ``handle`` travels to workers
    (by pickle or fork inheritance). Tables with any unshareable column
    are skipped wholesale — absent from the handle, recomputed
    per-worker on demand.
    """
    names = list(tables) if tables is not None else database.relation_names
    segments: List[shared_memory.SharedMemory] = []
    exported: Dict[str, List[Tuple[str, str, int]]] = {}
    for name in names:
        table = database.table(name)
        arrays = [_as_shared_array(column) for column in table.column_arrays()]
        if any(array is None for array in arrays):
            continue  # worker recompute fallback
        descriptors: List[Tuple[str, str, int]] = []
        for array in arrays:
            segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[:] = array
            segments.append(segment)
            descriptors.append((segment.name, array.dtype.str, len(array)))
        exported[name] = descriptors
    return ColumnExport(SharedColumns(exported, database.stats_token), segments)


def attach_columns(database: Database, handle: SharedColumns) -> List[str]:
    """Install the exported columns as ``database``'s column caches.

    Zero-copy: each column becomes a read-only numpy view over the
    parent's segment. Returns the table names attached. Raises
    ``ValueError`` when the database has moved past the export's
    statistics snapshot (the columns would be stale).
    """
    if database.stats_token != handle.token:
        raise ValueError(
            "shared columns were exported under token %r but the database "
            "is at %r" % (handle.token, database.stats_token)
        )
    attached: List[str] = []
    for name, descriptors in handle.tables.items():
        table = database.table(name)
        views: List[np.ndarray] = []
        for segment_name, dtype, length in descriptors:
            segment = shared_memory.SharedMemory(name=segment_name)
            try:
                # The parent owns the segment; this process must not
                # unlink it when the tracker reaps at exit.
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
            _ATTACHED.append(segment)
            view = np.ndarray((length,), dtype=np.dtype(dtype), buffer=segment.buf)
            view.flags.writeable = False
            views.append(view)
        table._column_cache = tuple(views)
        # The typed-column cache was built over the fork-copied lists;
        # drop it so the next scan re-encodes over the shared views.
        table._encoded_cache = None
        attached.append(name)
    return attached
