"""Row storage with block-granular accounting.

Rows are stored as tuples in insertion order and grouped into fixed-size
blocks, mirroring an unindexed heap file. ``blocks(R)`` — the number of
blocks a full scan reads — is the quantity the paper's cost model is
built on (Section 7.1):

    cost(q_i) = b × Σ blocks(R_ij)      over relations R_ij in q_i.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IntegrityError, StorageError
from repro.storage.datatypes import coerce_value
from repro.storage.schema import Relation

Row = Tuple[object, ...]

DEFAULT_BLOCK_SIZE = 8192  # bytes; Oracle-era default


class Table:
    """Heap-file table for one relation."""

    def __init__(self, relation: Relation, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < relation.row_width:
            raise StorageError(
                "block size %d cannot hold a %d-byte row of %s"
                % (block_size, relation.row_width, relation.name)
            )
        self.relation = relation
        self.block_size = block_size
        self.rows_per_block = max(1, block_size // relation.row_width)
        self._rows: List[Row] = []
        self._column_cache: Optional[Tuple[List[object], ...]] = None
        self._encoded_cache: Optional[Tuple[object, ...]] = None
        self._pk_index: Optional[Dict[object, int]] = None
        if relation.primary_key is not None:
            self._pk_index = {}
            self._pk_position = relation.attribute_index(relation.primary_key)

    # -- mutation ----------------------------------------------------------

    def insert(self, row: Sequence[object]) -> Row:
        """Validate and append one row; returns the stored tuple."""
        if len(row) != len(self.relation.attributes):
            raise StorageError(
                "row of arity %d for relation %s (expects %d)"
                % (len(row), self.relation.name, len(self.relation.attributes))
            )
        stored = tuple(
            coerce_value(attribute.data_type, value)
            for attribute, value in zip(self.relation.attributes, row)
        )
        if self._pk_index is not None:
            key = stored[self._pk_position]
            if key is None:
                raise IntegrityError(
                    "NULL primary key in relation %s" % self.relation.name
                )
            if key in self._pk_index:
                raise IntegrityError(
                    "duplicate primary key %r in relation %s" % (key, self.relation.name)
                )
            self._pk_index[key] = len(self._rows)
        self._rows.append(stored)
        self._column_cache = None
        self._encoded_cache = None
        return stored

    def insert_many(self, rows: Sequence[Sequence[object]]) -> int:
        for row in rows:
            self.insert(row)
        return len(rows)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def rows(self) -> List[Row]:
        return list(self._rows)

    def lookup_pk(self, key: object) -> Optional[Row]:
        if self._pk_index is None:
            raise StorageError("relation %s has no primary key" % self.relation.name)
        position = self._pk_index.get(key)
        return None if position is None else self._rows[position]

    def has_pk(self, key: object) -> bool:
        if self._pk_index is None:
            raise StorageError("relation %s has no primary key" % self.relation.name)
        return key in self._pk_index

    def column(self, attribute_name: str) -> List[object]:
        position = self.relation.attribute_index(attribute_name)
        return [row[position] for row in self._rows]

    def column_arrays(self) -> Tuple[List[object], ...]:
        """All columns as parallel value lists, in attribute order.

        The arrays are cached until the next insert and shared between
        callers — treat them as immutable. This is the columnar
        engine's scan source: reading a table costs a tuple copy of
        pointers, not a per-row materialization.
        """
        if self._column_cache is None:
            self._column_cache = tuple(
                [row[position] for row in self._rows]
                for position in range(len(self.relation.attributes))
            )
        return self._column_cache

    def encoded_columns(self) -> Tuple[object, ...]:
        """All columns as typed, dictionary-encoded
        :class:`~repro.storage.columns.Column` objects, in attribute
        order — the vectorized engine's scan source.

        Encoded once per table version (cache dropped on insert) and
        shared between every frame built on this table.
        """
        if self._encoded_cache is None:
            from repro.storage.columns import Column

            self._encoded_cache = tuple(
                Column.from_typed(values, attribute.data_type)
                for values, attribute in zip(
                    self.column_arrays(), self.relation.attributes
                )
            )
        return self._encoded_cache

    # -- block accounting ----------------------------------------------------

    @property
    def block_count(self) -> int:
        """Number of blocks a full scan of this table reads (``blocks(R)``)."""
        if not self._rows:
            return 0
        return math.ceil(len(self._rows) / self.rows_per_block)

    def scan_blocks(self) -> Iterator[List[Row]]:
        """Iterate block-by-block, the unit the I/O model charges for."""
        for start in range(0, len(self._rows), self.rows_per_block):
            yield self._rows[start : start + self.rows_per_block]
