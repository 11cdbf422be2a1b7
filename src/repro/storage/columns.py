"""Typed column encodings for the columnar execution engine.

One :class:`Column` holds one attribute's values for a whole relation
(or operator output) in one of three physical encodings:

* ``num`` — a ``bool``/``int64``/``float64`` numpy array plus an
  optional null ``mask`` (True where the stored value is NULL; the
  value slot holds a dummy zero);
* ``dict`` — dictionary-encoded strings: an ``int64`` ``codes`` array
  (−1 for NULL) indexing a **sorted** unicode ``dictionary``. Sorted
  dictionaries make every comparison a pure code comparison: equality
  is one ``searchsorted`` probe, ranges are a code threshold;
* ``obj`` — a plain Python list fallback for anything the typed
  encodings cannot represent exactly (mixed types, out-of-range ints).

Columns are immutable and freely shared between frames; operators
produce new columns via :meth:`gather` or new selection vectors on top
of old columns. ``materialize`` converts back to exact Python values
(``array.tolist()`` round-trips int64/float64 bit-identically, which is
what keeps the columnar engine's rows equal to the row engine's).

The module lives in the storage layer (not ``repro.sql``) because
:class:`~repro.storage.table.Table` memoizes encoded columns next to
its raw column arrays.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Tuple

import numpy as np

from repro.storage.datatypes import DataType

__all__ = ["Column"]

_NUMERIC_SCALARS = (bool, int, float, np.bool_, np.integer, np.floating)

_NP_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_EMPTY_U = np.asarray([], dtype="U1")


class Column:
    """One immutable, typed column (see module docstring)."""

    __slots__ = ("kind", "values", "mask", "codes", "dictionary")

    def __init__(
        self,
        kind: str,
        values=None,
        mask: Optional[np.ndarray] = None,
        codes: Optional[np.ndarray] = None,
        dictionary: Optional[np.ndarray] = None,
    ) -> None:
        self.kind = kind
        self.values = values
        self.mask = mask
        self.codes = codes
        self.dictionary = dictionary

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_values(cls, values) -> "Column":
        """Encode a Python value sequence, sniffing the type.

        Exactness beats compactness: anything that would not round-trip
        (mixed int/float, non-scalar objects, ints beyond int64) falls
        back to the ``obj`` encoding rather than coercing.
        """
        if isinstance(values, Column):
            return values
        values = values if isinstance(values, list) else list(values)
        kinds = 0
        for value in values:
            if value is None:
                continue
            if isinstance(value, (bool, np.bool_)):
                kinds |= 8
            elif isinstance(value, (int, np.integer)):
                kinds |= 1
            elif isinstance(value, (float, np.floating)):
                kinds |= 2
            elif isinstance(value, str):
                kinds |= 4
            else:
                kinds |= 16
                break
        if kinds in (0, 1):
            try:
                return cls._numeric(values, np.int64)
            except OverflowError:
                return cls._object(values)
        if kinds == 2:
            return cls._numeric(values, np.float64)
        if kinds == 8:
            return cls._numeric(values, np.bool_)
        if kinds == 4:
            return cls.from_strings(values)
        return cls._object(values)

    @classmethod
    def from_typed(cls, values, data_type: DataType) -> "Column":
        """Encode values whose type the schema already declares."""
        try:
            if data_type is DataType.INTEGER:
                return cls._numeric(values, np.int64)
            if data_type is DataType.FLOAT:
                return cls._numeric(values, np.float64)
            if data_type is DataType.STRING:
                return cls.from_strings(values)
        except (OverflowError, TypeError, ValueError):
            pass
        return cls._object(list(values))

    @classmethod
    def from_strings(cls, values) -> "Column":
        n = len(values)
        codes = np.full(n, -1, dtype=np.int64)
        valid = [v for v in values if v is not None]
        if valid:
            dictionary, inverse = np.unique(
                np.asarray(valid, dtype=np.str_), return_inverse=True
            )
            codes[[i for i, v in enumerate(values) if v is not None]] = inverse
        else:
            dictionary = _EMPTY_U
        return cls("dict", codes=codes, dictionary=dictionary)

    @classmethod
    def _numeric(cls, values, dtype) -> "Column":
        n = len(values)
        mask = None
        if any(v is None for v in values):
            mask = np.fromiter((v is None for v in values), count=n, dtype=bool)
            values = [0 if v is None else v for v in values]
        array = np.asarray(values, dtype=dtype)
        return cls("num", values=array, mask=mask)

    @classmethod
    def _object(cls, values: List[object]) -> "Column":
        return cls("obj", values=values)

    # -- shape -----------------------------------------------------------------------

    def __len__(self) -> int:
        if self.kind == "dict":
            return len(self.codes)
        return len(self.values)

    # -- access ----------------------------------------------------------------------

    def value_at(self, index: int) -> object:
        """The exact Python value at storage position ``index``."""
        if self.kind == "obj":
            return self.values[index]
        if self.kind == "num":
            if self.mask is not None and self.mask[index]:
                return None
            return self.values[index].item()
        code = self.codes[index]
        return None if code < 0 else self.dictionary[code].item()

    def gather(self, indices: np.ndarray) -> "Column":
        """A new column holding ``self[i] for i in indices``."""
        if self.kind == "num":
            mask = None if self.mask is None else self.mask[indices]
            return Column("num", values=self.values[indices], mask=mask)
        if self.kind == "dict":
            return Column("dict", codes=self.codes[indices], dictionary=self.dictionary)
        values = self.values
        return Column("obj", values=[values[i] for i in indices.tolist()])

    def materialize(self, sel: Optional[np.ndarray]) -> List[object]:
        """Exact Python values at ``sel`` (all rows when None)."""
        if self.kind == "obj":
            if sel is None:
                return list(self.values)
            values = self.values
            return [values[i] for i in sel.tolist()]
        if self.kind == "num":
            values = self.values if sel is None else self.values[sel]
            out = values.tolist()
            if self.mask is not None:
                mask = self.mask if sel is None else self.mask[sel]
                for i in np.flatnonzero(mask).tolist():
                    out[i] = None
            return out
        codes = self.codes if sel is None else self.codes[sel]
        if len(self.dictionary) == 0:
            return [None] * len(codes)
        out = self.dictionary[np.where(codes >= 0, codes, 0)].tolist()
        nulls = np.flatnonzero(codes < 0)
        if len(nulls):
            for i in nulls.tolist():
                out[i] = None
        return out

    # -- vectorized kernels ----------------------------------------------------------

    def literal_mask(
        self, op: str, value: object, sel: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Boolean mask over the selection for ``column OP literal``.

        NULL rows never match (SQL semantics, matching the row
        engine's ``value is None → False``). Returns None when the
        comparison needs the Python fallback (obj columns, or operand
        types the encoded compare cannot reproduce exactly — the
        fallback then raises or answers exactly like the row engine).
        """
        if self.kind == "num":
            if not isinstance(value, _NUMERIC_SCALARS):
                return None
            values = self.values if sel is None else self.values[sel]
            try:
                mask = _NP_OPS[op](values, value)
            except (OverflowError, TypeError):
                return None
            if not isinstance(mask, np.ndarray):  # pragma: no cover - numpy quirk
                return None
            if self.mask is not None:
                nulls = self.mask if sel is None else self.mask[sel]
                mask = mask & ~nulls
            return mask
        if self.kind == "dict":
            if not isinstance(value, str):
                return None
            codes = self.codes if sel is None else self.codes[sel]
            return _dict_literal_mask(codes, self.dictionary, op, value)
        return None

    def sort_key(
        self, indices: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(nulls, values)`` arrays at ``indices`` for lexsort keys.

        Nulls sort after values ascending / before them descending —
        exactly the row engine's ``(value is None, value)`` key. None
        for obj columns (Python sort fallback).
        """
        if self.kind == "num":
            values = self.values[indices]
            if self.mask is None:
                nulls = np.zeros(len(indices), dtype=bool)
            else:
                nulls = self.mask[indices]
            return nulls, values
        if self.kind == "dict":
            codes = self.codes[indices]
            # Sorted dictionary => code order is value order.
            return codes < 0, codes
        return None

    def group_codes(self, sel: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Dense int64 codes at ``sel`` where equal values (and all
        NULLs) share a code — the DISTINCT/GROUP key ingredient. None
        for obj columns."""
        if self.kind == "dict":
            return self.codes if sel is None else self.codes[sel]
        if self.kind == "num":
            values = self.values if sel is None else self.values[sel]
            uniques, inverse = np.unique(values, return_inverse=True)
            codes = inverse.astype(np.int64, copy=False)
            if self.mask is not None:
                nulls = self.mask if sel is None else self.mask[sel]
                if nulls.any():
                    codes = codes.copy()
                    codes[nulls] = len(uniques)
            return codes
        return None

    def compare_keys(
        self, sel: np.ndarray
    ) -> Optional[Tuple[str, np.ndarray, np.ndarray]]:
        """``(tag, values, valid)`` at ``sel`` for cross-column kernels
        (joins, column-column predicates). ``tag`` is "num" or "str";
        values at invalid (NULL) slots hold dummies. None for obj."""
        if self.kind == "num":
            values = self.values[sel]
            valid = (
                np.ones(len(sel), dtype=bool)
                if self.mask is None
                else ~self.mask[sel]
            )
            return "num", values, valid
        if self.kind == "dict":
            codes = self.codes[sel]
            valid = codes >= 0
            if len(self.dictionary) == 0:
                return "str", np.zeros(len(sel), dtype="U1"), valid
            return "str", self.dictionary[np.where(valid, codes, 0)], valid
        return None


def _dict_literal_mask(
    codes: np.ndarray, dictionary: np.ndarray, op: str, value: str
) -> np.ndarray:
    """Literal comparisons on dictionary codes (sorted dictionary)."""
    valid = codes >= 0
    if op == "=":
        position = int(np.searchsorted(dictionary, value, side="left"))
        if position < len(dictionary) and dictionary[position] == value:
            return codes == position
        return np.zeros(len(codes), dtype=bool)  # dictionary miss
    if op == "<>":
        position = int(np.searchsorted(dictionary, value, side="left"))
        if position < len(dictionary) and dictionary[position] == value:
            return valid & (codes != position)
        return valid.copy()
    if op == "<":
        return valid & (codes < np.searchsorted(dictionary, value, side="left"))
    if op == "<=":
        return valid & (codes < np.searchsorted(dictionary, value, side="right"))
    if op == ">":
        return valid & (codes >= np.searchsorted(dictionary, value, side="right"))
    if op == ">=":
        return valid & (codes >= np.searchsorted(dictionary, value, side="left"))
    raise KeyError(op)  # pragma: no cover - operator set is closed
