"""Dual variables: dense and index-addressed multipliers.

Inequality multipliers live on the nonnegative orthant; the element-wise
projection max(value, 0) is applied after every delta, never lazily. Equality
multipliers are unconstrained. IndexedMultiplier additionally tracks how many
times each entry has been updated, supporting problems that observe only a
subset of a large constraint group per step. Indexed dual updates are not
rescaled to correct for sampling bias of the observed subset; callers who
subsample constraints non-uniformly should account for that in their signals.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import ConstraintType, EvaluationError, _ZERO, _all_finite, _as_indices, _as_size
from .core import _check_real, _index_scan

__all__ = [
    "Multiplier",
    "IndexedMultiplier",
    "multiplier_values_for",
]


def _check_indices(indices, size: int) -> np.ndarray:
    idx = _as_indices(indices, "indices")
    if idx.size:
        duplicates, lowest, highest = _index_scan(idx)
        if lowest < 0 or highest >= size:
            raise ValueError(f"index out of range for multiplier of size {size}")
        if duplicates:
            raise ValueError("duplicate indices in dual update")
    return idx


class Multiplier:
    """A dual-variable vector, updated in full or at explicit indices."""

    def __init__(self, size: int, constraint_type: ConstraintType, values=None):
        size = _as_size(size, "multiplier size")
        if size < 1:
            raise ValueError(f"multiplier size must be >= 1, got {size}")
        if not isinstance(constraint_type, ConstraintType):
            raise ValueError("constraint_type must be a ConstraintType")
        self._size = size
        self._constraint_type = constraint_type
        self._values = np.zeros(size) if values is None else self._checked(values)

    @property
    def size(self) -> int:
        return self._size

    @property
    def constraint_type(self) -> ConstraintType:
        return self._constraint_type

    @property
    def values(self) -> np.ndarray:
        """The live current dual values: treat as read-only, copy to keep.

        A later update may write into this very array (an indexed commit
        scatters its entries in place), so it is a view of the current state,
        not a snapshot. Arrays passed in (``values=``, ``load_values``) are
        copied, so a commit never writes into a caller's array.
        """
        return self._values

    def copy_values(self) -> np.ndarray:
        return self._values.copy()

    def _checked(self, values) -> np.ndarray:
        """A validated float copy of ``values``; the multiplier is not touched."""
        _check_real(values, "multiplier values")
        arr = np.asarray(values, dtype=np.float64).copy()
        if arr.shape != (self._size,):
            raise ValueError(f"values shape {arr.shape} != ({self._size},)")
        if not _all_finite(arr):
            raise EvaluationError("non-finite multiplier values")
        if self._constraint_type is ConstraintType.INEQUALITY and arr.min() < 0.0:
            raise ValueError("inequality multiplier values must be >= 0")
        return arr

    def preview_delta(self, delta, indices=None) -> np.ndarray:
        """Values after adding delta (at ``indices`` if given) and projecting.

        Pure: the multiplier itself is not touched. Returns the full vector;
        with partial indices only the addressed entries change and
        unaddressed entries keep their exact bits.
        """
        delta, indices = self._checked_delta(delta, indices)
        return self._merged(self._preview(delta, indices), indices)

    def _checked_delta(self, delta, indices) -> tuple[np.ndarray, Optional[np.ndarray]]:
        delta = np.asarray(delta, dtype=np.float64)
        if delta.ndim != 1:
            raise ValueError("delta must be a 1-d vector")
        if indices is None:
            if delta.size != self._size:
                raise ValueError(
                    f"delta length {delta.size} != multiplier size {self._size}"
                )
        else:
            indices = _check_indices(indices, self._size)
            if delta.size != indices.size:
                raise ValueError(
                    f"delta length {delta.size} != indices length {indices.size}"
                )
        return delta, indices

    def _preview(self, delta, indices: Optional[np.ndarray], gathered=None) -> np.ndarray:
        """The updated entries for a fitting delta at distinct in-range indices.

        The full new vector when ``indices`` is None, else only the addressed
        entries, in the order of ``indices``; ``gathered``, if given, holds the
        stored entries there, already gathered. Checks only the updated
        entries: the stored values are finite.
        """
        if gathered is None:
            gathered = self._values if indices is None else self._values[indices]
        updated = gathered + delta
        if self._constraint_type is ConstraintType.INEQUALITY:
            updated = np.maximum(updated, _ZERO)
        if not _all_finite(updated):
            raise EvaluationError("dual update produced non-finite multiplier values")
        return updated

    def _merged(self, updated: np.ndarray, indices: Optional[np.ndarray]) -> np.ndarray:
        """The full vector that ``_store(updated, indices)`` would leave, as a new array."""
        if indices is None:
            return updated
        new = self._values.copy()
        new[indices] = updated
        return new

    def apply_dual_delta(self, delta, indices=None) -> "Multiplier":
        """Add delta at the addressed positions, then project. Returns self."""
        delta, indices = self._checked_delta(delta, indices)
        self._store(self._preview(delta, indices), indices)
        return self

    def _store(self, values: np.ndarray, indices) -> None:
        """Commit ``_preview`` output computed for the same ``indices``.

        A full vector is adopted; addressed entries are written in place, so
        an indexed commit costs O(len(indices)), not O(size).
        """
        if indices is None:
            self._values = values
        else:
            self._values[indices] = values

    def load_values(self, values) -> None:
        """Replace values wholesale (checkpoint restore); invariants still checked."""
        self._values = self._checked(values)


class IndexedMultiplier(Multiplier):
    """Multiplier with per-index update counters for partially observed groups.

    Only indices named in a step's update have their values or counters
    changed; everything else is bitwise frozen.
    """

    def __init__(self, size: int, constraint_type: ConstraintType, values=None):
        super().__init__(size, constraint_type, values)
        self._update_count = np.zeros(self._size, dtype=np.int64)

    @property
    def update_count(self) -> np.ndarray:
        """The live per-entry update counts: incremented in place, copy to keep."""
        return self._update_count

    def _store(self, values, indices):
        # the indices were validated with the preview
        if indices is None:
            self._update_count += 1
        else:
            self._update_count[indices] += 1
        super()._store(values, indices)

    def _checked_counts(self, counts) -> np.ndarray:
        """A validated int64 copy of ``counts``; the multiplier is not touched."""
        arr = np.asarray(counts)
        if arr.shape != (self._size,) or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"update_count must be {self._size} integers")
        if arr.min() < 0:
            raise ValueError("update counts must be >= 0")
        if int(arr.max()) > np.iinfo(np.int64).max:  # else the cast wraps it negative
            raise ValueError("update counts must be < 2**63")
        return arr.astype(np.int64)

    def load_update_count(self, counts) -> None:
        self._update_count = self._checked_counts(counts)


def multiplier_values_for(state, multiplier: Multiplier) -> np.ndarray:
    """Gather the multiplier entries matching a state's observed indices.

    Returns the full values (as a copy) when ``observed_indices`` is absent,
    else the gathered subset in the order of the violation entries.
    """
    if state.observed_indices is None:
        return multiplier.copy_values()
    # ConstraintState already made the indices a distinct, nonnegative int64 list
    idx = state.observed_indices
    if idx.size and idx.max() >= multiplier.size:
        raise ValueError(f"index out of range for multiplier of size {multiplier.size}")
    return multiplier.values[idx]
