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

from .core import ConstraintType, EvaluationError

__all__ = [
    "Multiplier",
    "DenseMultiplier",
    "IndexedMultiplier",
    "multiplier_values_for",
]


def _check_indices(indices, size: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("indices must be a 1-d index list")
    if idx.size:
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError(f"index out of range for multiplier of size {size}")
        if np.unique(idx).size != idx.size:
            raise ValueError("duplicate indices in dual update")
    return idx


class Multiplier:
    """Common storage and update semantics for dual variables."""

    def __init__(self, size: int, constraint_type: ConstraintType, values=None):
        size = int(size)
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
        """Current dual values. Treat as read-only."""
        return self._values

    def copy_values(self) -> np.ndarray:
        return self._values.copy()

    def _checked(self, values) -> np.ndarray:
        """A validated float copy of ``values``; the multiplier is not touched."""
        arr = np.asarray(values, dtype=np.float64).copy()
        if arr.shape != (self._size,):
            raise ValueError(f"values shape {arr.shape} != ({self._size},)")
        if not np.isfinite(arr).all():
            raise EvaluationError("non-finite multiplier values")
        if self._constraint_type is ConstraintType.INEQUALITY and arr.min() < 0.0:
            raise ValueError("inequality multiplier values must be >= 0")
        return arr

    def project(self) -> "Multiplier":
        """Clamp inequality multipliers at zero element-wise; equality is a no-op."""
        if self._constraint_type is ConstraintType.INEQUALITY:
            self._values = np.maximum(self._values, 0.0)
        return self

    def preview_delta(self, delta, indices=None) -> np.ndarray:
        """Values after adding delta (at ``indices`` if given) and projecting.

        Pure: the multiplier itself is not touched. With partial indices only
        the addressed entries change; unaddressed entries keep their exact
        bits.
        """
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
        return self._preview(delta, indices)

    def _preview(self, delta: np.ndarray, indices: Optional[np.ndarray]) -> np.ndarray:
        """``preview_delta`` of a fitting delta at distinct in-range indices.

        Checks only the addressed entries: the stored values are finite.
        """
        updated = (self._values if indices is None else self._values[indices]) + delta
        if self._constraint_type is ConstraintType.INEQUALITY:
            updated = np.maximum(updated, 0.0)
        if not np.isfinite(updated).all():
            raise EvaluationError("dual update produced non-finite multiplier values")
        if indices is None:
            return updated
        new = self._values.copy()
        new[indices] = updated
        return new

    def apply_dual_delta(self, delta, indices=None) -> "Multiplier":
        """Add delta at the addressed positions, then project. Returns self."""
        self._store(self.preview_delta(delta, indices), indices)
        return self

    def _store(self, values: np.ndarray, indices) -> None:
        """Adopt ``preview_delta`` output computed for the same ``indices``."""
        self._values = values

    def load_values(self, values) -> None:
        """Replace values wholesale (checkpoint restore); invariants still checked."""
        self._values = self._checked(values)


class DenseMultiplier(Multiplier):
    """Plain multiplier vector, updated in full (or at explicit indices)."""


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
        return self._update_count

    def _store(self, values, indices):
        # preview_delta has already validated the indices
        if indices is None:
            self._update_count += 1
        else:
            self._update_count[np.asarray(indices, dtype=np.int64)] += 1
        self._values = values

    def _checked_counts(self, counts) -> np.ndarray:
        """A validated int64 copy of ``counts``; the multiplier is not touched."""
        arr = np.asarray(counts)
        if arr.shape != (self._size,) or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"update_count must be {self._size} integers")
        if arr.min() < 0:
            raise ValueError("update counts must be >= 0")
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
