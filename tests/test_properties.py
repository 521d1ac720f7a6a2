"""Property tests: private fast paths agree with the numpy expressions they replace."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagrangekit.core import _SMALL, ConstraintState, _all_finite, _as_indices
from lagrangekit.multipliers import _check_indices

_EDGE_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0])
_SHAPES = st.one_of(
    st.tuples(st.integers(0, 40)), st.tuples(st.integers(0, 6), st.integers(0, 6))
)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        _SHAPES,
        elements=st.one_of(_EDGE_VALUES, st.floats(allow_nan=True, allow_infinity=True)),
    )
)
@example(np.full(_SMALL - 1, 1e308))
@example(np.append(np.full(_SMALL, 1e308), np.nan))
@example(np.full((6, 6), -1e308))
def test_all_finite_equals_numpy(arr):
    # both sides of _SMALL; 1e308 entries make any sum overflow
    assert _all_finite(arr) == bool(np.isfinite(arr).all())
    assert _all_finite(arr.T) == bool(np.isfinite(arr.T).all())


def _parent_state_checks(indices):
    """The index checks ``ConstraintState`` made with ``np.unique``, kept as a reference."""
    idx = _as_indices(indices, "observed_indices")
    if idx.size:
        if np.unique(idx).size != idx.size:
            raise ValueError("observed_indices contains duplicates")
        if idx.min() < 0:
            raise ValueError("observed_indices contains negative indices")


def _parent_check_indices(indices, size):
    """``multipliers._check_indices`` as it was with ``np.unique``, kept as a reference."""
    idx = _as_indices(indices, "indices")
    if idx.size:
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError(f"index out of range for multiplier of size {size}")
        if np.unique(idx).size != idx.size:
            raise ValueError("duplicate indices in dual update")


def _verdict(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the verdict is the exception's type and message
        return type(exc), str(exc)
    return None


def _index_lists(dtype):
    low = 0 if np.dtype(dtype).kind == "u" else -3
    # small values make duplicates likely; from_dtype reaches the extremes
    elements = st.one_of(st.integers(low, 12), hnp.from_dtype(np.dtype(dtype)))
    return hnp.arrays(dtype, st.integers(0, 12), elements=elements)


_INDEX_LISTS = st.sampled_from([np.uint8, np.uint64, np.int32, np.int64]).flatmap(_index_lists)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_INDEX_LISTS, st.integers(1, 12))
@example(np.array([], dtype=np.int64), 1)
@example(np.array([4], dtype=np.int32), 3)
@example(np.array([-1], dtype=np.int64), 3)
@example(np.array([2, 2], dtype=np.uint8), 3)
@example(np.array([5, 0], dtype=np.int64), 3)
@example(np.array([-1, -1], dtype=np.int32), 3)  # negative and duplicate
@example(np.array([7, 7], dtype=np.int64), 3)  # out of range and duplicate
@example(np.array([-2, 9], dtype=np.int64), 3)  # negative and out of range
@example(np.array([2**63, 1], dtype=np.uint64), 3)  # wraps to a negative int64
def test_sorted_index_scan_matches_unique(idx, size):
    violation = np.zeros(idx.size)
    got = _verdict(lambda: ConstraintState(violation, observed_indices=idx))
    assert got == _verdict(_parent_state_checks, idx)
    assert _verdict(_check_indices, idx, size) == _verdict(_parent_check_indices, idx, size)
