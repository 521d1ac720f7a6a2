"""Property tests: private fast paths agree with the numpy expressions they
replace, and every CLI invocation ends with a contained exit."""

import contextlib
import io
import json
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagrangekit import cli
from lagrangekit.core import _SMALL, ConstraintState, _all_finite, _as_indices
from lagrangekit.multipliers import _check_indices
from lagrangekit.optim import SCHEMES
from lagrangekit.problems import PROBLEM_NAMES

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


# ---------------------------------------------------------------------------
# the CLI: argv and JSON configs built from the RunConfig fields

_NUMBERS = st.one_of(
    st.sampled_from([0.05, 0.5, 1.0, 0.0, -1.0, 1e300, np.nan, np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_PATHS = st.sampled_from(["t.csv", "c.ckpt", "run.json", ".", "missing/x"])


def _names(valid):
    return st.sampled_from((*valid, "bogus"))


# well-typed values; steps and checkpoint_every stay <= 3 so each run is short
_WELL_TYPED = {
    "problem": _names(PROBLEM_NAMES),
    "a": st.one_of(
        st.sampled_from(["3,4", "1", "", "x", "1e308,1e308", "nan,1"]),
        st.lists(st.floats(-10, 10), max_size=3),
    ),
    "scheme": _names(SCHEMES),
    "formulation": _names(cli.FORMULATIONS),
    "penalty": st.one_of(st.none(), _NUMBERS),
    "primal_optimizer": _names(cli.PRIMAL_OPTIMIZERS),
    "dual_optimizer": _names(cli.DUAL_OPTIMIZERS),
    "steps": st.integers(-1, 3),
    "seed": st.sampled_from([0, 3, 2**64 - 1, -1, 2**64]),
    "trace": st.one_of(st.none(), _PATHS),
    "checkpoint_in": st.one_of(st.none(), _PATHS),
    "checkpoint_out": st.one_of(st.none(), _PATHS),
    "checkpoint_every": st.one_of(st.none(), st.integers(-1, 3)),
}
_FIELD_NAMES = [f.name for f in fields(cli.RunConfig)]
# every other field is a float
_WELL_TYPED.update({name: _NUMBERS for name in _FIELD_NAMES if name not in _WELL_TYPED})
# no large integer: it would be a well-typed step count
_MISTYPED = st.sampled_from([True, False, "3", "abc", 2.5, -7, [1.0], {"k": 1}, None])
_VALUES = {name: st.one_of(_WELL_TYPED[name], _MISTYPED) for name in _FIELD_NAMES}
_STRAY_ARGS = st.sampled_from(["--bogus", "1", "--reuse-primal-eval", "-x", "--steps"])


@st.composite
def _invocations(draw):
    """``(flags after "run --steps N", JSON config or None)``."""
    flags = ["--steps", str(draw(st.integers(1, 3)))]
    for name in draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=4, unique=True)):
        flags += ["--" + name.replace("_", "-"), str(draw(_VALUES[name]))]
    flags += draw(st.lists(_STRAY_ARGS, max_size=2))
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=4, unique=True))
        config = {name: draw(_VALUES[name]) for name in keys}
    return flags, config


@settings(
    derandomize=True,
    max_examples=150,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(invocation=_invocations())
@example(invocation=(["--steps", "abc"], None))
@example(invocation=(["--steps", "1"], {"steps": "10"}))
@example(invocation=(["--steps", "2", "--lr-primal", "1e300"], None))  # overflow: exit 2
@example(invocation=(["--steps", "1"], {"a": "1e308,1e308"}))  # no finite certificate
def test_cli_exit_is_contained(invocation, tmp_path, monkeypatch):
    # exit 0, 1 or 2; no traceback; one stderr line exactly when the exit is nonzero
    flags, config = invocation
    monkeypatch.chdir(tmp_path)  # relative path values land under tmp_path
    argv = ["run", *flags]
    if config is not None:
        with open("run.json", "w") as handle:
            json.dump(config, handle)
        argv[1:1] = ["--config", "run.json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # what argparse does on its own
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == (1 if code else 0), (argv, config, err.getvalue())
