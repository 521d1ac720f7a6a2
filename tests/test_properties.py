"""Property tests: private fast paths agree with the numpy expressions they
replace, every CLI invocation ends with a contained exit, a corrupt checkpoint
is rejected without a change, and a resume is bit-exact."""

import contextlib
import io
import json
import struct
import tracemalloc
import types
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagrangekit import (
    AdamLike,
    BenchmarkProblem,
    ConstraintBlock,
    DifferentiableFunction,
    Momentum,
    NuPI,
    PrimalDualOptimizers,
    checkpoint,
    cli,
    make_dual_optimizers,
    problem_projection_ball,
    roll,
)
from lagrangekit.checkpoint import CheckpointError
from lagrangekit.core import (
    _SMALL,
    _TWO,
    _ZERO,
    CMPState,
    ConstrainedMinimizationProblem,
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    Evaluation,
    EvaluationError,
    Formulation,
    _all_finite,
    _as_indices,
    _max_abs,
)
from lagrangekit.multipliers import _check_indices
from lagrangekit.optim import SCHEMES, _checked_blocks, _hand_on, _jacobian_error, _store_blocks
from lagrangekit.problems import (
    PROBLEM_NAMES,
    _kkt_pieces,
    _logistic_loss_grad,
    current_kkt_residual,
    two_gaussian_dataset,
)
from test_checkpoint import _state_bytes

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


def _at_size(fill, *edits):
    """A 256 x 100 array of ``fill`` (the Jacobian of a partial_rows roll) with edits."""
    arr = np.full((256, 100), fill)
    for index, value in edits:
        arr.flat[index] = value
    return arr


_LARGE = _at_size(1.0)
_AT_SIZE = {
    "ones": _LARGE,
    "inf-first": _at_size(1.0, (0, np.inf)),
    "inf-last": _at_size(1.0, (-1, np.inf)),
    "nan-first": _at_size(1.0, (0, np.nan)),
    "nan-last": _at_size(1.0, (-1, np.nan)),
    "minus-inf-last": _at_size(-1.0, (-1, -np.inf)),
    "1e308": _at_size(1e308),  # the squares overflow: the exact scan answers
    "1e308-nan-last": _at_size(1e308, (-1, np.nan)),
    "1e-158": _at_size(1e-158),  # subnormal squares
    "1e-158-inf-last": _at_size(1e-158, (-1, np.inf)),
    "subnormal": _at_size(5e-324),
    "fortran": np.asfortranarray(_LARGE),
    "fortran-nan": np.asfortranarray(_at_size(1.0, (-1, np.nan))),
    "strided": _LARGE[:, ::3],
    "strided-inf": _at_size(1.0, (3, np.inf))[:, ::3],
    "transposed-row": _at_size(1.0, (-1, np.inf)).T[-1],
    "first-size": np.full(_SMALL, 1e-158),
}


@pytest.mark.parametrize("arr", _AT_SIZE.values(), ids=_AT_SIZE.keys())
def test_all_finite_at_size_equals_numpy(arr):
    # no overflow or underflow of the self-dot raises, warns or changes the answer
    with np.errstate(all="raise"):
        assert _all_finite(arr) == bool(np.isfinite(arr).all())


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(
    st.sampled_from([1.0, -2.5, 1e-158, 5e-324, 1e200, -1e308]),
    st.lists(st.tuples(st.integers(0, 256 * 100 - 1), _EDGE_VALUES), max_size=3),
    st.sampled_from(["C", "F", "strided"]),
)
def test_all_finite_at_size_equals_numpy_with_edits(fill, edits, layout):
    arr = _at_size(fill, *edits)
    arr = {"C": arr, "F": np.asfortranarray(arr), "strided": arr[::2]}[layout]
    with np.errstate(all="raise"):
        assert _all_finite(arr) == bool(np.isfinite(arr).all())


def test_all_finite_checks_a_large_array_without_a_temporary():
    # one read by the self-dot: no 25.6 kB bool array from np.isfinite
    _all_finite(_LARGE)
    tracemalloc.start()
    try:
        assert _all_finite(_LARGE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def _bits(value) -> bytes:
    return struct.pack("<d", value)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 2 * _SMALL),
        elements=st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308]),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
    )
)
@example(np.array([-0.0]))
@example(np.array([np.inf, -np.inf]))  # sums to NaN without a NaN entry
@example(np.array([1.0, np.nan, 2.0]))
@example(np.full(_SMALL, np.nan))
def test_max_abs_equals_numpy(arr):
    assert _bits(_max_abs(arr)) == _bits(float(np.max(np.abs(arr))))
    square = arr[: (arr.size // 2) * 2].reshape(2, -1)
    if square.size:
        assert _bits(_max_abs(square.T)) == _bits(float(np.max(np.abs(square.T))))


def _parent_violation_maxima(problem, state):
    """``_violation_maxima`` as it was, all numpy, kept as a reference."""
    max_ineq = 0.0
    max_eq = 0.0
    for gid, cstate in state.observed_constraints.items():
        v = cstate.violation
        if not v.size:
            continue
        if problem.group(gid).constraint_type is ConstraintType.INEQUALITY:
            max_ineq = max(max_ineq, float(np.max(np.maximum(v, 0.0))))
        else:
            max_eq = max(max_eq, float(np.max(np.abs(v))))
    return max_ineq, max_eq


_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_KKT_DIM = 2


@st.composite
def _kkt_groups(draw):
    """Groups of 0 to 2 * _SMALL observed entries, each with its multiplier and Jacobian.

    Each group is ``(inequality, formulation, indexed, dense, v, m, jacobian)``: an
    observation that is not dense names the first ``len(v)`` entries of a group one
    larger in reverse, and ``m`` has one entry per constraint of the group.
    """
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, 2 * _SMALL))
        formulation = draw(st.sampled_from(list(Formulation)))
        indexed = formulation is not Formulation.QUADRATIC_PENALTY and draw(st.booleans())
        dense = k > 0 and draw(st.booleans())
        size = k if dense else k + 1
        groups.append((
            draw(st.booleans()), formulation, indexed, dense,
            draw(st.lists(_ENTRIES, min_size=k, max_size=k)),
            draw(st.lists(_ENTRIES, min_size=size, max_size=size)),
            draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e308]),
                          min_size=k * _KKT_DIM, max_size=k * _KKT_DIM)),
        ))
    return groups, draw(st.lists(_ENTRIES, min_size=_KKT_DIM, max_size=_KKT_DIM))


def _kkt_problem(groups, grad_f):
    """A problem over ``groups`` and a user-built evaluation of them."""
    problem = ConstrainedMinimizationProblem(_KKT_DIM)
    observed, jacobians = {}, {}
    for i, (inequality, formulation, indexed, dense, v, m, jac) in enumerate(groups):
        kind = ConstraintType.INEQUALITY if inequality else ConstraintType.EQUALITY
        m = np.array(m)
        if inequality:
            m = np.where(m < 0, -m, m)  # keeps a -0.0
        lagrangian = formulation is Formulation.LAGRANGIAN
        problem.register_group(ConstraintGroup(
            f"g{i}", kind, m.size, formulation, penalty=None if lagrangian else 1.0,
            indexed=indexed,
            initial_multiplier=None if formulation is Formulation.QUADRATIC_PENALTY else m,
        ))
        indices = None if dense else np.arange(len(v))[::-1]
        observed[f"g{i}"] = ConstraintState(np.array(v, dtype=np.float64), None, indices)
        jacobians[f"g{i}"] = np.array(jac, dtype=np.float64).reshape(len(v), _KKT_DIM)
    state = CMPState(loss=0.0, observed_constraints=observed)
    return problem, Evaluation(state=state, grad_f=np.array(grad_f), jacobians=jacobians)


def _reference_residual(problem, evaluation):
    """(grad f + sum m J, the violation maxima, complementarity) at the stored multipliers."""
    gradient = np.array(evaluation.grad_f)
    complementarity = 0.0
    for gid, cstate in evaluation.state.observed_constraints.items():
        group = problem.group(gid)
        v = cstate.violation
        if group.multiplier is None or not v.size:
            continue
        m = group.multiplier.values
        m = m if cstate.observed_indices is None else m[cstate.observed_indices]
        gradient += m.dot(evaluation.jacobians[gid])
        if group.constraint_type is ConstraintType.INEQUALITY:
            complementarity = max(complementarity, float(np.max(np.abs(m * v))))
    return gradient, _parent_violation_maxima(problem, evaluation.state), complementarity


@settings(derandomize=True, max_examples=200, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_kkt_groups())
@example(([(True, Formulation.LAGRANGIAN, False, True, [-0.0], [-0.0], [0.0, -0.0]),
           (False, Formulation.LAGRANGIAN, False, True, [-0.0], [-0.0], [-0.0, 0.0])],
          [0.0, -0.0]))
@example(([(True, Formulation.LAGRANGIAN, True, True, [-1.0, -0.0], [0.0, 2.0],
            [1.0, 0.0, 0.0, 1.0]),
           (True, Formulation.AUGMENTED_LAGRANGIAN, True, False, [], [1.0], []),
           (False, Formulation.QUADRATIC_PENALTY, False, True, [-2.0, 0.0], [0.0, 0.0],
            [1.0] * 4)],
          [1.0, -1.0]))
@example(([(True, Formulation.LAGRANGIAN, False, True, [-1.0] * _SMALL + [3.0],
            [0.5] * (_SMALL + 1), [0.5] * (2 * _SMALL + 2)),
           (False, Formulation.LAGRANGIAN, True, False, [-5.0] * _SMALL, [1.0] * (_SMALL + 1),
            [-1.0] * (2 * _SMALL))],
          [0.0, 1.0]))
@example(([(True, Formulation.LAGRANGIAN, False, True, [1e308], [1e308], [0.0, 0.0]),
           (True, Formulation.LAGRANGIAN, False, True, [1e308] * _SMALL, [1e308] * _SMALL,
            [0.0] * (2 * _SMALL))],
          [0.0, 0.0]))  # products that overflow, beside a finite gradient
def test_violation_maxima_equals_numpy(case):
    """The KKT residual's one pass: maxima, complementarity and stationarity, bit for bit.

    Inside an observer call the blocks come from the slot, and the record's gradient
    (here the reference's, which a roll would have checked) is read when every group is
    Lagrangian; outside it, and with explicit multipliers, grad f + sum m J is composed.
    """
    problem, evaluation = _kkt_problem(*case)
    # an overflowing product or sum warns from numpy, which the residual's larger groups use
    with np.errstate(over="ignore", invalid="ignore"):
        _check_kkt_residual(problem, evaluation)


def _check_kkt_residual(problem, evaluation):
    """Each way of asking for the residual against ``_reference_residual``."""
    gradient, maxima, complementarity = _reference_residual(problem, evaluation)
    finite = bool(np.isfinite(gradient).all())
    stationarity = float(np.max(np.abs(gradient))) if finite else None
    expected = [_bits(v) for v in (stationarity, max(maxima), complementarity)] if finite else []
    stored = {gid: g.multiplier.values.copy()
              for gid, g in problem.groups.items() if g.multiplier is not None}
    residuals = []
    if finite:  # a roll hands on only a record whose gradient it checked
        lagrangian = all(g.formulation is Formulation.LAGRANGIAN for g in problem.groups.values())
        # a record the residual must not read holds None, which _max_abs cannot take
        record = types.SimpleNamespace(gradient=gradient if lagrangian else None)
        blocks = _checked_blocks(problem, evaluation)
        _hand_on(problem, evaluation, blocks, record,
                 lambda ev, asm: residuals.append(current_kkt_residual(problem, ev)))
        assert len(problem._slot) == 2 and len(residuals) == 1

    def afresh():
        vars(problem).pop("_slot", None)
        return current_kkt_residual(problem, evaluation)

    # outside an observer call: with the blocks the call left in the slot, with none,
    # and at explicit multipliers
    for residual in (lambda: current_kkt_residual(problem, evaluation), afresh,
                     lambda: _kkt_pieces(problem, evaluation, stored)):
        if not finite:
            with pytest.raises(EvaluationError, match="non-finite primal gradient"):
                residual()
            continue
        residuals.append(residual())
    for residual in residuals:
        assert [_bits(v) for v in residual] == expected
    if residuals:
        assert problem._maxima[0] is evaluation.state
        assert [_bits(v) for v in problem._maxima[1]] == [_bits(v) for v in maxima]


def _parent_logistic_loss_grad(features, labels, w, b):
    """``problems._logistic_loss_grad`` as it was, two full logaddexp passes, as a reference."""
    n = features.shape[0]
    z = np.dot(features, w) + b
    margins = labels * z
    loss = np.sum(np.logaddexp(0.0, -margins)) / n
    slope = np.exp(-np.logaddexp(0.0, margins))
    gz = -(labels * slope) / n
    grad_w = np.dot(gz, features)
    grad_b = np.sum(gz)
    return loss, grad_w, grad_b


_MARGIN_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 800.0, -800.0, 1.0, -1.0, 36.0, -36.0, 745.0, -745.0]),
    st.floats(-800.0, 800.0),
    st.floats(-2.0, 2.0),  # where m + log(1 + e^-m) rounds differently for m < 0
)


@st.composite
def _logistic_inputs(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 3))
    features = draw(hnp.arrays(np.float64, (n, dim), elements=_MARGIN_PARTS))
    labels = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    w = draw(hnp.arrays(np.float64, dim, elements=st.one_of(
        st.sampled_from([1.0, -1.0, 0.0]), st.floats(-2.0, 2.0)
    )))
    b = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0)))
    return features, labels, w, b


def _alternating_labels(n):
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


# n in the thousands, so numpy's long-array ufunc loops are compared too
_WIDE = np.append(np.linspace(-800.0, 800.0, 4097), [-0.0, 745.0, -745.0])  # 4097 holds 0.0
_NEAR_ZERO = np.linspace(-2.0, 2.0, 6001)
_NEAR_ZERO[3000] = -0.0
_FIT_FEATURES, _FIT_LABELS = two_gaussian_dataset(0, n_points=10_000, dim=4)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_logistic_inputs())
@example((np.array([[0.0], [-0.0], [800.0], [-800.0], [1.0]]),
          np.array([1.0, -1.0, 1.0, -1.0, -1.0]), np.array([1.0]), 0.0))
@example((np.linspace(-2.0, 2.0, 41)[:, None], np.ones(41), np.array([1.0]), 0.0))
@example((_WIDE[:, None], _alternating_labels(_WIDE.size), np.array([1.0]), 0.0))
@example((_WIDE[:, None], np.ones(_WIDE.size), np.array([-1.0]), -0.0))
@example((_NEAR_ZERO[:, None], _alternating_labels(_NEAR_ZERO.size), np.array([1.0]), 0.0))
@example((np.column_stack([_WIDE, -_WIDE, _WIDE / 7.0]), _alternating_labels(_WIDE.size),
          np.array([0.5, 0.25, 1.0]), -0.0))
# mostly positive margins with a minority of negatives, as mid-way through a fit
@example((_FIT_FEATURES, _FIT_LABELS, np.array([0.9, 0.7, 0.5, 0.3]), 0.01))
def test_logistic_loss_grad_equals_two_pass_formula(inputs):
    # margins of both signs, exact zeros and |m| up to 800; equal bit for bit
    features, labels, w, b = inputs
    loss, grad_w, grad_b = _logistic_loss_grad(features, labels, w, b)
    ref_loss, ref_grad_w, ref_grad_b = _parent_logistic_loss_grad(features, labels, w, b)
    assert _bits(loss) == _bits(ref_loss)
    assert grad_w.tobytes() == ref_grad_w.tobytes()
    assert _bits(grad_b) == _bits(ref_grad_b)


def test_logistic_loss_grad_is_pure():
    # the CLI's evaluator calls the oracle again at the same point and expects the same bits
    features, labels = two_gaussian_dataset(3, n_points=2000, dim=5)
    w = np.array([0.4, -0.3, 0.2, 0.0, -0.0])
    inputs = (features, labels, w)
    before = [arr.tobytes() for arr in inputs]
    for arr in inputs:
        arr.flags.writeable = False  # a write into an input raises
    first = _logistic_loss_grad(features, labels, w, -0.25)
    second = _logistic_loss_grad(features, labels, w, -0.25)
    assert [arr.tobytes() for arr in inputs] == before
    assert _bits(first[0]) == _bits(second[0]) and _bits(first[2]) == _bits(second[2])
    assert first[1].tobytes() == second[1].tobytes()
    assert first[1] is not second[1] and not np.shares_memory(first[1], w)


_OPERAND_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308,
                     -1e308, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_UNIT = st.floats(0.0, 1.0, exclude_max=True)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(
    arr=hnp.arrays(np.float64, st.integers(0, 70), elements=_OPERAND_ENTRIES),
    rate=st.floats(1e-300, 1e300),
    eps=st.floats(1e-300, 1e300),
    kappa_p=st.floats(0.0, 1e300),
    betas=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT),
)
@example(arr=np.array([np.nan, -0.0, 5e-324, np.inf]), rate=1e-300, eps=1e300, kappa_p=0.0,
         betas=(0.0, 0.9, 0.999, 0.9999999999999999))
def test_array_operands_equal_python_float_operands(arr, rate, eps, kappa_p, betas):
    # the 0-d zero, two and coefficient twins against the Python-float expressions they
    # replace, bit for bit; lengths up to 70 cover the SIMD loops' bodies and tails
    beta, beta1, beta2, nu = betas
    momentum = Momentum(rate, beta=beta)
    adam = AdamLike(rate, beta1=beta1, beta2=beta2, eps=eps)
    nupi = NuPI(rate, kappa_p=kappa_p, nu=nu)
    with np.errstate(all="ignore"):
        pairs = [
            (np.maximum(arr, _ZERO), np.maximum(arr, 0.0)),
            (np.logaddexp(_ZERO, arr), np.logaddexp(0.0, arr)),
            (_TWO * arr, 2.0 * arr),
            (momentum._learning_rate * arr, rate * arr),
            (momentum._beta * arr, beta * arr),
            (adam._beta1 * arr, beta1 * arr),
            (adam._1mbeta1 * arr, (1.0 - beta1) * arr),
            (adam._beta2 * arr, beta2 * arr),
            (adam._1mbeta2 * arr, (1.0 - beta2) * arr),
            (arr + adam._eps, arr + eps),
            (nupi._nu * arr, nu * arr),
            (nupi._1mnu * arr, (1.0 - nu) * arr),
            (nupi._kappa_p * arr, kappa_p * arr),
        ]
    for got, expected in pairs:
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()


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


# property (iv): whatever the input, a failure is one stderr line of <= 200 bytes

_HUGE = int("9" * 4000)
_TEXT = st.one_of(
    st.integers(0, 6000).map(lambda n: "x" * n),
    st.text(max_size=40),  # any code point: null bytes and line breaks too
    st.sampled_from(["", "\0", "a\r\nb", "é" * 3000, " ", "nan", "-5", "1e400", "3,4"]),
    st.sampled_from([_HUGE, -_HUGE, 2**64, -1, 3]).map(str),
)
# relative names, none of them '.' or '..': every write stays in the working directory
_SAFE_PATHS = st.one_of(
    st.sampled_from(["t.csv", "c.ckpt", "run.json", "", "missing/x", "a\0b", "p" * 5000]),
    st.text(alphabet="ab_ \n\0é", min_size=1, max_size=300),
)
_PATH_FIELDS = ("trace", "checkpoint_in", "checkpoint_out")
_BAD_STEPS = st.sampled_from(["0", "-1", "-" + "9" * 4000, "nan", "1.5", "abc", "\0"])


def _nested(depth: int):
    return json.loads("[" * depth + "0" + "]" * depth)


_JSON_VALUES = st.one_of(
    _TEXT,
    st.sampled_from([_HUGE, -_HUGE, 2**64, -1, 0, 2.5, True, None, float("nan"), float("inf")]),
    st.integers(1, 600).map(_nested),
    st.lists(st.integers(-(10**30), 10**30), max_size=5),
    st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
)


def _argv_value(name):
    if name in _PATH_FIELDS:
        return _SAFE_PATHS
    if name == "steps":  # a valid count comes first on the line; this one overrides it
        return _BAD_STEPS
    return st.one_of(_WELL_TYPED[name].map(str), _TEXT)


def _config_value(name):
    if name in _PATH_FIELDS:
        return st.one_of(_SAFE_PATHS, _JSON_VALUES)
    if name == "steps":
        return st.sampled_from([1, 2, 3, 0, -1, -_HUGE, 2.5, "3", None, [3]])
    return st.one_of(_WELL_TYPED[name], _JSON_VALUES)


@st.composite
def _bounded_invocations(draw):
    """``(argv, JSON config or None)``; ``--steps`` is 1, 2 or 3 unless invalid."""
    command = draw(st.sampled_from(["run", "run", "run", "check-grad"]))
    flags = ["--steps", str(draw(st.integers(1, 3)))] if command == "run" else []
    names = ["problem", "a", "threshold", "seed"] if command == "check-grad" else _FIELD_NAMES
    for name in draw(st.lists(st.sampled_from(names), max_size=4, unique=True)):
        flags += ["--" + name.replace("_", "-"), draw(_argv_value(name))]
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=5, unique=True))
        config = {name: draw(_config_value(name)) for name in keys}
        config.update({f"k{i}": 0 for i in range(draw(st.sampled_from([0, 0, 3, 3000])))})
        config = draw(st.sampled_from([config] * 6 + [[config], "x" * 300, _nested(600)]))
    return [command, *flags], config


def _contained(argv, capsys) -> None:
    """``cli.main(argv)`` exits 0, 1 or 2, and a failure writes one short line."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.count("\n") == 1 and err.splitlines() == [err[:-1]], (argv, err)
        assert len(err.encode()) <= 200 and "Traceback" not in err, (argv, err)
    else:
        assert err == "", (argv, err)


@settings(
    derandomize=True,
    max_examples=200,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(invocation=_bounded_invocations())
@example(invocation=(["run", "--steps", "1", "--seed", str(_HUGE)], None))
@example(invocation=(["run", "--steps", "1"], {"threshold": _HUGE, "problem": "norm_logreg"}))
@example(invocation=(["run", "--steps", "1"], {"a": [_HUGE, 1]}))
@example(invocation=(["run", "--steps", "1", "--config", "p" * 5000], None))
@example(invocation=(["check-grad", "--a", "1\n2é" * 100], None))
@example(invocation=(["run", "--steps", "2", "--lr-primal", "1e300"], None))  # exit 2
@example(invocation=(["run", "--steps", "1", "--trace", "missing/x\n" * 50], None))
def test_cli_failure_line_is_bounded(invocation, tmp_path, monkeypatch, capsys):
    argv, config = invocation
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    if config is not None:
        with open("run.json", "w") as handle:
            json.dump(config, handle)
        argv = [*argv, "--config", "run.json"]
    _contained(argv, capsys)


_CKPT_MUTATIONS = st.tuples(
    st.sampled_from(["payload", "key", "line", "delete", "duplicate", "insert"]),
    st.integers(0, 40),
    _TEXT,
)


@settings(
    derandomize=True,
    max_examples=100,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    flags=st.sampled_from([
        [],
        ["--problem", "norm_logreg", "--primal-optimizer", "adam", "--dual-optimizer", "nupi"],
        ["--formulation", "augmented_lagrangian", "--penalty", "2", "--primal-optimizer", "momentum"],
    ]),
    mutations=st.lists(_CKPT_MUTATIONS, min_size=1, max_size=3),
)
# lines: the magic line, then groups.ball.multiplier, .penalty, signature, step, version, x
@example(flags=[], mutations=[("insert", 1, "k" * 100_000)])
@example(flags=[], mutations=[("payload", 3, "s " + "z" * 100_000)])
@example(flags=[], mutations=[("payload", 5, "i " + "9" * 4000)])
def test_mutated_checkpoint_failure_line_is_bounded(flags, mutations, tmp_path, capsys):
    path = tmp_path / "state.ckpt"
    argv = ["run", "--steps", "1", *flags]
    assert cli.main([*argv, "--checkpoint-out", str(path)]) == 0
    lines = path.read_text().split("\n")[:-1]
    for what, where, text in mutations:
        i = where % len(lines)
        key, _, payload = lines[i].partition("=")
        if what == "payload":
            lines[i] = f"{key}={text}"
        elif what == "key":
            lines[i] = f"{text}={payload}"
        elif what == "line":
            lines[i] = text
        elif what == "delete":
            del lines[i]
        elif what == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, f"{text}=i 1")
        if not lines:
            break
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    _contained([*argv, "--checkpoint-in", str(path)], capsys)


# ---------------------------------------------------------------------------
# checkpoints: a corrupt key is contained, and a resume is bit-exact

_CKPT_KEYS = [
    "version", "signature", "step", "x",
    "groups.ball.multiplier", "groups.ball.penalty", "groups.ball.update_count",
    "opt.primal.m", "opt.primal.v", "opt.primal.t", "opt.dual.ball.ema", "opt.dual.ball.seen",
]
_CKPT_TAGS = st.sampled_from(["absent", "i", "f", "v", "iv", "s", "b", ""])
_CKPT_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(float.hex),
    st.sampled_from(["0x1p+99999", "-0x1p+99999", "nan", "inf", "-inf", "0x", "", "absent"]),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["-1", "2", "5"]),  # integers beside the 0/1 of a flag vector
    st.text(alphabet="0123456789abcdefpx+-.", max_size=6),
)
# (what to replace, tag, token, tokens): the whole payload (or a vector
# payload of a fitting count), its tag, its count or one entry (picked by
# len(tokens)); an edit that does not apply appends the token
_CKPT_EDITS = st.tuples(
    st.sampled_from(["payload", "vector", "tag", "count", "entry"]),
    _CKPT_TAGS,
    _CKPT_TOKENS,
    st.lists(_CKPT_TOKENS, max_size=4),
)


def _corrupt(payload: str, edit) -> str:
    what, tag, token, tokens = edit
    parts = payload.split(" ")
    if what == "payload":
        parts = [tag, *tokens]
    elif what == "vector":
        parts = [tag, str(len(tokens)), *tokens]
    elif what == "tag":
        parts[0] = tag
    elif what == "count" and len(parts) > 1:
        parts[1] = token
    elif what == "entry" and len(parts) > 2:
        parts[2 + len(tokens) % (len(parts) - 2)] = token
    else:
        parts.append(token)
    return " ".join(parts)


def _ball_adam_nupi():
    problem = problem_projection_ball(
        np.array([3.0, 4.0]), formulation="augmented_lagrangian", penalty=2.0, indexed=True
    )
    return problem, PrimalDualOptimizers(
        primal=AdamLike(0.05), duals=make_dual_optimizers(problem, lambda: NuPI(0.05))
    )


@settings(
    derandomize=True,
    max_examples=200,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(key=st.sampled_from(_CKPT_KEYS), edit=_CKPT_EDITS)
@example(key="x", edit=("payload", "v", "", []))  # no count
@example(key="x", edit=("payload", "v", "", ["1", "0x1p+99999"]))  # beyond float64
@example(key="opt.dual.ball.seen", edit=("entry", "", "99999999999999999999999", []))  # int64
@example(key="version", edit=("vector", "v", "", ["0x1p+0", "0x1p+0"]))
@example(key="signature", edit=("vector", "iv", "", []))
@example(key="opt.primal.m", edit=("entry", "", "nan", []))
@example(key="opt.primal.v", edit=("entry", "", "inf", []))  # loads: a roll can commit it
@example(key="opt.primal.v", edit=("entry", "", "-0x1p+0", []))
@example(key="opt.dual.ball.ema", edit=("entry", "", "-inf", []))
@example(key="opt.dual.ball.seen", edit=("entry", "", "5", []))
@example(key="opt.dual.ball.seen", edit=("vector", "iv", "", ["-1"]))
def test_corrupt_checkpoint_key_is_contained(key, edit, tmp_path):
    # load raises only CheckpointError, and then leaves the target bitwise unchanged;
    # a load that succeeds took finite buffers (Adam's v: >= 0, inf allowed)
    # and NuPI flags of 0 or 1
    path = tmp_path / "state.ckpt"
    source = _ball_adam_nupi()
    for _ in range(2):
        roll(*source)
    checkpoint.save(*source, path)
    lines = path.read_text().split("\n")
    (i,) = [i for i, line in enumerate(lines) if line.startswith(key + "=")]
    lines[i] = f"{key}={_corrupt(lines[i][len(key) + 1:], edit)}"
    path.write_text("\n".join(lines))

    target = _ball_adam_nupi()
    roll(*target)
    before = _state_bytes(*target)
    try:
        checkpoint.load(path, *target)
    except CheckpointError:
        assert _state_bytes(*target) == before
    else:
        optimizers = target[1]
        for optimizer in (optimizers.primal, *optimizers.duals.values()):
            for name, value in optimizer.buffer_state().items():
                if optimizer is optimizers.primal and name == "v":
                    assert (value >= 0.0).all()
                else:
                    assert value is None or np.isfinite(value).all()
        if key.endswith(".seen"):
            assert np.isin(checkpoint._decode(key, lines[i][len(key) + 1:]), (0, 1)).all()


def _built(config):
    problem = cli._build_problem(config)
    return problem, cli._build_optimizers(config, problem)


@settings(
    derandomize=True,
    max_examples=400,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    config=st.builds(
        cli.RunConfig,
        problem=st.sampled_from(PROBLEM_NAMES),
        scheme=st.sampled_from(SCHEMES),
        formulation=st.sampled_from(cli.FORMULATIONS),
        primal_optimizer=st.sampled_from(cli.PRIMAL_OPTIMIZERS),
        dual_optimizer=st.sampled_from(cli.DUAL_OPTIMIZERS),
    ),
    k=st.integers(0, 5),
)
def test_dense_resume_is_bit_exact(config, k, tmp_path):
    # k steps, save, load into fresh objects, 5 - k more: the same bits as 5 steps
    n = 5
    straight = _built(config)
    first = _built(config)
    for _ in range(n):
        roll(*straight, config.scheme)
    for _ in range(k):
        roll(*first, config.scheme)
    path = tmp_path / "state.ckpt"
    checkpoint.save(*first, path)
    resumed = _built(config)
    assert checkpoint.load(path, *resumed) == k
    for _ in range(n - k):
        roll(*resumed, config.scheme)
    assert _state_bytes(*resumed) == _state_bytes(*straight)


# ---------------------------------------------------------------------------
# a library evaluation: the fast test on oracle output changes no result and no error


class _Sub(np.ndarray):
    pass


def _edited(arr, edit, where):
    """``arr``, an oracle output, changed by ``edit``; ``where`` picks the entry to spoil."""
    if edit in ("nan", "inf", "-inf"):
        arr = arr.copy()
        arr.flat[where % arr.size] = float(edit)
        return arr
    return {
        "none": lambda: arr,
        "overflow": lambda: np.full(arr.shape, 1e308 if where % 2 else -1e308),  # finite
        "float32": lambda: arr.astype(np.float32),
        "int": lambda: arr.astype(np.int64),
        "object": lambda: arr.astype(object),
        "big-endian": lambda: arr.astype(">f8"),
        "list": lambda: arr.tolist(),
        "0-d": lambda: arr.reshape(()) if arr.size == 1 else arr[..., 0],
        "shape": lambda: np.append(arr, 0.0) if arr.ndim == 1 else arr[:, 1:],
        "fortran": lambda: np.asfortranarray(arr),  # not C-ordered when both dims exceed 1
        "strided": lambda: np.repeat(arr, 2, axis=-1)[..., ::2],
        "subclass": lambda: arr.view(_Sub),
    }[edit]()


_EDITS = st.sampled_from([
    "none", "nan", "inf", "-inf", "overflow", "float32", "int", "object", "big-endian",
    "list", "0-d", "shape", "fortran", "strided", "subclass",
])
_ENTRIES = st.floats(-1e3, 1e3)


@st.composite
def _oracle_outputs(draw):
    """``(dim, blocks, outputs)``: per block (size, indexed, strict), and each oracle's output.

    ``outputs`` maps the oracle (``"objective"``, ``"g0"``, ``"g0.strict"``, ...) to
    what it returns; a dim or a size of 33 takes the numpy branch of the sum test.
    """
    dim = draw(st.sampled_from([1, 2, 33]))
    blocks = draw(st.lists(
        st.tuples(st.sampled_from([1, 2, 33]), st.booleans(), st.booleans()),
        min_size=1, max_size=2,
    ))
    shapes = {"objective": ((1,), (1, dim))}
    for i, (size, _, strict) in enumerate(blocks):
        shapes[f"g{i}"] = ((size,), (size, dim))
        if strict:
            shapes[f"g{i}.strict"] = ((size,),)
    outputs = {}
    for name, parts in shapes.items():
        edited = []
        for shape in parts:
            arr = draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
            edit = draw(_EDITS) if draw(st.integers(0, 3)) == 2 else "none"  # most outputs pass
            edited.append(_edited(arr, edit, draw(st.integers(0, 2**16))))
        outputs[name] = edited[0] if name.endswith(".strict") else tuple(edited)
    if draw(st.integers(0, 9)) == 5:  # a val_jac that returns no pair
        name = draw(st.sampled_from([n for n in outputs if not n.endswith(".strict")]))
        outputs[name] = outputs[name] + (None,)
    return dim, blocks, outputs


def _counted_problem(dim, blocks, outputs):
    """A ``BenchmarkProblem`` whose oracles return ``outputs`` and count their calls."""
    calls = dict.fromkeys(outputs, 0)

    def oracle(name):
        def call(x):
            calls[name] += 1
            return outputs[name]
        return call

    def function(name, size):
        return DifferentiableFunction(
            eval=lambda x: outputs[name][0], val_jac=oracle(name), output_size=size, name=name
        )

    made = []
    for i, (size, indexed, strict) in enumerate(blocks):
        group = ConstraintGroup(f"g{i}", ConstraintType.INEQUALITY, size, indexed=indexed)
        made.append(ConstraintBlock(
            group=group, function=function(f"g{i}", size),
            strict_function=oracle(f"g{i}.strict") if strict else None,
        ))
    problem = BenchmarkProblem("outputs", dim, function("objective", 1), blocks=made)
    return problem, calls


def _array_bits(arr):
    if arr is None:
        return None
    return type(arr), arr.dtype.str, arr.shape, arr.flags.c_contiguous, arr.tobytes()


def _evaluation_bits(problem, ev):
    """What an evaluation and the slot blocks it stored hold, as comparable bytes."""
    states = [
        (gid, _array_bits(c.violation), _array_bits(c.strict_violation),
         _array_bits(c.observed_indices), c.observed_indices is problem._all_rows.get(gid))
        for gid, c in ev.state.observed_constraints.items()
    ]
    jacobians = [(gid, _array_bits(jac)) for gid, jac in ev.jacobians.items()]
    slot_evaluation, blocks, *_ = problem._slot
    assert slot_evaluation is ev and [gid for gid, *_ in blocks] == list(ev.jacobians)
    for gid, cstate, group, jac in blocks:
        assert cstate is ev.state.observed_constraints[gid] and jac is ev.jacobians[gid]
        assert group is problem.group(gid)
    return (
        type(ev.state.loss), _bits(ev.state.loss), dict(ev.state.misc), states,
        _array_bits(ev.grad_f), jacobians,
    )


def _parent_evaluate_with_gradients(problem, x):
    """``BenchmarkProblem.evaluate_with_gradients`` as it was, every check on every output."""
    if x is not problem.x:
        x = problem._check_point(x)
    obj_values, obj_jac = problem.objective.value_and_jacobian(x)
    observed, jacobians, blocks = {}, {}, []
    for gid, block in problem._block_by_gid.items():
        values, jac = block.function.value_and_jacobian(x)
        strict = None
        if block.strict_function is not None:
            strict = np.asarray(block.strict_function(x), dtype=np.float64)
        try:
            cstate = ConstraintState._trusted(values, strict, problem._all_rows.get(gid))
        except EvaluationError as exc:
            raise EvaluationError(str(exc), group_id=gid) from None
        observed[gid] = cstate
        jacobians[gid] = jac
        blocks.append((gid, cstate, block.group, jac))
    state = CMPState._trusted(float(obj_values[0]), observed)
    for gid, _, _, jac in blocks:
        if not _all_finite(jac):
            raise _jacobian_error(gid)
    ev = Evaluation(state=state, grad_f=obj_jac[0], jacobians=jacobians)
    _store_blocks(problem, ev, blocks)
    return ev


def _outcome(problem, evaluate, x):
    try:
        return "ok", _evaluation_bits(problem, evaluate(x))
    except Exception as exc:  # noqa: BLE001 - the error itself is what is compared
        return "raised", type(exc), str(exc), getattr(exc, "group_id", None)


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(case=_oracle_outputs(), fresh_x=st.booleans())
@example(case=(2, [(2, False, True)], {
    "objective": (np.array([1.0]), np.array([[1.0, 2.0]])),
    "g0": (np.array([1e308, 1e308]), np.array([[1.0, 2.0], [3.0, 4.0]])),  # the sum overflows
    "g0.strict": np.array([np.inf, -np.inf]),
}), fresh_x=False)
@example(case=(2, [(1, False, False)], {
    "objective": (np.array([1.0]), np.array([[1.0, 2.0]])),
    "g0": (np.array([1e308]), np.array([[1e308, 0.0]])),  # finite, but the one sum overflows
}), fresh_x=False)
@example(case=(1, [(1, False, True)], {
    "objective": (np.array([1.0]), np.array([[1.0]])),
    "g0": (np.array([0.5]), np.array([[1.0]])),
    "g0.strict": None,  # a strict oracle that returns None is not a block without one
}), fresh_x=False)
@example(case=(33, [(1, True, False), (33, False, True)], {
    "objective": (np.array([1.0]), np.ones((1, 33))),
    "g0": (np.array([0.5]), np.full((1, 33), 1e308)),
    "g1": (np.zeros(33), np.eye(33)),
    "g1.strict": np.append(np.zeros(32), np.nan),
}), fresh_x=True)
def test_fast_test_agrees_with_every_check(case, fresh_x):
    # the same evaluation bytes or the same error as the path that checked every
    # output, and each oracle called as often: once, unless an earlier error stops it
    dim, blocks, outputs = case
    fast, fast_calls = _counted_problem(dim, blocks, outputs)
    checked, checked_calls = _counted_problem(dim, blocks, outputs)
    x = fast.x.copy() if fresh_x else fast.x
    got = _outcome(fast, fast.evaluate_with_gradients, x)
    expected = _outcome(checked, lambda x: _parent_evaluate_with_gradients(checked, x), checked.x)
    assert got == expected
    assert fast_calls == checked_calls
    assert set(fast_calls.values()) <= ({1} if got[0] == "ok" else {0, 1})


class _ReferenceNuPI(NuPI):
    """NuPI's ``_step`` and ``commit`` as they were before a full step, once
    every entry is seen, kept its buffers: the reference a property compares to."""

    def _step(self, signal, indices, size):
        e = signal
        idx = slice(None) if indices is None else indices
        if self.ema is None:
            prev = e
        else:
            if self.ema.size != size:
                raise ValueError(f"nupi buffer size {self.ema.size} != multiplier size {size}")
            prev = np.where(self.seen[idx], self.ema[idx], e)
        new = self.nu * prev + (1.0 - self.nu) * e
        delta = self.learning_rate * (e + self.kappa_p * (new - prev))
        if self.ema is not None and indices is not None:
            return delta, (new, None, indices)
        ema = np.zeros(size, dtype=np.float64)
        seen = np.zeros(size, dtype=bool)
        ema[idx] = new
        seen[idx] = True
        return delta, (ema, seen, None)

    def commit(self, staged):
        ema, seen, indices = staged
        if indices is None:
            self.ema, self.seen = ema, seen
        else:
            self.ema[indices], self.seen[indices] = ema, True


_NUPI_SIGNAL = st.floats(-1e3, 1e3)


@st.composite
def _nupi_runs(draw):
    """(size, ops): dense and indexed steps (committed, or only previewed) and buffer loads."""
    size = draw(st.integers(1, 6))
    vector = st.lists(_NUPI_SIGNAL, min_size=size, max_size=size)
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["dense", "dense", "indexed", "preview", "load"]))
        if kind == "indexed":
            rows = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
            signal = draw(st.lists(_NUPI_SIGNAL, min_size=len(rows), max_size=len(rows)))
            ops.append((kind, rows, signal))
        elif kind == "load":
            seen = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=size, max_size=size)))
            ops.append((kind, seen, None if seen is None else draw(vector)))
        else:
            ops.append((kind, draw(st.booleans()) if kind == "preview" else None, draw(vector)))
    return size, ops


def _nupi_problem(size):
    problem = ConstrainedMinimizationProblem(1)
    problem.register_group(ConstraintGroup(
        name="g", constraint_type=ConstraintType.INEQUALITY, size=size, indexed=True
    ))
    return problem


def _buffer_bytes(dual):
    return {name: None if value is None else (value.dtype.str, value.tobytes())
            for name, value in dual.buffer_state().items()}


@settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(run=_nupi_runs(), kappa_p=st.sampled_from([0.0, 1.0, 2.5]), nu=st.sampled_from([0.0, 0.9]))
def test_nupi_keeps_the_bits_of_its_reference(run, kappa_p, nu, tmp_path):
    # every delta, buffer and checkpoint byte equals the reference's, whether
    # a full step reads ema itself or rebuilds it behind np.where
    size, ops = run
    problem = _nupi_problem(size)
    duals = [NuPI(0.05, kappa_p=kappa_p, nu=nu), _ReferenceNuPI(0.05, kappa_p=kappa_p, nu=nu)]
    held = [PrimalDualOptimizers(primal=AdamLike(0.1), duals={"g": dual}) for dual in duals]
    for kind, arg, values in ops:
        deltas = []
        for dual in duals:
            if kind == "load":
                state = {"ema": None, "seen": None} if arg is None else {"ema": values, "seen": arg}
                dual.load_buffer_state(state)
                continue
            rows = arg if kind == "indexed" else None
            if kind == "preview" and arg:
                rows = list(range(size))[::-1]  # every entry, addressed by index
            delta, staged = dual.step(np.array(values, dtype=np.float64), rows, size)
            deltas.append(delta.tobytes())
            if kind != "preview":
                dual.commit(staged)
        assert deltas[:1] == deltas[1:]
        assert _buffer_bytes(duals[0]) == _buffer_bytes(duals[1])
        texts = []
        for i, optimizers in enumerate(held):
            checkpoint.save(problem, optimizers, tmp_path / f"{i}.ckpt")
            texts.append((tmp_path / f"{i}.ckpt").read_text())
        assert texts[0] == texts[1]


_ROW_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


@settings(derandomize=True, max_examples=500, database=None, deadline=None)
@given(
    step=st.one_of(st.integers(0, 2**63), st.sampled_from([0, 2**63 - 1, 2**63])),
    values=st.lists(_ROW_FLOATS, min_size=8, max_size=8),
)
def test_trace_row_format_equals_the_joined_fields(step, values):
    # the row's one % call against the join of str(step) and format(v, ".17g") it replaces
    joined = ",".join([str(step)] + [format(float(v), ".17g") for v in values])
    assert cli._ROW % (step, *values) == joined
