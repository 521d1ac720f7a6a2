"""Property tests: private fast paths agree with the numpy expressions they
replace, every CLI invocation ends with a contained exit, a corrupt checkpoint
is rejected without a change, and a resume is bit-exact."""

import contextlib
import io
import json
import struct
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagrangekit import (
    AdamLike,
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
    CMPState,
    ConstrainedMinimizationProblem,
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    _all_finite,
    _as_indices,
    _max_abs,
)
from lagrangekit.multipliers import _check_indices
from lagrangekit.optim import SCHEMES
from lagrangekit.problems import PROBLEM_NAMES, _logistic_loss_grad, two_gaussian_dataset
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


_VIOLATIONS = st.lists(
    st.one_of(
        st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=2 * _SMALL,
)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _VIOLATIONS), min_size=1, max_size=4))
@example([(True, [-0.0]), (False, [-0.0])])
@example([(True, [-1.0, -0.0]), (True, []), (False, [-2.0, 0.0])])
@example([(True, [-1.0] * _SMALL + [3.0]), (False, [-5.0] * _SMALL)])
def test_violation_maxima_equals_numpy(groups):
    problem = ConstrainedMinimizationProblem(1)
    observed = {}
    for i, (inequality, values) in enumerate(groups):
        kind = ConstraintType.INEQUALITY if inequality else ConstraintType.EQUALITY
        problem.register_group(ConstraintGroup(f"g{i}", kind, max(1, len(values))))
        observed[f"g{i}"] = ConstraintState(np.array(values, dtype=np.float64))
    state = CMPState(loss=0.0, observed_constraints=observed)
    got = problem._violation_maxima(state)
    expected = _parent_violation_maxima(problem, state)
    assert [_bits(v) for v in got] == [_bits(v) for v in expected]


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
