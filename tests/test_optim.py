"""Primal/dual optimizers and the four update schemes.

Scheme oracles use the scalar game f = 0, h(x) = x, x0 = 1, mu0 = 1 with
learning rate 0.1 on both sides; each scheme produces a distinct, hand
checkable (x1, mu1) pair. The Adam trajectory values were computed with a
scalar reference implementation of the standard bias-corrected update.
"""

import dataclasses
import re

import numpy as np
import pytest

import lagrangekit as lk
from lagrangekit import (
    AdamLike,
    ConstraintBlock,
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    DifferentiableFunction,
    EvaluationError,
    Formulation,
    GradientAscent,
    GradientDescent,
    Momentum,
    NuPI,
    PrimalDualOptimizers,
    SCHEMES,
    checkpoint,
    cli,
    make_dual_optimizers,
    problem_bilinear_game,
    problem_projection_ball,
    roll,
)
from lagrangekit.problems import BenchmarkProblem

INEQ = ConstraintType.INEQUALITY
ADAM_PAIRED = "adam: m and v must both be present or both absent"
ADAM_STEP_ZERO = "adam: t must be 0 exactly when m and v are absent"


def bilinear_setup(lr=0.1):
    problem = problem_bilinear_game()
    optimizers = PrimalDualOptimizers(
        primal=GradientDescent(lr),
        duals=make_dual_optimizers(problem, lambda: GradientAscent(lr)),
    )
    return problem, optimizers


def descend(optimizer, x, grad):
    """One committed primal update through the optimizer's public step and commit."""
    x_new, staged = optimizer.step(x, grad)
    optimizer.commit(staged)
    return x_new


def ascend(optimizer, multiplier, signal, indices=None):
    """One committed dual update: the optimizer's step and commit around
    ``apply_dual_delta``, which projects and checks the new values."""
    delta, staged = optimizer.step(np.asarray(signal, dtype=np.float64), indices, multiplier.size)
    multiplier.apply_dual_delta(delta, indices)
    optimizer.commit(staged)


def unconstrained_quadratic(x0=1.0):
    # f = x^2 / 2, no constraint groups
    objective = DifferentiableFunction(
        eval=lambda x: np.array([0.5 * x[0] ** 2]),
        val_jac=lambda x: (np.array([0.5 * x[0] ** 2]), np.array([[x[0]]])),
        output_size=1,
        name="quadratic",
    )
    return BenchmarkProblem("quad", 1, objective, feasible_start=np.array([x0]))


class TestGradientDescent:
    def test_single_step_exact(self):
        opt = GradientDescent(0.1)
        x_new, staged = opt.step(np.array([1.0]), np.array([2.0]))
        assert x_new.tolist() == [1.0 - 0.1 * 2.0]
        assert staged is None

    def test_zero_gradient_fixed_point(self):
        opt = GradientDescent(0.5)
        x_new, _ = opt.step(np.array([3.0, -1.0]), np.zeros(2))
        assert x_new.tolist() == [3.0, -1.0]

    def test_learning_rate_validated(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                GradientDescent(bad)

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(EvaluationError):
            GradientDescent(0.1).step(np.array([1.0]), np.array([np.nan]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GradientDescent(0.1).step(np.array([1.0, 2.0]), np.array([1.0]))


class TestMomentum:
    def test_beta_zero_matches_plain_descent_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.normal(size=4)
            mom = Momentum(0.05, beta=0.0)
            gd = GradientDescent(0.05)
            xm, xg = x.copy(), x.copy()
            for _ in range(10):
                grad = np.sin(xm) + 0.1 * xm  # any deterministic field
                xm = descend(mom, xm, grad)
                xg = descend(gd, xg, np.sin(xg) + 0.1 * xg)
            assert xm.tobytes() == xg.tobytes()

    def test_velocity_accumulates(self):
        opt = Momentum(0.1, beta=0.5)
        x = descend(opt, np.array([0.0]), np.array([1.0]))
        assert x.tolist() == [-0.1]  # v = 1
        x = descend(opt, x, np.array([1.0]))
        # v = 0.5*1 + 1 = 1.5, x = -0.1 - 0.15
        assert x.tolist() == [pytest.approx(-0.25)]

    def test_zero_gradient_with_fresh_buffer_is_identity(self):
        opt = Momentum(0.1, beta=0.9)
        x = descend(opt, np.array([2.0, -1.0]), np.zeros(2))
        assert x.tolist() == [2.0, -1.0]

    def test_step_without_commit_leaves_buffers(self):
        opt = Momentum(0.1, beta=0.9)
        descend(opt, np.array([0.0]), np.array([1.0]))
        state_before = {k: v.copy() for k, v in opt.buffer_state().items()}
        opt.step(np.array([0.0]), np.array([5.0]))  # preview only, no commit
        state_after = opt.buffer_state()
        assert state_before["velocity"].tobytes() == state_after["velocity"].tobytes()

    def test_beta_range_validated(self):
        with pytest.raises(ValueError):
            Momentum(0.1, beta=1.0)
        with pytest.raises(ValueError):
            Momentum(0.1, beta=-0.1)


class TestAdamLike:
    def test_three_step_trajectory_matches_scalar_reference(self):
        # f = x^2, grad 2x, lr=0.1, defaults beta1=0.9 beta2=0.999 eps=1e-8
        opt = AdamLike(0.1)
        x = np.array([1.0])
        expected = [0.9000000005, 0.8004122286917928, 0.7015862729460303]
        for want in expected:
            x = descend(opt, x, 2.0 * x)
            assert x[0] == pytest.approx(want, rel=1e-12)

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes |step 1| = lr/(1 + eps/|g|), essentially lr
        opt = AdamLike(0.01)
        x = descend(opt, np.array([5.0]), np.array([123.0]))
        assert x[0] == pytest.approx(5.0 - 0.01, rel=1e-7)

    def test_time_counter_advances_only_on_commit(self):
        opt = AdamLike(0.1)
        opt.step(np.array([1.0]), np.array([1.0]))
        assert opt.buffer_state()["t"] == 0
        descend(opt, np.array([1.0]), np.array([1.0]))
        assert opt.buffer_state()["t"] == 1

    @pytest.mark.parametrize("t", [2.7, -1])
    def test_load_rejects_step_count_that_is_not_a_nonnegative_integer(self, t):
        opt = AdamLike(0.1)
        descend(opt, np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="step count"):
            opt.load_buffer_state({"m": None, "v": None, "t": t})
        assert opt.buffer_state()["t"] == 1
        assert opt.m is not None

    @pytest.mark.parametrize("t", [True, False, np.bool_(True)], ids=repr)
    def test_load_rejects_a_boolean_step_count(self, t):
        # bool is an int subclass: True must not load as step count 1
        opt = AdamLike(0.1)
        descend(opt, np.array([1.0]), np.array([1.0]))
        m, v = opt.m.copy(), opt.v.copy()
        with pytest.raises(ValueError) as info:
            opt.load_buffer_state({"m": [0.5], "v": [0.25], "t": t})
        assert str(info.value) == f"adam step count must be an integer >= 0, got {t!r}"
        assert info.value.buffer == "t"
        assert opt.buffer_state()["t"] == 1
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize(
        "state, message",
        [
            ({"m": [1.0, 2.0], "v": None, "t": 3}, ADAM_PAIRED),
            ({"m": None, "v": [1.0, 2.0], "t": 3}, ADAM_PAIRED),
            ({"m": None, "v": None, "t": 7}, f"{ADAM_STEP_ZERO}, got 7"),
            ({"m": [1.0, 2.0], "v": [1.0, 2.0], "t": 0}, f"{ADAM_STEP_ZERO}, got 0"),
            ({"m": [1.0, 2.0], "v": [1.0], "t": 1}, "adam: m and v shapes differ"),
        ],
        ids=["m-without-v", "v-without-m", "no-moments-at-step-7", "moments-at-step-0",
             "m-and-v-lengths-differ"],
    )
    def test_load_rejects_a_state_no_save_produces(self, state, message):
        # m without v used to load, and the next step read v as zeros; m and v of
        # different lengths loaded too, and the next step raised
        opt = AdamLike(0.1)
        descend(opt, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        before = {name: np.asarray(value).tobytes() for name, value in opt.buffer_state().items()}
        with pytest.raises(ValueError) as info:
            opt.load_buffer_state(state)
        assert str(info.value) == message
        after = {name: np.asarray(value).tobytes() for name, value in opt.buffer_state().items()}
        assert after == before

    def test_hyperparameters_validated(self):
        with pytest.raises(ValueError):
            AdamLike(0.1, beta1=1.0)
        with pytest.raises(ValueError):
            AdamLike(0.1, beta2=-0.1)
        with pytest.raises(ValueError):
            AdamLike(0.1, eps=0.0)
        for eps in (np.inf, np.nan):
            with pytest.raises(ValueError):
                AdamLike(0.1, eps=eps)


class TestGradientAscent:
    def test_delta_is_rate_times_signal(self):
        m = lk.Multiplier(1, INEQ, values=[1.0])
        ascend(GradientAscent(0.1), m, np.array([0.5]))
        assert m.values.tolist() == [1.05]

    def test_projection_applied_after_delta(self):
        m = lk.Multiplier(1, INEQ, values=[0.5])
        ascend(GradientAscent(1.0), m, np.array([-2.0]))
        assert m.values.tolist() == [0.0]

    def test_signal_length_validated(self):
        # the optimizer rejects a signal of the wrong length, the multiplier a delta
        m = lk.Multiplier(2, INEQ)
        with pytest.raises(ValueError, match=r"dual signal shape \(1,\) != \(2,\)"):
            ascend(GradientAscent(0.1), m, np.array([1.0]))
        with pytest.raises(ValueError, match="delta length"):
            m.apply_dual_delta(np.array([0.1]))

    def test_non_finite_signal_rejected(self):
        # the multiplier rejects the non-finite value the delta would leave
        m = lk.Multiplier(1, INEQ)
        with pytest.raises(EvaluationError):
            ascend(GradientAscent(0.1), m, np.array([np.inf]))
        assert m.values.tolist() == [0.0]


@pytest.mark.parametrize("make", [lambda: GradientAscent(0.1), lambda: NuPI(0.1)],
                         ids=["gradient_ascent", "nupi"])
class TestDualStepChecks:
    """The public ``DualOptimizer.step`` checks its signal; the rolls call ``_step``."""

    def test_signal_longer_than_indices(self, make):
        with pytest.raises(ValueError, match=r"dual signal shape \(3,\) != \(2,\)"):
            make().step(np.ones(3), [0, 1], 10)

    def test_signal_shorter_than_size(self, make):
        with pytest.raises(ValueError, match=r"dual signal shape \(2,\) != \(3,\)"):
            make().step(np.ones(2), None, 3)

    def test_list_signal_is_converted(self, make):
        delta, _ = make().step([1.0, 2.0], [4, 1], 10)
        assert delta.tolist() == make().step(np.array([1.0, 2.0]), [4, 1], 10)[0].tolist()
        assert delta.tolist() == [0.1, 0.2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signal(self, make, bad):
        with pytest.raises(EvaluationError, match="non-finite dual signal"):
            make().step(np.array([1.0, bad]), None, 2)


class TestNuPI:
    def test_kappa_zero_bitwise_matches_gradient_ascent(self):
        rng = np.random.default_rng(7)
        for nu in (0.0, 0.5, 0.9):
            for _ in range(34):
                signals = rng.normal(size=(15, 3))
                m_pi = lk.Multiplier(3, INEQ)
                m_ga = lk.Multiplier(3, INEQ)
                pi = NuPI(0.05, kappa_p=0.0, nu=nu)
                ga = GradientAscent(0.05)
                for e in signals:
                    ascend(pi, m_pi, e)
                    ascend(ga, m_ga, e)
                    assert m_pi.values.tobytes() == m_ga.values.tobytes()

    def test_hand_recursion(self):
        # kappa_p=1, nu=0.5, signals 1, 2, -1; the EMA seeds at the first
        # observed signal so the first proportional correction vanishes:
        #   e=1:  ema 1 -> 1,     delta = lr*(1 + (1 - 1))      = lr*1
        #   e=2:  ema 1 -> 1.5,   delta = lr*(2 + (1.5 - 1))    = lr*2.5
        #   e=-1: ema 1.5 -> .25, delta = lr*(-1 + (.25 - 1.5)) = lr*(-2.25)
        m = lk.Multiplier(1, ConstraintType.EQUALITY)
        opt = NuPI(0.1, kappa_p=1.0, nu=0.5)
        for e in (1.0, 2.0, -1.0):
            ascend(opt, m, np.array([e]))
        assert m.values[0] == pytest.approx(0.1 * (1.0 + 2.5 - 2.25), rel=1e-15)

    def test_partial_updates_freeze_unaddressed_buffers(self):
        opt = NuPI(0.1, kappa_p=1.0, nu=0.5)
        m = lk.IndexedMultiplier(3, INEQ)
        ascend(opt, m, np.array([1.0]), indices=np.array([0]))
        state = opt.buffer_state()
        assert state["seen"].tolist() == [True, False, False]
        assert state["ema"][0] == 1.0
        # entry 2 first observed now: seeds at its own signal
        ascend(opt, m, np.array([4.0]), indices=np.array([2]))
        state = opt.buffer_state()
        assert state["seen"].tolist() == [True, False, True]
        assert state["ema"].tolist() == [1.0, 0.0, 4.0]

    def test_buffers_advance_only_on_commit(self):
        opt = NuPI(0.1)
        opt.step(np.array([1.0, 2.0]), None, 2)
        assert opt.buffer_state()["ema"] is None or not opt.buffer_state()["seen"].any()

    def test_hyperparameters_validated(self):
        with pytest.raises(ValueError):
            NuPI(0.1, kappa_p=-1.0)
        with pytest.raises(ValueError):
            NuPI(0.1, nu=1.0)
        for kappa_p in (np.inf, np.nan):
            with pytest.raises(ValueError):
                NuPI(0.1, kappa_p=kappa_p)


@pytest.mark.parametrize(
    "make, state, buffer",
    [
        (lambda: Momentum(0.1), {"velocity": [0.0, np.nan]}, "velocity"),
        (lambda: AdamLike(0.1), {"m": [np.inf, 0.0], "v": [0.0, 0.0], "t": 1}, "m"),
        (lambda: AdamLike(0.1), {"m": [0.0, 0.0], "v": [np.nan, 0.0], "t": 1}, "v"),
        (lambda: AdamLike(0.1), {"m": [0.0, 0.0], "v": [-np.inf, 0.0], "t": 1}, "v"),
        (lambda: AdamLike(0.1), {"m": [0.0, 0.0], "v": [-1.0, 0.0], "t": 1}, "v"),
        (lambda: NuPI(0.1), {"ema": [-np.inf, 0.0], "seen": [1, 1]}, "ema"),
        (lambda: NuPI(0.1), {"ema": [0.0, 1.0], "seen": [1, 5]}, "seen"),
        (lambda: NuPI(0.1), {"ema": [0.0, 1.0], "seen": [0.5, 1.0]}, "seen"),
    ],
    ids=[
        "velocity-nan", "adam-m-inf", "adam-v-nan", "adam-v-minus-inf", "adam-v-negative",
        "ema-inf", "seen-5", "seen-half",
    ],
)
def test_load_buffer_state_rejects_non_finite_and_non_flag_entries(make, state, buffer):
    # a rejected load names the buffer and leaves the optimizer's buffers as they were
    optimizer = make()
    before = optimizer.buffer_state()
    with pytest.raises(ValueError, match=f"^{buffer} ") as info:
        optimizer.load_buffer_state(state)
    assert info.value.buffer == buffer
    assert optimizer.buffer_state() == before


@pytest.mark.parametrize(
    "make, loaded, buffer",
    [
        (lambda: Momentum(0.1), {"velocity": [0.5, 0.25]}, "velocity"),
        (lambda: AdamLike(0.1), {"m": [0.5, 0.25], "v": [0.25, 0.5], "t": 3}, "m"),
        (lambda: AdamLike(0.1), {"m": [0.5, 0.25], "v": [0.25, 0.5], "t": 3}, "v"),
        (lambda: NuPI(0.1), {"ema": [0.5, 0.25], "seen": [True, False]}, "ema"),
    ],
    ids=["velocity", "adam-m", "adam-v", "nupi-ema"],
)
@pytest.mark.parametrize("boolean", [[True, False], np.array([False, True])], ids=["list", "array"])
def test_load_buffer_state_rejects_a_boolean_vector(make, loaded, buffer, boolean):
    # a boolean vector used to load as 0/1 floats; the buffers stay as loaded
    optimizer = make()
    optimizer.load_buffer_state(loaded)
    before = {name: np.asarray(value).tobytes() for name, value in optimizer.buffer_state().items()}
    with pytest.raises(ValueError) as info:
        optimizer.load_buffer_state({**loaded, buffer: boolean})
    assert str(info.value) == f"{buffer} must be a vector of numbers, got booleans"
    assert info.value.buffer == buffer
    after = {name: np.asarray(value).tobytes() for name, value in optimizer.buffer_state().items()}
    assert after == before


def test_load_buffer_state_takes_an_infinite_adam_second_moment():
    # a finite gradient entry above ~1.3e154 squares to inf, so a step commits v = inf
    optimizer = AdamLike(0.1)
    with np.errstate(over="ignore"):
        x_new, staged = optimizer.step(np.array([1.0, 2.0]), np.array([1e160, 1.0]))
    assert np.isfinite(x_new).all() and staged[1][0] == np.inf
    optimizer.commit(staged)
    other = AdamLike(0.1)
    other.load_buffer_state(optimizer.buffer_state())
    assert other.v.tolist() == [np.inf, optimizer.v[1]]


@pytest.mark.parametrize(
    "optimizer, state, message",
    [
        (Momentum(0.1), {"v": None}, "momentum: expected buffers ['velocity'], got ['v']"),
        (NuPI(0.1), {"ema": None}, "nupi: expected buffers ['ema', 'seen'], got ['ema']"),
        (GradientDescent(0.1), {"velocity": None}, "gd: expected buffers [], got ['velocity']"),
    ],
    ids=["momentum", "nupi", "gd"],
)
def test_load_buffer_state_rejects_other_keys(optimizer, state, message):
    before = optimizer.buffer_state()
    with pytest.raises(ValueError) as info:
        optimizer.load_buffer_state(state)
    assert str(info.value) == message
    assert optimizer.buffer_state() == before


def test_nupi_buffer_of_another_size_rejected():
    dual = NuPI(0.1)
    dual.load_buffer_state({"ema": np.zeros(3), "seen": np.zeros(3, dtype=bool)})
    with pytest.raises(ValueError) as info:
        dual.step(np.array([0.5, 0.5]), None, 2)
    assert str(info.value) == "nupi buffer size 3 != multiplier size 2"
    assert dual.ema.tolist() == [0.0] * 3


# (optimizer, constructor values, values assigned after construction)
REASSIGNED = [
    (GradientDescent, {"learning_rate": 0.3}, {"learning_rate": 0.05}),
    (Momentum, {"learning_rate": 0.3, "beta": 0.5}, {"learning_rate": 0.05, "beta": 0.9}),
    (
        AdamLike,
        {"learning_rate": 0.3, "beta1": 0.5, "beta2": 0.9, "eps": 1e-3},
        {"learning_rate": 0.05, "beta1": 0.8, "beta2": 0.99, "eps": 1e-8},
    ),
    (GradientAscent, {"learning_rate": 0.3}, {"learning_rate": 0.05}),
    (NuPI, {"learning_rate": 0.3, "kappa_p": 2.0, "nu": 0.5},
     {"learning_rate": 0.05, "kappa_p": 0.5, "nu": 0.9}),
]


@pytest.mark.parametrize("cls, first, second", REASSIGNED, ids=[c.kind for c, *_ in REASSIGNED])
def test_reassigned_coefficients_step_like_a_fresh_optimizer(cls, first, second):
    # the steps read each coefficient's 0-d twin, which an assignment refreshes
    reassigned = cls(**first)
    for name, value in second.items():
        setattr(reassigned, name, value)
        assert type(getattr(reassigned, name)) is float and getattr(reassigned, name) == value
    fresh = cls(**second)
    grads = np.random.default_rng(3).standard_normal((4, 3))
    x = np.array([0.5, -1.0, 2.0])
    steps = {}
    for optimizer in (reassigned, fresh):
        out = []
        for grad in grads:
            if isinstance(optimizer, lk.DualOptimizer):
                delta, staged = optimizer.step(grad, None, 3)
            else:
                delta, staged = optimizer.step(x, grad)
            optimizer.commit(staged)
            out.append(delta.tobytes())
        out.append(sorted((k, None if v is None else np.asarray(v).tobytes())
                          for k, v in optimizer.buffer_state().items()))
        steps[optimizer is fresh] = out
    assert steps[False] == steps[True]


COEFFICIENTS = [(cls, name) for cls, first, _ in REASSIGNED for name in first] + [
    (lk.PenaltyCoefficient, "penalty")
]


@pytest.mark.parametrize("value", [True, np.True_, "0.5"], ids=["bool", "np.bool_", "str"])
@pytest.mark.parametrize(
    "cls, name", COEFFICIENTS, ids=[f"{getattr(c, 'kind', 'penalty')}-{n}" for c, n in COEFFICIENTS]
)
def test_a_coefficient_is_a_real_number(cls, name, value):
    message = f"{name} must be a real number, got {value!r}"
    if cls is lk.PenaltyCoefficient:
        with pytest.raises(ValueError, match=re.escape(message)):
            lk.PenaltyCoefficient(value)
        group = ConstraintGroup("g", INEQ, 2, Formulation.AUGMENTED_LAGRANGIAN, penalty=1.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            group.penalty = value
        assert group.penalty.value == 1.0
        for accepted in (2, np.float32(0.5), np.int64(3)):
            assert lk.PenaltyCoefficient(accepted).value == float(accepted)
        return
    first = dict(next(f for c, f, _ in REASSIGNED if c is cls))
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**{**first, name: value})
    optimizer = cls(**first)
    with pytest.raises(ValueError, match=re.escape(message)):
        setattr(optimizer, name, value)
    assert getattr(optimizer, name) == first[name]
    # ints and numpy floats in range are still taken, as floats
    for accepted in (0 if name in ("beta", "beta1", "beta2", "nu") else 1, np.float32(0.5)):
        optimizer = cls(**{**first, name: accepted})
        assert type(getattr(optimizer, name)) is float
        assert getattr(optimizer, name) == float(accepted)


def _box_problem(size):
    """min ||x||^2 subject to x_i <= 1: one inequality group of ``size`` entries."""
    box = DifferentiableFunction(
        eval=lambda x: x - 1.0, val_jac=lambda x: (x - 1.0, np.eye(size)), output_size=size
    )
    objective = DifferentiableFunction(
        eval=lambda x: np.array([x @ x]),
        val_jac=lambda x: (np.array([x @ x]), 2.0 * x[None, :]), output_size=1,
    )
    group = ConstraintGroup("box", INEQ, size)
    return BenchmarkProblem("box", size, objective, blocks=(ConstraintBlock(group, box),))


def _assembled_at(values):
    problem = _box_problem(len(values))
    ev = problem.evaluate_with_gradients(problem.x)
    return lk.assemble(problem, ev, multiplier_values={"box": values})


MULTIPLIER_ENTRIES = {
    "initial_multiplier": lambda values: ConstraintGroup(
        "g", INEQ, len(values), initial_multiplier=values
    ),
    "load_values": lambda values: ConstraintGroup(
        "g", INEQ, len(values)
    ).multiplier.load_values(values),
    "assemble": _assembled_at,
    "kkt_residual": lambda values: lk.kkt_residual(
        _box_problem(len(values)), np.zeros(len(values)), lam=values
    ),
    "PenaltyCoefficient": lk.PenaltyCoefficient,
}


@pytest.mark.parametrize(
    "value", [["0.5"], [True], np.array([True]), [1.0, True]],
    ids=["str", "bool", "bool-array", "float-and-bool"],
)
@pytest.mark.parametrize("entry", list(MULTIPLIER_ENTRIES))
def test_a_multiplier_value_is_a_real_number(entry, value):
    # numpy reads [1.0, True] as float64, so a sequence is judged entry by entry
    with pytest.raises(ValueError, match=re.escape(f"must be a real number, got {value!r}")):
        MULTIPLIER_ENTRIES[entry](value)
    # ints, numpy floats and int arrays are still taken
    for accepted in ([1] * len(value), [np.float32(0.5)] * len(value), np.ones(len(value), int)):
        MULTIPLIER_ENTRIES[entry](accepted)


class TestMakeDualOptimizers:
    def test_one_instance_per_multiplier_group(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        duals = make_dual_optimizers(problem, lambda: GradientAscent(0.1))
        assert set(duals) == {"ball"}
        assert isinstance(duals["ball"], GradientAscent)

    def test_quadratic_penalty_groups_get_no_optimizer(self):
        problem = problem_projection_ball(
            np.array([3.0, 4.0]), formulation="quadratic_penalty"
        )
        assert make_dual_optimizers(problem, lambda: GradientAscent(0.1)) == {}

    def test_distinct_instances(self):
        problem = unconstrained_quadratic()
        assert make_dual_optimizers(problem, lambda: GradientAscent(0.1)) == {}


class TestSchemes:
    def test_scheme_list_is_stable(self):
        assert SCHEMES == ("simultaneous", "alt-pd", "alt-dp", "extragradient")

    def test_simultaneous_bilinear_step(self):
        problem, optimizers = bilinear_setup()
        out = roll(problem, optimizers, scheme="simultaneous")
        assert problem.x.tolist() == [1.0 - 0.1 * 1.0]
        assert problem.group("level").multiplier.values.tolist() == [1.0 + 0.1 * 1.0]
        assert out.loss == 0.0
        assert out.primal_lagrangian == 1.0  # mu * h = 1 * 1
        assert optimizers.step == 1

    def test_alternating_primal_dual_reevaluates(self):
        problem, optimizers = bilinear_setup()
        roll(problem, optimizers, scheme="alt-pd")
        assert problem.x.tolist() == [0.9]
        # dual sees h(x_{t+1}) = 0.9
        assert problem.group("level").multiplier.values.tolist() == [1.09]

    def test_alternating_dual_primal_previews_multiplier(self):
        problem, optimizers = bilinear_setup()
        roll(problem, optimizers, scheme="alt-dp")
        # dual first: mu' = 1.1; primal gradient mu' = 1.1
        assert problem.x.tolist() == [1.0 - 0.1 * 1.1]
        assert problem.group("level").multiplier.values.tolist() == [1.1]

    def test_extragradient_bilinear_step(self):
        problem, optimizers = bilinear_setup()
        roll(problem, optimizers, scheme="extragradient")
        # preview (0.9, 1.1); commit from (1, 1) with gradients there
        assert problem.x.tolist() == [1.0 - 0.1 * 1.1]
        assert problem.group("level").multiplier.values.tolist() == [1.0 + 0.1 * 0.9]

    def test_extragradient_contracts_where_simultaneous_spirals(self):
        # \|(x, mu)\| must shrink under extragradient and grow under
        # simultaneous updates on the bilinear game
        def radius(problem):
            return np.hypot(problem.x[0], problem.group("level").multiplier.values[0])

        p_sim, o_sim = bilinear_setup()
        p_eg, o_eg = bilinear_setup()
        r0 = radius(p_sim)
        for _ in range(50):
            roll(p_sim, o_sim, scheme="simultaneous")
            roll(p_eg, o_eg, scheme="extragradient")
        assert radius(p_sim) > r0
        assert radius(p_eg) < r0

    def test_unconstrained_simultaneous_is_plain_descent(self):
        problem = unconstrained_quadratic(x0=1.0)
        optimizers = PrimalDualOptimizers(primal=GradientDescent(0.1), duals={})
        roll(problem, optimizers, scheme="simultaneous")
        assert problem.x.tolist() == [1.0 - 0.1 * 1.0]

    def test_extragradient_pure_minimization(self):
        problem = unconstrained_quadratic(x0=1.0)
        optimizers = PrimalDualOptimizers(primal=GradientDescent(0.1), duals={})
        roll(problem, optimizers, scheme="extragradient")
        # preview x_hat = 0.9; commit x1 = 1 - 0.1 * grad(0.9) = 0.91
        assert problem.x.tolist() == [0.91]

    def test_saddle_point_is_fixed_for_every_scheme(self):
        for scheme in SCHEMES:
            problem, optimizers = bilinear_setup()
            problem.set_x(np.array([0.0]))
            problem.group("level").multiplier.load_values([0.0])
            roll(problem, optimizers, scheme=scheme)
            assert problem.x.tolist() == [0.0]
            assert problem.group("level").multiplier.values.tolist() == [0.0]

    def test_clipped_preview_multiplier_reaches_primal(self):
        # alt-dp with a feasible start: the previewed inequality multiplier
        # would go negative, gets clipped to 0, and the primal step must see
        # the clipped value (a pure descent step on f)
        problem = problem_projection_ball(np.array([0.25, 0.0]))
        problem.group("ball").multiplier.load_values([0.05])
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.1),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(1.0)),
        )
        roll(problem, optimizers, scheme="alt-dp")
        # at x=0: g = -1, preview lam' = max(0, 0.05 - 1) = 0
        assert problem.group("ball").multiplier.values.tolist() == [0.0]
        # grad f at 0 = 2(0 - a) = (-0.5, 0); lam' contributes nothing
        assert problem.x.tolist() == [0.05, 0.0]

    @pytest.mark.parametrize("dual", [GradientAscent, NuPI])
    @pytest.mark.parametrize("group_kind", ["dense", "indexed"])
    def test_direct_steps_match_simultaneous_roll(self, group_kind, dual):
        # assemble, the optimizers' step and commit, and apply_dual_delta on
        # one copy must reproduce a simultaneous roll on an identical copy
        # bit for bit; the indexed problem observes half of its multiplier
        # per evaluation
        def setup():
            if group_kind == "dense":
                problem = problem_projection_ball(np.array([3.0, 4.0]))
            else:
                problem = SubsetBoxProblem()
            optimizers = PrimalDualOptimizers(
                primal=Momentum(0.05, beta=0.9),
                duals=make_dual_optimizers(problem, lambda: dual(0.1)),
            )
            return problem, optimizers

        def snapshot(problem, optimizers):
            state = [problem.x.tobytes()]
            for group in problem.groups.values():
                state.append(group.multiplier.values.tobytes())
                if group_kind == "indexed":
                    state.append(group.multiplier.update_count.tobytes())
            for optimizer in (optimizers.primal, *optimizers.duals.values()):
                for name, buffer in sorted(optimizer.buffer_state().items()):
                    state.append((name, np.asarray(buffer).tobytes()))
            return state

        rolled, rolled_opt = setup()
        direct, direct_opt = setup()
        for _ in range(3):
            roll(rolled, rolled_opt, scheme="simultaneous")
            asm = lk.assemble(direct, direct.evaluate_with_gradients(direct.x))
            x_new = descend(direct_opt.primal, direct.x, asm.gradient)
            for gid, signal in asm.dual_signals.items():
                ascend(
                    direct_opt.duals[gid], direct.group(gid).multiplier, signal,
                    asm.observed_indices[gid],
                )
            direct.set_x(x_new)
            assert snapshot(direct, direct_opt) == snapshot(rolled, rolled_opt)

    def test_subclasses_implementing_only_private_step_roll_like_builtins(self):
        # _step is the one extension point: the rolls call it, and step checks, then calls it
        class PlainDescent(lk.PrimalOptimizer):
            def _step(self, x, grad):
                return x - self.learning_rate * grad, None

        class PlainAscent(lk.DualOptimizer):
            def _step(self, signal, indices, size):
                return self.learning_rate * signal, None

        def trajectory(primal, dual):
            problem = SubsetBoxProblem()
            optimizers = PrimalDualOptimizers(
                primal=primal, duals=make_dual_optimizers(problem, dual)
            )
            for scheme in SCHEMES:
                roll(problem, optimizers, scheme=scheme)
            mult = problem.group("box").multiplier
            return problem.x.tobytes(), mult.values.tobytes(), mult.update_count.tobytes()

        custom = trajectory(PlainDescent(0.1), lambda: PlainAscent(0.2))
        assert custom == trajectory(GradientDescent(0.1), lambda: GradientAscent(0.2))
        x, grad = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        assert PlainDescent(0.1).step(x, grad)[0].tobytes() == (x - 0.1 * grad).tobytes()
        with pytest.raises(NotImplementedError):
            lk.PrimalOptimizer(0.1).step(np.zeros(1), np.zeros(1))
        with pytest.raises(NotImplementedError):
            lk.DualOptimizer(0.1).step(np.zeros(1), None, 1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_a_subclass_overriding_only_step_is_not_rolled(self, side, scheme):
        # step is the checked public call, not an extension point: a roll never calls it
        class StepDescent(lk.PrimalOptimizer):
            def step(self, x, grad):
                return x - self.learning_rate * grad, None

        class StepAscent(lk.DualOptimizer):
            def step(self, signal, indices, size):
                return self.learning_rate * signal, None

        problem = SubsetBoxProblem()
        primal = StepDescent(0.1) if side == "primal" else GradientDescent(0.1)
        dual = StepAscent if side == "dual" else GradientAscent
        optimizers = PrimalDualOptimizers(
            primal=primal, duals=make_dual_optimizers(problem, lambda: dual(0.2))
        )
        mult = problem.group("box").multiplier

        def state():
            return [problem.x.tobytes(), mult.values.tobytes(), mult.update_count.tobytes(),
                    optimizers.step]

        before = state()
        with pytest.raises(NotImplementedError):
            roll(problem, optimizers, scheme=scheme)
        assert state() == before

    def test_unknown_scheme_rejected_with_valid_names(self):
        problem, optimizers = bilinear_setup()
        with pytest.raises(ValueError) as err:
            roll(problem, optimizers, scheme="newton")
        for name in SCHEMES:
            assert name in str(err.value)

    def test_step_counter_counts_rolls(self):
        problem, optimizers = bilinear_setup()
        for expected in (1, 2, 3):
            roll(problem, optimizers)
            assert optimizers.step == expected


class TestProjectionSafety:
    def test_inequality_multipliers_never_negative(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            problem = problem_projection_ball(rng.normal(size=3) * 3.0)
            optimizers = PrimalDualOptimizers(
                primal=GradientDescent(float(rng.uniform(0.01, 0.5))),
                duals=make_dual_optimizers(
                    problem, lambda: GradientAscent(float(rng.uniform(0.01, 2.0)))
                ),
            )
            scheme = SCHEMES[int(rng.integers(len(SCHEMES)))]
            for _ in range(5):
                roll(problem, optimizers, scheme=scheme)
                assert problem.group("ball").multiplier.values.min() >= 0.0


class TestRollAtomicity:
    @staticmethod
    def trap_problem():
        # constraint evaluation blows up once x[0] drops below 0.95, so any
        # scheme that re-evaluates after the primal step fails mid-roll
        objective = DifferentiableFunction(
            eval=lambda x: np.array([0.5 * x[0] ** 2]),
            val_jac=lambda x: (np.array([0.5 * x[0] ** 2]), np.array([[x[0]]])),
            output_size=1,
        )
        trap = DifferentiableFunction(
            eval=lambda x: np.array([np.inf if x[0] < 0.95 else x[0]]),
            val_jac=lambda x: (np.array([np.inf if x[0] < 0.95 else x[0]]), np.ones((1, 1))),
            output_size=1,
        )
        block = ConstraintBlock(
            group=ConstraintGroup(
                name="trap", constraint_type=ConstraintType.EQUALITY, size=1
            ),
            function=trap,
        )
        return BenchmarkProblem(
            "trap", 1, objective, blocks=(block,), feasible_start=np.array([1.0])
        )

    def test_failed_roll_leaves_state_untouched(self):
        problem = self.trap_problem()
        optimizers = PrimalDualOptimizers(
            primal=Momentum(0.2, beta=0.9),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.1)),
        )
        # a successful first roll to populate buffers would already trip the
        # trap, so snapshot the fresh state instead
        x_before = problem.x.copy()
        mult_before = problem.group("trap").multiplier.values.copy()
        with pytest.raises(EvaluationError):
            roll(problem, optimizers, scheme="alt-pd")
        assert problem.x.tobytes() == x_before.tobytes()
        assert (
            problem.group("trap").multiplier.values.tobytes()
            == mult_before.tobytes()
        )
        assert optimizers.step == 0
        assert optimizers.primal.buffer_state()["velocity"] is None

    # every fault site of one roll, after two clean rolls have filled the
    # buffers; clean oracle values are constants, so every scheme reaches
    # the faulty evaluation with the same multipliers
    CLEAN = {
        "loss": 1.0,
        "grad_f": [0.1, -0.1],
        "ineq": [-0.5],
        "ineq_strict": [-0.4],
        "ineq_jac": [[0.0, 1.0]],
        "eq": [0.0],
        "eq_jac": [[1.0, 0.0]],
        "al": [-0.5, -0.5, -0.5],
        "al_jac": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    }
    # site -> (oracle overrides, group_id the raised EvaluationError carries,
    # a word of its message naming what was found non-finite)
    FAULTS = {
        "loss": ({"loss": np.nan}, None, "loss"),
        "violation": ({"eq": [np.inf]}, "eq", "violation"),
        "strict_violation": ({"ineq_strict": [np.nan]}, "ineq", "strict violation"),
        "grad_f": ({"grad_f": [np.nan, 0.0]}, None, "objective gradient"),
        "jacobian": ({"eq_jac": [[np.inf, 0.0]]}, "eq", "Jacobian"),
        # c * v = 1e10 * -1e300 overflows; the projection would clamp -inf to 0
        "al_signal_overflow": ({"al": [-0.5, -1e300, -0.5]}, "al", "dual signal"),
        # grad_f + 1.0 * J_eq with both finite overflows
        "gradient_overflow": (
            {"grad_f": [1e308, 0.0], "eq_jac": [[1e308, 0.0]]}, None, "gradient"
        ),
        # the gradient is finite, x - 2.0 * velocity is not
        "x_new_overflow": ({"grad_f": [1e308, 0.0]}, None, "non-finite x"),
        # the ineq multiplier is 0, so the primal side stays finite
        "multiplier_overflow": (
            {"ineq": [1e308], "ineq_strict": [1e308]}, None, "multiplier values"
        ),
    }

    @classmethod
    def fault_problem(cls, parts):
        def oracle(key, size):
            return DifferentiableFunction(
                eval=lambda x: np.array(parts[key], dtype=np.float64),
                val_jac=lambda x: (np.array(parts[key]), np.array(parts[key + "_jac"])),
                output_size=size,
                name=key,
            )

        objective = DifferentiableFunction(
            eval=lambda x: np.array([parts["loss"]]),
            val_jac=lambda x: (np.array([parts["loss"]]), np.array([parts["grad_f"]])),
            output_size=1,
        )
        blocks = (
            ConstraintBlock(
                group=ConstraintGroup(
                    name="ineq", constraint_type=INEQ, size=1, initial_multiplier=[1.0]
                ),
                function=oracle("ineq", 1),
                strict_function=lambda x: np.array(parts["ineq_strict"]),
            ),
            ConstraintBlock(
                group=ConstraintGroup(
                    name="eq",
                    constraint_type=ConstraintType.EQUALITY,
                    size=1,
                    initial_multiplier=[1.0],
                ),
                function=oracle("eq", 1),
            ),
            ConstraintBlock(
                group=ConstraintGroup(
                    name="al",
                    constraint_type=INEQ,
                    size=3,
                    formulation=lk.Formulation.AUGMENTED_LAGRANGIAN,
                    penalty=1e10,
                    indexed=True,
                ),
                function=oracle("al", 3),
            ),
        )
        return BenchmarkProblem("faults", 2, objective, blocks=blocks)

    @staticmethod
    def snapshot(problem, optimizers):
        state = [problem.x.tobytes(), optimizers.step]
        for gid, group in problem.groups.items():
            state.append(group.multiplier.values.tobytes())
            if gid == "al":
                state.append(group.multiplier.update_count.tobytes())
        for opt in [optimizers.primal, *optimizers.duals.values()]:
            for name, buffer in sorted(opt.buffer_state().items()):
                state.append((name, np.asarray(buffer).tobytes()))
        return state

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("site", sorted(FAULTS))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fault_leaves_state_untouched(self, scheme, site):
        parts = dict(self.CLEAN)
        problem = self.fault_problem(parts)
        optimizers = PrimalDualOptimizers(
            primal=Momentum(2.0, beta=0.9),
            duals=make_dual_optimizers(problem, lambda: NuPI(2.0)),
        )
        for _ in range(2):
            roll(problem, optimizers, scheme=scheme)
        before = self.snapshot(problem, optimizers)
        overrides, group_id, what = self.FAULTS[site]
        parts.update(overrides)
        with pytest.raises(EvaluationError, match=what) as info:
            roll(problem, optimizers, scheme=scheme)
        assert info.value.group_id == group_id
        assert self.snapshot(problem, optimizers) == before

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_non_finite_jacobian_raises_in_the_problems_evaluation(self, scheme):
        parts = dict(self.CLEAN)
        problem = self.fault_problem(parts)
        optimizers = PrimalDualOptimizers(
            primal=Momentum(2.0, beta=0.9),
            duals=make_dual_optimizers(problem, lambda: NuPI(2.0)),
        )
        for _ in range(2):
            roll(problem, optimizers, scheme=scheme)
        before = self.snapshot(problem, optimizers)
        parts["eq_jac"] = [[np.inf, 0.0]]
        raised = []

        def evaluate(x):
            try:
                return problem.evaluate_with_gradients(x)
            except EvaluationError as exc:
                raised.append(exc)
                raise

        with pytest.raises(EvaluationError) as info:
            roll(problem, optimizers, scheme=scheme, evaluate=evaluate)
        assert str(info.value) == "non-finite Jacobian for group 'eq'"
        assert info.value.group_id == "eq"
        assert raised == [info.value]  # the evaluation raised it, not a check in the roll
        assert self.snapshot(problem, optimizers) == before

    @pytest.mark.parametrize(
        "earlier, group_id, message",
        [
            ({"loss": np.nan}, None, "non-finite loss nan"),
            ({"al": [-0.5, np.inf, -0.5]}, "al", "non-finite constraint violation"),
            ({"ineq_strict": [np.nan]}, "ineq", "non-finite strict violation"),
        ],
        ids=["loss", "later-violation", "strict-violation"],
    )
    def test_state_errors_come_before_a_jacobian_error(self, earlier, group_id, message):
        # the first group's Jacobian is non-finite; the state's errors still win
        problem = self.fault_problem(dict(self.CLEAN, ineq_jac=[[np.nan, 0.0]], **earlier))
        with pytest.raises(EvaluationError) as info:
            problem.evaluate_with_gradients(problem.x)
        assert str(info.value) == message
        assert info.value.group_id == group_id


class TestGroupFitCheck:
    """The public per-group path and every roll reject a state that does not fit its group."""

    @staticmethod
    def problem():
        problem = lk.ConstrainedMinimizationProblem(1)
        problem.register_group(
            ConstraintGroup(name="g", constraint_type=INEQ, size=3, indexed=True)
        )
        return problem

    def test_public_contributions_keep_the_range_check(self):
        group = self.problem().group("g")
        state = ConstraintState(violation=[0.5], observed_indices=[3])
        with pytest.raises(ValueError):
            lk.group_contribution(group, state)
        with pytest.raises(ValueError):
            lk.group_contribution(group, state, group.multiplier)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "gid, cstate, message",
        [
            ("g", ConstraintState(violation=[0.5], observed_indices=[3]),
             "group 'g': observed index 3 out of range for size 3"),
            ("g", ConstraintState(violation=[0.5, 0.5]),
             "group 'g': violation length 2 != group size 3"),
            ("other", ConstraintState(violation=[0.5]), "unknown group id 'other'"),
        ],
        ids=["index-out-of-range", "wrong-length", "unregistered"],
    )
    def test_roll_raises_the_group_fit_message(self, scheme, gid, cstate, message):
        problem = self.problem()
        state = lk.CMPState(loss=0.0, observed_constraints={gid: cstate})
        evaluation = lk.Evaluation(
            state=state, grad_f=np.zeros(1), jacobians={gid: np.ones((cstate.violation.size, 1))}
        )
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.1),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.1)),
        )
        with pytest.raises(ValueError) as got:
            roll(problem, optimizers, scheme=scheme, evaluate=lambda x: evaluation)
        assert str(got.value) == message
        assert problem.x.tolist() == [0.0] and optimizers.step == 0


class SubsetBoxProblem(lk.ConstrainedMinimizationProblem):
    """Four box constraints x_i <= 1 reported two at a time.

    Even-numbered evaluations observe indices (0, 2), odd ones (1, 3), so
    every roll under the simultaneous scheme addresses exactly half of the
    multiplier.
    """

    def __init__(self, formulation=Formulation.LAGRANGIAN, penalty=None):
        super().__init__(4)
        self.gid = self.register_group(
            ConstraintGroup(
                name="box", constraint_type=INEQ, size=4, indexed=True,
                formulation=formulation, penalty=penalty,
            )
        )
        self.freeze_registration()
        self.set_x(np.full(4, 2.0))
        self.calls = 0

    def _indices(self):
        return np.array([0, 2]) if self.calls % 2 == 0 else np.array([1, 3])

    def compute_cmp_state(self, x):
        x = np.asarray(x, dtype=np.float64)
        idx = self._indices()
        self.calls += 1
        state = ConstraintState(violation=x[idx] - 1.0, observed_indices=idx)
        return lk.CMPState(
            loss=float(0.5 * x @ x), observed_constraints={self.gid: state}
        )

    def evaluate_with_gradients(self, x):
        x = np.asarray(x, dtype=np.float64)
        state = self.compute_cmp_state(x)
        idx = state.observed_constraints[self.gid].observed_indices
        jac = np.zeros((idx.size, 4))
        jac[np.arange(idx.size), idx] = 1.0
        return lk.Evaluation(
            state=state, grad_f=x.copy(), jacobians={self.gid: jac}
        )


class FullBoxProblem(lk.ConstrainedMinimizationProblem):
    """Three box constraints x_i <= 1, all observed at every evaluation."""

    def __init__(self, indexed, formulation=Formulation.LAGRANGIAN):
        super().__init__(3, x0=[2.0, 3.0, 4.0])
        penalty = None if formulation is Formulation.LAGRANGIAN else 1.0
        self.register_group(ConstraintGroup("box", INEQ, 3, formulation, penalty, indexed))
        self.freeze_registration()

    def evaluate_with_gradients(self, x):
        state = lk.CMPState(loss=float(0.5 * x @ x), observed_constraints={
            "box": ConstraintState(violation=x - 1.0)
        })
        return lk.Evaluation(state=state, grad_f=x.copy(), jacobians={"box": np.eye(3)})


FULL_OBSERVATIONS = {  # (indexed, formulation) -> a problem whose one group is observed in full
    "no-indices": FullBoxProblem,
    "every-index": lambda indexed, formulation: problem_projection_ball(
        np.array([3.0, 4.0]), formulation=formulation, indexed=indexed
    ),
}
# rates at which every multiplier entry is positive after five rolls: no comparison of zeros
PRIMALS = {
    "gd": lambda: GradientDescent(0.1), "momentum": lambda: Momentum(0.05),
    "adam": lambda: AdamLike(0.3),
}
DUALS = {"gradient_ascent": lambda: GradientAscent(0.3), "nupi": lambda: NuPI(0.3)}


@pytest.mark.parametrize("dual", DUALS)
@pytest.mark.parametrize("primal", PRIMALS)
@pytest.mark.parametrize(
    "formulation", [Formulation.LAGRANGIAN, Formulation.AUGMENTED_LAGRANGIAN],
    ids=["lagrangian", "augmented"],
)
@pytest.mark.parametrize("observation", FULL_OBSERVATIONS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_indexed_group_observed_in_full_rolls_like_a_plain_one(
    scheme, observation, formulation, primal, dual
):
    # a full observation commits the whole vector: IndexedMultiplier._store with no indices,
    # whether the state lists no indices or, as a factory's does, every one of them
    trajectories = []
    for indexed in (False, True):
        problem = FULL_OBSERVATIONS[observation](indexed, formulation)
        (gid, group), = problem.groups.items()
        optimizers = PrimalDualOptimizers(
            primal=PRIMALS[primal](), duals=make_dual_optimizers(problem, DUALS[dual])
        )
        multiplier = group.multiplier
        trajectory = []
        for step in range(1, 6):
            roll(problem, optimizers, scheme=scheme)
            buffers = optimizers.duals[gid].buffer_state()
            trajectory.append((
                problem.x.tobytes(), multiplier.values.tobytes(),
                *(buffers[name].tobytes() for name in sorted(buffers)),
            ))
            if indexed:
                assert multiplier.update_count.tolist() == [step] * group.size
        trajectories.append(trajectory)
    assert trajectories[0] == trajectories[1]
    assert multiplier.values.min() > 0.0


def test_roll_without_a_dual_optimizer_for_a_group_rejected():
    problem = problem_projection_ball(np.array([3.0, 4.0]))
    optimizers = PrimalDualOptimizers(primal=GradientDescent(0.1))
    for scheme in SCHEMES:
        with pytest.raises(ValueError) as info:
            roll(problem, optimizers, scheme=scheme)
        assert str(info.value) == "no dual optimizer bound for group 'ball'"
    assert problem.x.tolist() == [0.0, 0.0] and optimizers.step == 0
    assert problem.group("ball").multiplier.values.tolist() == [0.0]


class TestUnobservedGroupFreeze:
    def test_only_observed_indices_move(self):
        problem = SubsetBoxProblem()
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.01),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.1, kappa_p=1.0)),
        )
        mult = problem.group("box").multiplier

        roll(problem, optimizers)  # observes (0, 2)
        assert mult.update_count.tolist() == [1, 0, 1, 0]
        assert mult.values[1] == 0.0 and mult.values[3] == 0.0
        assert mult.values[0] > 0.0 and mult.values[2] > 0.0
        seen = optimizers.duals["box"].buffer_state()["seen"]
        assert seen.tolist() == [True, False, True, False]

        roll(problem, optimizers)  # observes (1, 3)
        assert mult.update_count.tolist() == [1, 1, 1, 1]
        assert mult.values.min() > 0.0
        seen = optimizers.duals["box"].buffer_state()["seen"]
        assert seen.tolist() == [True, True, True, True]

    def test_frozen_entries_bitwise_stable_across_many_rolls(self):
        problem = SubsetBoxProblem()
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.01),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.1)),
        )
        mult = problem.group("box").multiplier
        roll(problem, optimizers)
        after_first = mult.values.copy()
        roll(problem, optimizers)  # addresses the complementary pair
        assert mult.values[0] == after_first[0]
        assert mult.values[2] == after_first[2]


class TestJacobianShapeCheck:
    """A Jacobian that does not fit its observed rows is rejected once, before any formula."""

    @staticmethod
    def problem():
        problem = lk.ConstrainedMinimizationProblem(2)
        problem.register_group(
            ConstraintGroup(name="g", constraint_type=INEQ, size=3, indexed=True)
        )
        return problem

    @staticmethod
    def evaluation(jacobian, indices=(0, 2)):
        cstate = ConstraintState(violation=[0.5] * len(indices), observed_indices=list(indices))
        state = lk.CMPState(loss=0.0, observed_constraints={"g": cstate})
        return lk.Evaluation(state=state, grad_f=np.zeros(2), jacobians={"g": jacobian})

    @staticmethod
    def snapshot(problem, optimizers):
        mult = problem.group("g").multiplier
        state = [problem.x.tobytes(), mult.values.tobytes(), mult.update_count.tobytes()]
        for opt in [optimizers.primal, *optimizers.duals.values()]:
            for name, buffer in sorted(opt.buffer_state().items()):
                state.append((name, np.asarray(buffer).tobytes()))
        return state + [optimizers.step]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 3), "jacobian shape (2, 3) does not match 2 weights and dim 2"),
            ((3, 2), "jacobian shape (3, 2) does not match 2 weights and dim 2"),
        ],
        ids=["extra-column", "extra-row"],
    )
    def test_wrong_shape_raises_and_commits_nothing(self, scheme, shape, message):
        problem = self.problem()
        optimizers = PrimalDualOptimizers(
            primal=Momentum(0.1, beta=0.9),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.1)),
        )
        clean = self.evaluation(np.ones((2, 2)))
        for _ in range(2):
            roll(problem, optimizers, scheme=scheme, evaluate=lambda x: clean)
        before = self.snapshot(problem, optimizers)
        bad = self.evaluation(np.ones(shape))
        with pytest.raises(ValueError) as info:
            roll(problem, optimizers, scheme=scheme, evaluate=lambda x: bad)
        assert str(info.value) == message
        assert self.snapshot(problem, optimizers) == before

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_empty_observation_takes_any_jacobian(self, scheme):
        problem = self.problem()
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.1),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.1)),
        )
        empty = self.evaluation(np.ones((1, 5)), indices=())
        roll(problem, optimizers, scheme=scheme, evaluate=lambda x: empty)
        assert optimizers.step == 1
        assert problem.group("g").multiplier.update_count.tolist() == [0, 0, 0]


class TestAltDpChecksOracleOutputOnce:
    def test_one_fit_check_and_one_jacobian_scan_per_group(self, monkeypatch):
        problem = SubsetBoxProblem()
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.01),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.1)),
        )
        counts = {"fit": 0, "jacobian": 0}
        check_fit = ConstraintGroup._check_fit
        all_finite = lk.optim._all_finite

        def counting_check_fit(self, cstate):
            counts["fit"] += 1
            return check_fit(self, cstate)

        def counting_all_finite(arr):
            # the only 2-d arrays the roll checks are Jacobians
            counts["jacobian"] += np.ndim(arr) == 2
            return all_finite(arr)

        monkeypatch.setattr(ConstraintGroup, "_check_fit", counting_check_fit)
        monkeypatch.setattr(lk.optim, "_all_finite", counting_all_finite)
        roll(problem, optimizers, scheme="alt-dp")
        assert optimizers.step == 1
        assert counts == {"fit": 1, "jacobian": 1}


class TestRecordEquality:
    """Records that hold arrays compare by identity instead of raising on ambiguous array truth."""

    @staticmethod
    def records():
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        ev = problem.evaluate_with_gradients(problem.x)
        state = ConstraintState(violation=[1.0, 2.0])
        pair = lk.group_contribution(
            ConstraintGroup(name="g", constraint_type=ConstraintType.EQUALITY, size=2), state
        )
        return [
            state,
            ev,
            lk.assemble(problem, ev, multiplier_values={"ball": [1.0]}),
            pair,
            lk.CertifiedSolution(x=np.zeros(2)),
        ]

    def test_compare_without_raising(self):
        for record, twin in zip(self.records(), self.records()):
            assert record == record and not record != record
            assert record != twin and not record == twin
            assert len({record, twin}) == 2

    """The records a roll builds without their ``__init__`` are the public frozen dataclasses."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_frozen_and_equal_to_public_construction(self, scheme):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.05),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.05)),
        )
        ev = problem.evaluate_with_gradients(problem.x)
        asm = lk.assemble(problem, ev)
        out = roll(problem, optimizers, scheme=scheme)
        pairs = [
            (ev, lk.Evaluation(state=ev.state, grad_f=ev.grad_f, jacobians=ev.jacobians)),
            (
                asm,
                lk.AssembledLagrangian(
                    primal_lagrangian=asm.primal_lagrangian,
                    dual_lagrangian=asm.dual_lagrangian,
                    gradient=asm.gradient,
                    dual_signals=asm.dual_signals,
                    observed_indices=asm.observed_indices,
                ),
            ),
            (
                out,
                lk.RollOut(
                    loss=out.loss,
                    primal_lagrangian=out.primal_lagrangian,
                    dual_lagrangian=out.dual_lagrangian,
                    cmp_state=out.cmp_state,
                ),
            ),
        ]
        for record, public in pairs:
            assert type(record) is type(public)
            if type(record) is lk.RollOut:  # the records that hold arrays compare by identity
                assert record == public and not record != public
            assert repr(record) == repr(public)
            assert vars(record) == vars(public)
            for f in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, f.name)
        assert out.loss == out.cmp_state.loss


class TestTwoPasses:
    """What each scheme computes, and so checks, at the points it visits.

    alt-dp takes its gradient only at the previewed m_{t+1}, and alt-pd runs
    only the dual pass at x_{t+1}, whose gradient it would not use. A value
    skipped there is rejected by the next roll that uses it, which commits
    nothing.
    """

    @staticmethod
    def problem(initial):
        problem = lk.ConstrainedMinimizationProblem(1)
        problem.register_group(ConstraintGroup(
            name="h", constraint_type=ConstraintType.EQUALITY, size=1,
            initial_multiplier=[initial],
        ))
        optimizers = PrimalDualOptimizers(
            primal=Momentum(0.1, beta=0.5),
            duals=make_dual_optimizers(problem, lambda: NuPI(1.0, kappa_p=0.0)),
        )
        return problem, optimizers

    @staticmethod
    def evaluation(violation, grad_f, jacobian):
        cstate = ConstraintState(violation=[violation])
        state = lk.CMPState(loss=0.0, observed_constraints={"h": cstate})
        return lk.Evaluation(
            state=state, grad_f=np.array(grad_f), jacobians={"h": np.array([[jacobian]])}
        )

    @staticmethod
    def snapshot(problem, optimizers):
        state = [problem.x.tobytes(), problem.group("h").multiplier.values.tobytes()]
        for opt in [optimizers.primal, *optimizers.duals.values()]:
            for name, buffer in sorted(opt.buffer_state().items()):
                state.append((name, np.asarray(buffer).tobytes()))
        return state + [optimizers.step]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_alt_dp_gradient_is_taken_only_at_the_new_multiplier(self):
        # grad = 1e308 * m: inf at m_0 = 2, finite at m_1 = 2 - 1 = 1
        def evaluate(x):
            return self.evaluation(-1.0 if x[0] == 0.0 else 1.0, [0.0], 1e308)

        problem, optimizers = self.problem(2.0)
        with pytest.raises(EvaluationError, match="non-finite primal gradient"):
            roll(problem, optimizers, scheme="simultaneous", evaluate=evaluate)

        roll(problem, optimizers, scheme="alt-dp", evaluate=evaluate)
        assert optimizers.step == 1
        assert problem.group("h").multiplier.values.tolist() == [1.0]
        assert problem.x.tolist() == [-0.1 * 1e308]
        # from x_1 the signal is +1: m_2 = 2 and the gradient there is inf
        before = self.snapshot(problem, optimizers)
        with pytest.raises(EvaluationError, match="non-finite primal gradient"):
            roll(problem, optimizers, scheme="alt-dp", evaluate=evaluate)
        assert self.snapshot(problem, optimizers) == before

    @pytest.mark.parametrize(
        "bad_grad_f, error, message",
        [
            ([np.inf], EvaluationError, "non-finite objective gradient"),
            ([0.0, 0.0], ValueError, r"grad_f shape \(2,\) != \(1,\)"),
        ],
        ids=["non-finite", "mis-shaped"],
    )
    def test_alt_pd_takes_no_gradient_at_the_new_point(self, bad_grad_f, error, message):
        def evaluate(x):
            return self.evaluation(x[0] - 1.0, [0.5] if x[0] == 0.0 else bad_grad_f, 1.0)

        problem, optimizers = self.problem(0.0)
        roll(problem, optimizers, scheme="alt-pd", evaluate=evaluate)
        assert optimizers.step == 1
        assert problem.x.tolist() == [-0.05]
        assert problem.group("h").multiplier.values.tolist() == [-1.05]
        before = self.snapshot(problem, optimizers)
        with pytest.raises(error, match=message):
            roll(problem, optimizers, scheme="alt-pd", evaluate=evaluate)
        assert self.snapshot(problem, optimizers) == before


class TestOneLoop:
    """``assemble`` composes the gradient after its dual pass, with every check in its old order."""

    @staticmethod
    def problem(*groups):
        problem = lk.ConstrainedMinimizationProblem(1)
        for name, formulation, penalty, initial in groups:
            problem.register_group(ConstraintGroup(
                name=name, constraint_type=ConstraintType.EQUALITY, size=1,
                formulation=formulation, penalty=penalty, initial_multiplier=[initial],
            ))
        return problem

    @staticmethod
    def evaluation(states, grad_f, jacobians):
        state = lk.CMPState(loss=0.0, observed_constraints=states)
        return lk.Evaluation(state=state, grad_f=grad_f, jacobians=jacobians)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_lagrangian_error_comes_before_the_grad_f_shape_error(self):
        problem = self.problem(("h", Formulation.LAGRANGIAN, None, 1e308))
        ev = self.evaluation(
            {"h": ConstraintState(violation=[1e308])}, np.zeros(2), {"h": np.ones((1, 1))}
        )
        with pytest.raises(EvaluationError, match="non-finite primal Lagrangian inf"):
            lk.assemble(problem, ev)
        finite = self.evaluation(
            {"h": ConstraintState(violation=[1.0])}, np.zeros(2), {"h": np.ones((1, 1))}
        )
        with pytest.raises(ValueError, match=r"grad_f shape \(2,\) != \(1,\)"):
            lk.assemble(problem, finite)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "grad_f", [[[0.0], [0.0, 0.0]], ["one"]], ids=["ragged", "not-a-number"]
    )
    def test_an_unconvertible_grad_f_fails_after_the_lagrangian(self, grad_f):
        problem = self.problem(("h", Formulation.LAGRANGIAN, None, 1e308))
        states = {"h": ConstraintState(violation=[1e308])}
        with pytest.raises(EvaluationError, match="non-finite primal Lagrangian"):
            lk.assemble(problem, self.evaluation(states, grad_f, {"h": np.ones((1, 1))}))
        with pytest.raises(ValueError) as expected:
            np.array(grad_f, dtype=np.float64)
        states = {"h": ConstraintState(violation=[1.0])}
        with pytest.raises(ValueError) as got:
            lk.assemble(problem, self.evaluation(states, grad_f, {"h": np.ones((1, 1))}))
        assert str(got.value) == str(expected.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_later_groups_jacobian_error_comes_before_an_earlier_dual_signal(self):
        problem = self.problem(
            ("al", Formulation.AUGMENTED_LAGRANGIAN, 1e308, 0.0),
            ("h", Formulation.LAGRANGIAN, None, 0.0),
        )
        states = {"al": ConstraintState(violation=[-10.0]), "h": ConstraintState(violation=[0.0])}
        good = {"al": np.ones((1, 1)), "h": np.ones((1, 1))}
        with pytest.raises(EvaluationError, match="non-finite dual signal for group 'al'"):
            lk.assemble(problem, self.evaluation(states, np.zeros(1), good))
        bad = dict(good, h=np.array([[np.nan]]))
        with pytest.raises(EvaluationError, match="non-finite Jacobian for group 'h'") as info:
            lk.assemble(problem, self.evaluation(states, np.zeros(1), bad))
        assert info.value.group_id == "h"

    @pytest.mark.parametrize("strict", [None, [0.1]], ids=["violation", "strict"])
    def test_lagrangian_dual_term_is_the_dot_of_the_multiplier_and_the_signal(self, strict):
        m = 0.3
        problem = self.problem(("h", Formulation.LAGRANGIAN, None, m))
        state = ConstraintState(violation=[0.7], strict_violation=strict)
        ev = self.evaluation({"h": state}, np.zeros(1), {"h": np.ones((1, 1))})
        asm = lk.assemble(problem, ev)
        expected = 0.0 + float(np.dot(np.array([m]), state.dual_violation))
        assert asm.dual_lagrangian.hex() == expected.hex()
        assert asm.primal_lagrangian == 0.0 + float(np.dot(np.array([m]), state.violation))
        if strict is not None:
            assert asm.dual_lagrangian != asm.primal_lagrangian


def _assembled_bytes(asm):
    """An assembled record's contents, as comparable bytes."""
    return (
        asm.primal_lagrangian,
        asm.dual_lagrangian,
        asm.gradient.tobytes(),
        {gid: signal.tobytes() for gid, signal in asm.dual_signals.items()},
        {gid: None if idx is None else idx.tobytes() for gid, idx in asm.observed_indices.items()},
    )


class TestAssembleSlot:
    """``assemble`` keeps one evaluation's checked blocks in the problem's slot, never a record.

    Each call computes its record afresh, so a write in between (a multiplier
    commit or load, or a group's penalty assigned) is always seen; x is not
    read, so ``set_x`` alone changes nothing.
    """

    @staticmethod
    def setup():
        problem = problem_projection_ball(
            np.array([3.0, 4.0]), formulation="augmented_lagrangian", penalty=2.0
        )
        optimizers = PrimalDualOptimizers(
            primal=Momentum(0.05, beta=0.5),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.5)),
        )
        return problem, optimizers

    @staticmethod
    def fresh(problem, ev):
        # an override never touches the slot: the record computed afresh at the stored values
        values = {gid: g.multiplier.copy_values() for gid, g in problem.groups.items()}
        return lk.assemble(problem, ev, multiplier_values=values)

    @staticmethod
    def _load_other_state(problem, tmp_path):
        source, source_optimizers = TestAssembleSlot.setup()
        for _ in range(3):
            roll(source, source_optimizers)
        checkpoint.save(source, source_optimizers, tmp_path / "state.ckpt")
        checkpoint.load(tmp_path / "state.ckpt", problem, TestAssembleSlot.setup()[1])

    WRITES = {
        "apply_dual_delta": lambda p, tmp: p.group("ball").multiplier.apply_dual_delta([0.5]),
        "load_values": lambda p, tmp: p.group("ball").multiplier.load_values([1.5]),
        "checkpoint.load": lambda p, tmp: TestAssembleSlot._load_other_state(p, tmp),
        "penalty": lambda p, tmp: setattr(p.group("ball"), "penalty", lk.PenaltyCoefficient(5.0)),
        "set_x": lambda p, tmp: p.set_x(p.x),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_write_between_calls_is_seen(self, write, tmp_path):
        problem, _ = self.setup()
        ev = problem.evaluate_with_gradients(problem.x)
        first = lk.assemble(problem, ev)
        self.WRITES[write](problem, tmp_path)
        second = lk.assemble(problem, ev)
        assert _assembled_bytes(second) == _assembled_bytes(self.fresh(problem, ev))
        if write != "set_x":  # ev assembles to the same record at any x; the others change it
            assert _assembled_bytes(second) != _assembled_bytes(first)

    def test_no_write_assembles_the_same_bytes(self):
        problem, _ = self.setup()
        ev = problem.evaluate_with_gradients(problem.x)
        first = lk.assemble(problem, ev)
        assert _assembled_bytes(lk.assemble(problem, ev)) == _assembled_bytes(first)
        other = lk.assemble(problem, problem.evaluate_with_gradients(problem.x))
        assert _assembled_bytes(other) == _assembled_bytes(first)

    def test_override_neither_served_nor_stored(self):
        problem, _ = self.setup()
        ev = problem.evaluate_with_gradients(problem.x)
        override = {"ball": np.array([0.75])}
        a = lk.assemble(problem, ev, multiplier_values=override)
        b = lk.assemble(problem, ev, multiplier_values=override)
        assert a is not b and _assembled_bytes(a) == _assembled_bytes(b)
        stored = lk.assemble(problem, ev)
        assert _assembled_bytes(stored) != _assembled_bytes(a)
        c = lk.assemble(problem, ev, multiplier_values=override)
        assert c is not a and _assembled_bytes(c) == _assembled_bytes(a)
        assert _assembled_bytes(lk.assemble(problem, ev)) == _assembled_bytes(stored)

    @pytest.mark.parametrize(
        "values, shape", [([0.5, 0.5], "(2,)"), ([[0.5]], "(1, 1)"), (0.5, "()")]
    )
    def test_override_of_the_wrong_shape_rejected(self, values, shape):
        problem, _ = self.setup()
        ev = problem.evaluate_with_gradients(problem.x)
        with pytest.raises(ValueError) as info:
            lk.assemble(problem, ev, multiplier_values={"ball": values})
        assert str(info.value) == f"group 'ball': multiplier values shape {shape} != (1,)"

    def test_override_of_an_unregistered_id_rejected(self):
        # a misspelt id used to be ignored: the record at the stored multipliers came back
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        ev = problem.evaluate_with_gradients(problem.x)
        assert lk.assemble(problem, ev, multiplier_values={"ball": [5.0]}).primal_lagrangian == 20.0
        with pytest.raises(ValueError) as info:
            lk.assemble(problem, ev, multiplier_values={"bal": [5.0]})
        assert str(info.value) == "multiplier_values: 'bal' is not a registered group"
        assert lk.assemble(problem, ev, multiplier_values={"bal": None}).primal_lagrangian == 25.0

    def test_override_of_a_group_without_multiplier_rejected(self):
        problem = problem_bilinear_game(formulation="quadratic_penalty")
        ev = problem.evaluate_with_gradients(problem.x)
        with pytest.raises(ValueError) as info:
            lk.assemble(problem, ev, multiplier_values={"level": [5.0]})
        assert str(info.value) == "multiplier_values: group 'level' has no multiplier"
        stored = lk.assemble(problem, ev).primal_lagrangian
        assert lk.assemble(problem, ev, multiplier_values={"level": None}).primal_lagrangian == stored

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_constant_evaluation_is_correct_under_every_scheme(self, scheme):
        # an evaluate returning one Evaluation object for every point rolls like
        # one returning a new object with the same contents each time
        runs = []
        for same_object in (True, False):
            problem, optimizers = self.setup()
            constant = problem.evaluate_with_gradients(np.array([0.3, 0.4]))

            def evaluate(x):
                if same_object:
                    return constant
                return lk.Evaluation(
                    state=constant.state, grad_f=constant.grad_f, jacobians=constant.jacobians
                )

            trajectory = []
            for _ in range(6):
                out = roll(problem, optimizers, scheme=scheme, evaluate=evaluate)
                row = lk.assemble(problem, evaluate(problem.x))  # what a trace row does
                trajectory.append((
                    out.primal_lagrangian, out.dual_lagrangian, _assembled_bytes(row),
                    problem.x.tobytes(), problem.group("ball").multiplier.values.tobytes(),
                ))
            runs.append(trajectory)
        assert runs[0] == runs[1]

    @staticmethod
    def counted_run(monkeypatch, tmp_path, scheme, steps, made=None):
        """Call counts of a traced ``norm_logreg`` run and the evaluations ``_checked_blocks`` took.

        Given a list ``made``, the problem's evaluations are rebuilt as user-built
        ``Evaluation`` objects, each appended to ``made``.
        """
        # "composing" counts the calls of _composed, the one site that adds Jacobian rows
        counts = {
            "_checked_blocks": 0, "_dual_pass": 0, "composing": 0, "_checked_gradient": 0,
            "maxima": 0,
        }
        checked = []
        for name in ("_checked_blocks", "_dual_pass", "_composed", "_checked_gradient"):
            original = getattr(lk.optim, name)

            def counted(*args, _original=original, _name=name):
                counts["composing" if _name == "_composed" else _name] += 1
                if _name == "_checked_blocks":
                    checked.append(args[1])
                return _original(*args)

            monkeypatch.setattr(lk.optim, name, counted)
        # the violation maxima are computed only in the KKT residual's one pass over the blocks
        kkt_pieces = lk.problems._kkt_pieces

        def counted_maxima(*args):
            counts["maxima"] += 1
            return kkt_pieces(*args)

        monkeypatch.setattr(lk.problems, "_kkt_pieces", counted_maxima)
        if made is not None:
            build = cli._build_problem

            def build_user_evaluated(config):
                problem = build(config)
                library = problem.evaluate_with_gradients

                def evaluate(x):
                    ev = library(x)
                    made.append(lk.Evaluation(
                        state=ev.state, grad_f=ev.grad_f, jacobians=dict(ev.jacobians)
                    ))
                    return made[-1]

                problem.evaluate_with_gradients = evaluate
                return problem

            monkeypatch.setattr(cli, "_build_problem", build_user_evaluated)
        config = cli.RunConfig(
            problem="norm_logreg", scheme=scheme, steps=steps, trace=str(tmp_path / "t.csv")
        )
        assert cli.cmd_run(config) == 0
        return counts, checked

    # A library evaluation arrives checked (``BenchmarkProblem.evaluate_with_gradients``
    # fills the slot), so no roll, trace row or KKT residual of these runs checks one.

    def test_traced_alt_pd_run_checks_each_evaluation_once(self, monkeypatch, tmp_path, capsys):
        n = 7
        counts, _ = self.counted_run(monkeypatch, tmp_path, "alt-pd", n)
        # x_0, then one evaluation per step, each checked where it is made; a
        # dual pass at x_{t+1} in the roll and at m_{t+1} in the row; the row's
        # gradient, composed after its dual pass, is the next roll's; each row's
        # violation maxima are computed once
        assert counts == {
            "_checked_blocks": 0, "_dual_pass": 2 * n + 1, "composing": n + 1,
            "_checked_gradient": n + 1, "maxima": n,
        }

    def test_traced_simultaneous_run_takes_the_row_gradient(self, monkeypatch, tmp_path, capsys):
        n = 7
        counts, _ = self.counted_run(monkeypatch, tmp_path, "simultaneous", n)
        assert counts == {
            "_checked_blocks": 0, "_dual_pass": n + 1, "composing": n + 1,
            "_checked_gradient": n + 1, "maxima": n,
        }

    def test_traced_alt_dp_run_takes_the_row_blocks(self, monkeypatch, tmp_path, capsys):
        n = 5
        counts, _ = self.counted_run(monkeypatch, tmp_path, "alt-dp", n)
        # one dual pass per evaluation: each roll's at (x_t, m_t) gives the row
        # before it, whose gradient at m_t is composed from the entries that pass
        # gathered (n - 1 rows: the first roll has none); each roll composes at
        # m_{t+1}; the last row assembles at x_n
        assert counts == {
            "_checked_blocks": 0, "_dual_pass": n + 1, "composing": 2 * n,
            "_checked_gradient": 2 * n, "maxima": n,
        }

    def test_traced_extragradient_run_checks_x_hat_afresh(self, monkeypatch, tmp_path, capsys):
        n = 7
        counts, _ = self.counted_run(monkeypatch, tmp_path, "extragradient", n)
        # the row's record is the next roll's at (x_t, m_t); x_hat is a new
        # evaluation, checked where it is made, assembled at overridden multipliers
        assert counts == {
            "_checked_blocks": 0, "_dual_pass": 2 * n + 1, "composing": 2 * n + 1,
            "_checked_gradient": 2 * n + 1, "maxima": n,
        }

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_traced_run_checks_each_user_built_evaluation_once(
        self, scheme, monkeypatch, tmp_path, capsys
    ):
        # across the roll, the row's assemble and its KKT residual
        n = 7
        made = []
        counts, checked = self.counted_run(monkeypatch, tmp_path, scheme, n, made)
        assert len(made) == (2 * n + 1 if scheme == "extragradient" else n + 1)
        assert counts["_checked_blocks"] == len(made)
        assert sorted(map(id, checked)) == sorted(map(id, made))

    def test_trace_row_kkt_residual_takes_the_slot_blocks(self, monkeypatch):
        problem, optimizers = self.setup()
        roll(problem, optimizers)
        checks = []
        original = lk.optim._checked_blocks
        monkeypatch.setattr(
            lk.optim, "_checked_blocks", lambda *args: checks.append(args) or original(*args)
        )
        evaluate = cli._evaluator(problem)
        rows = []
        lk.optim._observe(
            problem, evaluate(problem.x),
            lambda ev, asm: rows.append(cli._trace_row(problem, optimizers, ev, asm)),
        )
        (row, kkt), = rows
        ev = evaluate(problem.x)
        assert checks == []  # a library evaluation: neither the row's assemble nor its KKT
        # the row's maxima are the ones its residual's pass left in the cache
        assert problem._maxima[0] is ev.state
        assert [float(f) for f in row.split(",")[4:6]] == list(problem._maxima[1])
        assert max(problem._maxima[1]) == kkt.feasibility
        assert lk.current_kkt_residual(problem, ev) == kkt
        assert checks == []
        # a user-built evaluation of the same point: the row's assemble checks
        # it, and the KKT residual takes those blocks from the slot
        other = lk.Evaluation(state=ev.state, grad_f=ev.grad_f, jacobians=ev.jacobians)
        assert lk.assemble(problem, other).primal_lagrangian == float(row.split(",")[2])
        assert lk.current_kkt_residual(problem, other) == kkt
        assert len(checks) == 1 and checks[0][1] is other
        # one the slot does not hold is checked afresh
        another = lk.Evaluation(state=ev.state, grad_f=ev.grad_f, jacobians=ev.jacobians)
        assert lk.current_kkt_residual(problem, another) == kkt
        assert len(checks) == 2 and checks[1][1] is another

    @pytest.mark.parametrize("user_built", [False, True], ids=["library", "user-built"])
    def test_alt_pd_stores_each_evaluations_blocks_once(self, user_built, monkeypatch):
        # a library evaluation stores its own blocks; the roll stores only those it checked
        problem, optimizers = self.setup()
        stores = []
        original = lk.optim._store_blocks

        def counted(problem, evaluation, blocks):
            stores.append(evaluation)
            original(problem, evaluation, blocks)

        monkeypatch.setattr(lk.optim, "_store_blocks", counted)
        monkeypatch.setattr(lk.problems, "_store_blocks", counted)
        made = []

        def evaluate(x):
            ev = problem.evaluate_with_gradients(x)
            if user_built:
                ev = lk.Evaluation(state=ev.state, grad_f=ev.grad_f, jacobians=ev.jacobians)
            made.append(ev)
            return ev

        for _ in range(3):
            roll(problem, optimizers, scheme="alt-pd", evaluate=evaluate)
        assert len(made) == 6
        stored = [id(ev) for ev in stores]
        if not user_built:
            assert stored == [id(ev) for ev in made]  # one store per evaluation
        else:
            # each library evaluation underneath stores once, and the roll stores the
            # x_{t+1} one it checked; assemble stores the x_t one's blocks itself
            assert len(stores) == 6 + 3
            assert [i for i in stored if i in set(map(id, made))] == [id(ev) for ev in made[1::2]]


class TestRollObserver:
    """``roll`` hands its observer the evaluation at x_t and its record at m_t, before any write."""

    @staticmethod
    def state(problem, optimizers):
        buffers = [
            (name, np.asarray(buffer).tobytes())
            for opt in [optimizers.primal, *optimizers.duals.values()]
            for name, buffer in sorted(opt.buffer_state().items())
        ]
        multiplier = problem.group("ball").multiplier.values.tobytes()
        return problem.x.tobytes(), multiplier, buffers, optimizers.step

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_record_is_the_opening_assembly_and_the_roll_is_unchanged(self, scheme):
        runs = []
        for observed in (False, True):
            problem, optimizers = TestAssembleSlot.setup()
            seen = []

            def observer(ev, asm):
                assert len(problem._slot) == 3 and problem._slot[2] is asm
                seen.append((
                    self.state(problem, optimizers), _assembled_bytes(asm),
                    _assembled_bytes(TestAssembleSlot.fresh(problem, ev)),
                ))

            trajectory = []
            for _ in range(4):
                before = self.state(problem, optimizers)
                out = roll(problem, optimizers, scheme, observer=observer if observed else None)
                assert len(problem._slot) == 2  # the record is held only during the call
                if observed:
                    at_call, record, fresh = seen[-1]
                    assert at_call == before and record == fresh
                trajectory.append((out.primal_lagrangian, out.dual_lagrangian,
                                   self.state(problem, optimizers)))
            assert len(seen) == (4 if observed else 0)
            runs.append(trajectory)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_an_observer_that_raises_commits_nothing(self, scheme):
        problem, optimizers = TestAssembleSlot.setup()
        roll(problem, optimizers, scheme)
        before = self.state(problem, optimizers)

        def observer(ev, asm):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            roll(problem, optimizers, scheme, observer=observer)
        assert self.state(problem, optimizers) == before
        assert len(problem._slot) == 2


class TestIndexedGathers:
    """A roll gathers each observed multiplier and penalty entry once.

    The dual pass gathers m and c for each block; the dual preview and
    alt-dp's gradient at m_{t+1} read those arrays, and weights are computed
    only where a gradient is composed.
    """

    class CountedGathers(np.ndarray):
        """A stored multiplier that counts the index-array gathers made from it."""

        gathers = 0

        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                TestIndexedGathers.CountedGathers.gathers += 1
            return super().__getitem__(key).view(np.ndarray)

    @staticmethod
    def setup(monkeypatch):
        problem = SubsetBoxProblem(
            Formulation.AUGMENTED_LAGRANGIAN, np.array([1.0, 2.0, 3.0, 4.0])
        )
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.01),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.1)),
        )
        counts = {"_full": 0, "_weights": 0}
        full = lk.PenaltyCoefficient._full
        weights = lk.formulations._weights
        weighed = []

        def counted_full(self, size):
            counts["_full"] += 1
            return full(self, size)

        def counted_weights(group, state, m, c):
            counts["_weights"] += 1
            weighed.append(state)
            return weights(group, state, m, c)

        monkeypatch.setattr(lk.PenaltyCoefficient, "_full", counted_full)
        monkeypatch.setattr(lk.formulations, "_weights", counted_weights)
        monkeypatch.setattr(lk.optim, "_weights", counted_weights)
        return problem, optimizers, counts, weighed

    def test_alt_dp_gathers_the_penalty_once_and_weighs_once(self, monkeypatch):
        problem, optimizers, counts, _ = self.setup(monkeypatch)
        roll(problem, optimizers, scheme="alt-dp")
        assert optimizers.step == 1
        assert counts == {"_full": 1, "_weights": 1}

    def test_alt_pd_weighs_only_at_x_t(self, monkeypatch):
        problem, optimizers, counts, weighed = self.setup(monkeypatch)
        states = []

        def evaluate(x):
            ev = problem.evaluate_with_gradients(x)
            states.append(ev.state.observed_constraints["box"])
            return ev

        roll(problem, optimizers, scheme="alt-pd", evaluate=evaluate)
        assert optimizers.step == 1 and len(states) == 2
        # the dual-only pass at x_{t+1} composes no gradient, so it takes no weights
        assert weighed == [states[0]]
        assert counts == {"_full": 2, "_weights": 1}

    def test_alt_dp_preview_reads_the_entries_the_pass_gathered(self, monkeypatch):
        problem, optimizers, _, _ = self.setup(monkeypatch)
        multiplier = problem.group("box").multiplier
        multiplier._values = multiplier._values.view(self.CountedGathers)
        for step in range(1, 4):
            self.CountedGathers.gathers = 0
            roll(problem, optimizers, scheme="alt-dp")
            assert optimizers.step == step
            # the dual pass's gather is the only one
            assert self.CountedGathers.gathers == 1
        assert multiplier.values.tolist() != [0.0] * 4
