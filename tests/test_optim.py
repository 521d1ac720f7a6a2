"""Primal/dual optimizers and the four update schemes.

Scheme oracles use the scalar game f = 0, h(x) = x, x0 = 1, mu0 = 1 with
learning rate 0.1 on both sides; each scheme produces a distinct, hand
checkable (x1, mu1) pair. The Adam trajectory values were computed with a
scalar reference implementation of the standard bias-corrected update.
"""

import dataclasses

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
    GradientAscent,
    GradientDescent,
    Momentum,
    NuPI,
    PrimalDualOptimizers,
    SCHEMES,
    dual_step,
    make_dual_optimizers,
    primal_step,
    problem_bilinear_game,
    problem_projection_ball,
    roll,
)
from lagrangekit.problems import BenchmarkProblem

INEQ = ConstraintType.INEQUALITY


def bilinear_setup(lr=0.1):
    problem = problem_bilinear_game()
    optimizers = PrimalDualOptimizers(
        primal=GradientDescent(lr),
        duals=make_dual_optimizers(problem, lambda: GradientAscent(lr)),
    )
    return problem, optimizers


def unconstrained_quadratic(x0=1.0):
    # f = x^2 / 2, no constraint groups
    objective = DifferentiableFunction(
        eval=lambda x: np.array([0.5 * x[0] ** 2]),
        grad_row=lambda x, i: np.array([x[0]]),
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
                xm = primal_step(mom, xm, grad)
                xg = primal_step(gd, xg, np.sin(xg) + 0.1 * xg)
            assert xm.tobytes() == xg.tobytes()

    def test_velocity_accumulates(self):
        opt = Momentum(0.1, beta=0.5)
        x = primal_step(opt, np.array([0.0]), np.array([1.0]))
        assert x.tolist() == [-0.1]  # v = 1
        x = primal_step(opt, x, np.array([1.0]))
        # v = 0.5*1 + 1 = 1.5, x = -0.1 - 0.15
        assert x.tolist() == [pytest.approx(-0.25)]

    def test_zero_gradient_with_fresh_buffer_is_identity(self):
        opt = Momentum(0.1, beta=0.9)
        x = primal_step(opt, np.array([2.0, -1.0]), np.zeros(2))
        assert x.tolist() == [2.0, -1.0]

    def test_step_without_commit_leaves_buffers(self):
        opt = Momentum(0.1, beta=0.9)
        primal_step(opt, np.array([0.0]), np.array([1.0]))
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
            x = primal_step(opt, x, 2.0 * x)
            assert x[0] == pytest.approx(want, rel=1e-12)

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes |step 1| = lr/(1 + eps/|g|), essentially lr
        opt = AdamLike(0.01)
        x = primal_step(opt, np.array([5.0]), np.array([123.0]))
        assert x[0] == pytest.approx(5.0 - 0.01, rel=1e-7)

    def test_time_counter_advances_only_on_commit(self):
        opt = AdamLike(0.1)
        opt.step(np.array([1.0]), np.array([1.0]))
        assert opt.buffer_state()["t"] == 0
        primal_step(opt, np.array([1.0]), np.array([1.0]))
        assert opt.buffer_state()["t"] == 1

    @pytest.mark.parametrize("t", [2.7, -1])
    def test_load_rejects_step_count_that_is_not_a_nonnegative_integer(self, t):
        opt = AdamLike(0.1)
        primal_step(opt, np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="step count"):
            opt.load_buffer_state({"m": None, "v": None, "t": t})
        assert opt.buffer_state()["t"] == 1
        assert opt.m is not None

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
        m = lk.DenseMultiplier(1, INEQ, values=[1.0])
        dual_step(GradientAscent(0.1), m, np.array([0.5]))
        assert m.values.tolist() == [1.05]

    def test_projection_applied_after_delta(self):
        m = lk.DenseMultiplier(1, INEQ, values=[0.5])
        dual_step(GradientAscent(1.0), m, np.array([-2.0]))
        assert m.values.tolist() == [0.0]

    def test_signal_length_validated(self):
        m = lk.DenseMultiplier(2, INEQ)
        with pytest.raises(ValueError):
            dual_step(GradientAscent(0.1), m, np.array([1.0]))

    def test_non_finite_signal_rejected(self):
        m = lk.DenseMultiplier(1, INEQ)
        with pytest.raises(EvaluationError):
            dual_step(GradientAscent(0.1), m, np.array([np.inf]))


class TestNuPI:
    def test_kappa_zero_bitwise_matches_gradient_ascent(self):
        rng = np.random.default_rng(7)
        for nu in (0.0, 0.5, 0.9):
            for _ in range(34):
                signals = rng.normal(size=(15, 3))
                m_pi = lk.DenseMultiplier(3, INEQ)
                m_ga = lk.DenseMultiplier(3, INEQ)
                pi = NuPI(0.05, kappa_p=0.0, nu=nu)
                ga = GradientAscent(0.05)
                for e in signals:
                    dual_step(pi, m_pi, e)
                    dual_step(ga, m_ga, e)
                    assert m_pi.values.tobytes() == m_ga.values.tobytes()

    def test_hand_recursion(self):
        # kappa_p=1, nu=0.5, signals 1, 2, -1; the EMA seeds at the first
        # observed signal so the first proportional correction vanishes:
        #   e=1:  ema 1 -> 1,     delta = lr*(1 + (1 - 1))      = lr*1
        #   e=2:  ema 1 -> 1.5,   delta = lr*(2 + (1.5 - 1))    = lr*2.5
        #   e=-1: ema 1.5 -> .25, delta = lr*(-1 + (.25 - 1.5)) = lr*(-2.25)
        m = lk.DenseMultiplier(1, ConstraintType.EQUALITY)
        opt = NuPI(0.1, kappa_p=1.0, nu=0.5)
        for e in (1.0, 2.0, -1.0):
            dual_step(opt, m, np.array([e]))
        assert m.values[0] == pytest.approx(0.1 * (1.0 + 2.5 - 2.25), rel=1e-15)

    def test_partial_updates_freeze_unaddressed_buffers(self):
        opt = NuPI(0.1, kappa_p=1.0, nu=0.5)
        m = lk.IndexedMultiplier(3, INEQ)
        dual_step(opt, m, np.array([1.0]), indices=np.array([0]))
        state = opt.buffer_state()
        assert state["seen"].tolist() == [True, False, False]
        assert state["ema"][0] == 1.0
        # entry 2 first observed now: seeds at its own signal
        dual_step(opt, m, np.array([4.0]), indices=np.array([2]))
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
        # assemble + primal_step + dual_step on one copy must reproduce
        # a simultaneous roll on an identical copy bit for bit; the indexed
        # problem observes half of its multiplier per evaluation
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
            x_new = primal_step(direct_opt.primal, direct.x, asm.gradient)
            for gid, signal in asm.dual_signals.items():
                dual_step(
                    direct_opt.duals[gid], direct.group(gid).multiplier, signal,
                    asm.observed_indices[gid],
                )
            direct.set_x(x_new)
            assert snapshot(direct, direct_opt) == snapshot(rolled, rolled_opt)

    def test_subclasses_overriding_only_step_roll_like_builtins(self):
        # the rolls call _step; the base _step must route to an overridden step
        class ListDescent(lk.PrimalOptimizer):
            def step(self, x, grad):
                return list(x - self.learning_rate * grad), None

        class PlainAscent(lk.DualOptimizer):
            def step(self, signal, indices, size):
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

        custom = trajectory(ListDescent(0.1), lambda: PlainAscent(0.2))
        assert custom == trajectory(GradientDescent(0.1), lambda: GradientAscent(0.2))
        with pytest.raises(NotImplementedError):
            lk.PrimalOptimizer(0.1).step(np.zeros(1), np.zeros(1))
        with pytest.raises(NotImplementedError):
            lk.DualOptimizer(0.1).step(np.zeros(1), None, 1)

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
            grad_row=lambda x, i: np.array([x[0]]),
            output_size=1,
        )
        trap = DifferentiableFunction(
            eval=lambda x: np.array([np.inf if x[0] < 0.95 else x[0]]),
            grad_row=lambda x, i: np.ones(1),
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
                grad_row=lambda x, i: np.array(parts[key + "_jac"][i], dtype=np.float64),
                output_size=size,
                name=key,
                val_jac=lambda x: (np.array(parts[key]), np.array(parts[key + "_jac"])),
            )

        objective = DifferentiableFunction(
            eval=lambda x: np.array([parts["loss"]]),
            grad_row=lambda x, i: np.array(parts["grad_f"]),
            output_size=1,
            val_jac=lambda x: (np.array([parts["loss"]]), np.array([parts["grad_f"]])),
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
        "gid, cstate",
        [
            ("g", ConstraintState(violation=[0.5], observed_indices=[3])),
            ("g", ConstraintState(violation=[0.5, 0.5])),
            ("other", ConstraintState(violation=[0.5])),
        ],
        ids=["index-out-of-range", "wrong-length", "unregistered"],
    )
    def test_roll_raises_the_check_state_message(self, scheme, gid, cstate):
        problem = self.problem()
        state = lk.CMPState(loss=0.0, observed_constraints={gid: cstate})
        with pytest.raises(ValueError) as expected:
            problem.check_state(state)
        evaluation = lk.Evaluation(
            state=state, grad_f=np.zeros(1), jacobians={gid: np.ones((cstate.violation.size, 1))}
        )
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.1),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.1)),
        )
        with pytest.raises(ValueError) as got:
            roll(problem, optimizers, scheme=scheme, evaluate=lambda x: evaluation)
        assert str(got.value) == str(expected.value)
        assert problem.x.tolist() == [0.0] and optimizers.step == 0


class SubsetBoxProblem(lk.ConstrainedMinimizationProblem):
    """Four box constraints x_i <= 1 reported two at a time.

    Even-numbered evaluations observe indices (0, 2), odd ones (1, 3), so
    every roll under the simultaneous scheme addresses exactly half of the
    multiplier.
    """

    def __init__(self):
        super().__init__(4)
        self.gid = self.register_group(
            ConstraintGroup(
                name="box", constraint_type=INEQ, size=4, indexed=True
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
        checked_group = lk.ConstrainedMinimizationProblem._checked_group
        all_finite = lk.optim._all_finite

        def counting_checked_group(self, gid, cstate):
            counts["fit"] += 1
            return checked_group(self, gid, cstate)

        def counting_all_finite(arr):
            # the only 2-d arrays the roll checks are Jacobians
            counts["jacobian"] += np.ndim(arr) == 2
            return all_finite(arr)

        monkeypatch.setattr(
            lk.ConstrainedMinimizationProblem, "_checked_group", counting_checked_group
        )
        monkeypatch.setattr(lk.optim, "_all_finite", counting_all_finite)
        roll(problem, optimizers, scheme="alt-dp")
        assert optimizers.step == 1
        assert counts == {"fit": 1, "jacobian": 1}


class TestResultRecords:
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
