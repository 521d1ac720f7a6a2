"""Gradient composition, finite differences, and the analytic-vs-FD checker."""

import numpy as np
import pytest

from lagrangekit import (
    BenchmarkProblem,
    DifferentiableFunction,
    EvaluationError,
    check_gradients,
    compose_primal_gradient,
    finite_difference_gradient,
    problem_projection_ball,
    with_finite_difference_gradient,
)


def square_fn():
    return DifferentiableFunction(
        eval=lambda x: np.array([x[0] ** 2]),
        val_jac=lambda x: (np.array([x[0] ** 2]), np.array([[2.0 * x[0]]])),
        output_size=1,
        name="square",
    )


class TestComposePrimalGradient:
    def test_weighted_rows_added(self):
        grad_f = np.array([1.0, 0.0])
        jac = np.array([[2.0, 3.0], [1.0, 1.0]])
        weights = np.array([2.0, 3.0])
        out = compose_primal_gradient(grad_f, [(weights, jac)])
        assert out.tolist() == [1.0 + 4.0 + 3.0, 0.0 + 6.0 + 3.0]

    def test_scalar_composition(self):
        # f = x^2 at x=3 (grad 6), one constraint x - 1 with weight 2
        out = compose_primal_gradient(
            np.array([6.0]), [(np.array([2.0]), np.array([[1.0]]))]
        )
        assert out.tolist() == [8.0]

    def test_zero_weights_leave_objective_gradient(self):
        grad_f = np.array([1.5, -2.0])
        jac = np.array([[10.0, 10.0]])
        out = compose_primal_gradient(grad_f, [(np.zeros(1), jac)])
        assert out.tolist() == [1.5, -2.0]

    def test_empty_weight_blocks_skipped(self):
        # quadratic-penalty groups at feasible points contribute size-0 weights
        grad_f = np.array([1.0])
        out = compose_primal_gradient(grad_f, [(np.empty(0), np.empty((0, 1)))])
        assert out.tolist() == [1.0]

    def test_input_not_mutated(self):
        grad_f = np.array([1.0])
        compose_primal_gradient(grad_f, [(np.array([1.0]), np.array([[5.0]]))])
        assert grad_f.tolist() == [1.0]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_primal_gradient(
                np.array([1.0, 2.0]), [(np.array([1.0]), np.array([[1.0]]))]
            )

    def test_non_finite_weights_rejected(self):
        with pytest.raises(EvaluationError):
            compose_primal_gradient(
                np.array([1.0]), [(np.array([np.nan]), np.array([[1.0]]))]
            )

    def test_linearity_under_doubled_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            jac = rng.normal(size=(3, 4))
            w = rng.normal(size=3)
            base = compose_primal_gradient(np.zeros(4), [(w, jac)])
            doubled = compose_primal_gradient(np.zeros(4), [(2.0 * w, jac)])
            assert np.allclose(doubled, 2.0 * base, rtol=0, atol=1e-15)


class TestFiniteDifferenceGradient:
    def test_square_at_three(self):
        grad = finite_difference_gradient(square_fn(), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, rel=1e-6)

    def test_constant_function_near_zero(self):
        fun = DifferentiableFunction(
            eval=lambda x: np.array([4.0]),
            val_jac=lambda x: (np.array([4.0]), np.zeros((1, 1))),
            output_size=1,
        )
        grad = finite_difference_gradient(fun, np.array([0.7]))
        assert abs(grad[0]) <= 1e-9

    def test_linear_function_exact_to_rounding(self):
        fun = DifferentiableFunction(
            eval=lambda x: np.array([3.0 * x[0] - 2.0 * x[1]]),
            val_jac=lambda x: (np.array([3.0 * x[0] - 2.0 * x[1]]), np.array([[3.0, -2.0]])),
            output_size=1,
        )
        grad = finite_difference_gradient(fun, np.array([1.0, 1.0]))
        assert grad == pytest.approx([3.0, -2.0], rel=1e-8)

    def test_second_output_selected(self):
        fun = DifferentiableFunction(
            eval=lambda x: np.array([x[0], x[0] ** 3]),
            val_jac=lambda x: (np.array([x[0], x[0] ** 3]), np.array([[1.0], [3 * x[0] ** 2]])),
            output_size=2,
        )
        grad = finite_difference_gradient(fun, np.array([2.0]), output_index=1)
        assert grad[0] == pytest.approx(12.0, rel=1e-6)

    def test_empty_x_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(square_fn(), np.empty(0))

    def test_output_index_range_checked(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(square_fn(), np.array([1.0]), output_index=1)

    def test_non_finite_evaluation_rejected(self):
        fun = DifferentiableFunction(
            eval=lambda x: np.array([np.inf]),
            val_jac=lambda x: (np.array([np.inf]), np.zeros((1, 1))),
            output_size=1,
        )
        with pytest.raises(EvaluationError):
            finite_difference_gradient(fun, np.array([1.0]))


class TestWithFiniteDifferenceGradient:
    def test_wrapper_supplies_gradients(self):
        fun = with_finite_difference_gradient(
            lambda x: np.array([np.sin(x[0])]), output_size=1, name="sine"
        )
        _, J = fun.value_and_jacobian(np.array([0.5]))
        assert J[0, 0] == pytest.approx(np.cos(0.5), rel=1e-7)

    def test_jacobian_is_the_stacked_difference_rows_bit_for_bit(self):
        calls = []

        def pair(x):
            calls.append(True)
            return np.array([np.sin(x[0]) * x[1], x[0] ** 3 - x[1]])

        fun = with_finite_difference_gradient(pair, output_size=2, name="pair")
        x = np.array([0.4, -1.3])
        vals, J = fun.value_and_jacobian(x)
        assert len(calls) == 1 + 2 * 2 * x.size  # the values, then 2 * dim per row
        rows = np.stack([finite_difference_gradient(fun, x, i) for i in range(2)])
        assert J.tobytes() == rows.tobytes()
        assert vals.tobytes() == pair(x).tobytes()

    def test_wrapped_function_passes_checker(self):
        fun = with_finite_difference_gradient(
            lambda x: np.array([x[0] * x[1]]), output_size=2 - 1
        )
        report = check_gradients({"prod": fun}, np.array([1.0, 2.0]))
        assert report.passed


class TestDifferentiableFunction:
    def test_output_size_validated(self):
        with pytest.raises(ValueError):
            DifferentiableFunction(
                eval=lambda x: np.empty(0), val_jac=lambda x: (x, x), output_size=0
            )

    def test_eval_shape_enforced(self):
        fun = DifferentiableFunction(
            eval=lambda x: np.array([1.0, 2.0]),
            val_jac=lambda x: (np.array([1.0, 2.0]), np.zeros((1, 1))),
            output_size=1,
        )
        with pytest.raises(ValueError):
            fun.values(np.array([0.0]))

    def test_fused_value_and_jacobian_used_when_given(self):
        calls = []

        def val_jac(x):
            calls.append(True)
            return np.array([x[0]]), np.array([[1.0]])

        fun = DifferentiableFunction(
            eval=lambda x: np.array([x[0]]),
            val_jac=val_jac,
            output_size=1,
        )
        vals, J = fun.value_and_jacobian(np.array([2.0]))
        assert calls and vals.tolist() == [2.0] and J.tolist() == [[1.0]]

    @staticmethod
    def _fused(values, jacobian):
        return DifferentiableFunction(
            eval=lambda x: np.array([0.0]),
            val_jac=lambda x: (np.array(values), np.array(jacobian)),
            output_size=1,
            name="fused",
        )

    def test_fused_value_shape_enforced(self):
        fun = self._fused([1.0, 2.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match=r"fused: eval returned shape \(2,\), expected \(1,\)"):
            fun.value_and_jacobian(np.zeros(2))

    def test_fused_jacobian_shape_enforced(self):
        fun = self._fused([1.0], np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"fused: Jacobian shape \(3, 2\), expected \(1, 2\)"):
            fun.value_and_jacobian(np.zeros(2))

    def test_fused_shapes_enforced_through_benchmark_problem(self):
        # two values for a scalar objective used to be read as the loss [0]
        problem = BenchmarkProblem("fused", 2, self._fused([1.0, 2.0], np.zeros((3, 2))))
        with pytest.raises(ValueError, match="eval returned shape"):
            problem.evaluate_with_gradients(np.zeros(2))


class TestCheckGradients:
    def test_correct_oracles_pass(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        report = check_gradients(problem, np.array([0.5, -0.25]))
        assert report.passed
        assert {e.name for e in report.entries} == {"objective", "ball"}
        assert all(e.max_deviation < 1e-6 for e in report.entries)

    def test_sign_flipped_gradient_fails_by_name(self):
        good = square_fn()
        bad = DifferentiableFunction(
            eval=lambda x: np.array([x[0] ** 2]),
            val_jac=lambda x: (np.array([x[0] ** 2]), np.array([[-2.0 * x[0]]])),  # wrong sign
            output_size=1,
            name="broken",
        )
        report = check_gradients(
            {"square": good, "broken": bad}, np.array([1.5])
        )
        assert not report.passed
        assert [e.name for e in report.failures()] == ["broken"]
        assert report.entries[0].passed

    def test_checks_the_jacobian_the_solver_steps_on(self):
        # values right, Jacobian negated: the check must see what a roll steps on
        objective = DifferentiableFunction(
            eval=lambda x: np.array([np.dot(x, x)]),
            val_jac=lambda x: (np.array([np.dot(x, x)]), (-2.0 * x)[None, :]),
            output_size=1,
            name="objective",
        )
        problem = BenchmarkProblem("wrong_sign", 2, objective)
        x = np.array([0.5, -0.25])
        assert problem.evaluate_with_gradients(x).grad_f.tolist() == [-1.0, 0.5]
        report = check_gradients(problem, x)
        assert [e.name for e in report.failures()] == ["objective"]
        assert report.entries[0].max_deviation == pytest.approx(2.0, rel=1e-6)

    def test_accepts_problem_oracles_object(self):
        problem = problem_projection_ball(np.array([1.0, 1.0]))
        report = check_gradients(problem, np.array([0.3, 0.3]))
        assert report.passed

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            check_gradients({"square": square_fn()}, np.array([1.0]), rel_tol=0.0)

    def test_randomized_points_on_known_oracles(self):
        from lagrangekit import normal_stream

        problem = problem_projection_ball(np.array([2.0, 0.0, -1.0]))
        points = normal_stream(123, 300).reshape(100, 3)
        for x in points:
            assert check_gradients(problem, x).passed
