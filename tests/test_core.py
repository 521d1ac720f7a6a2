"""Problem abstraction: groups, states, registration, feasibility."""

import numpy as np
import pytest

import lagrangekit as lk
from lagrangekit import (
    CMPState,
    ConstrainedMinimizationProblem,
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    EvaluationError,
    Formulation,
    PenaltyCoefficient,
)

INEQ = ConstraintType.INEQUALITY
EQ = ConstraintType.EQUALITY


def _problem(dim=2):
    return ConstrainedMinimizationProblem(dim)


class TestConstraintState:
    def test_holds_float64_copies(self):
        v = [1, -2]
        state = ConstraintState(violation=v)
        assert state.violation.dtype == np.float64
        assert state.violation.tolist() == [1.0, -2.0]

    def test_rejects_non_finite_violation(self):
        with pytest.raises(EvaluationError):
            ConstraintState(violation=[np.nan])
        with pytest.raises(EvaluationError):
            ConstraintState(violation=[0.0], strict_violation=[np.inf])

    def test_observed_indices_must_match_length(self):
        with pytest.raises(ValueError):
            ConstraintState(violation=[1.0, 2.0], observed_indices=[0])

    def test_observed_indices_must_be_distinct(self):
        with pytest.raises(ValueError):
            ConstraintState(violation=[1.0, 2.0], observed_indices=[1, 1])

    def test_observed_indices_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ConstraintState(violation=[1.0], observed_indices=[-1])

    def test_strict_length_matches_violation(self):
        with pytest.raises(ValueError):
            ConstraintState(violation=[1.0], strict_violation=[1.0, 2.0])

    def test_dual_violation_prefers_strict(self):
        plain = ConstraintState(violation=[0.5])
        proxy = ConstraintState(violation=[0.5], strict_violation=[1.0])
        assert plain.dual_violation.tolist() == [0.5]
        assert proxy.dual_violation.tolist() == [1.0]


class TestConstraintGroup:
    def test_quadratic_penalty_forbids_multiplier(self):
        mult = lk.DenseMultiplier(1, INEQ)
        with pytest.raises(ValueError):
            ConstraintGroup(
                name="g",
                constraint_type=INEQ,
                size=1,
                formulation=Formulation.QUADRATIC_PENALTY,
                multiplier=mult,
                penalty=PenaltyCoefficient(1.0),
            )

    def test_lagrangian_forbids_penalty(self):
        with pytest.raises(ValueError):
            ConstraintGroup(
                name="g", constraint_type=INEQ, size=1, penalty=PenaltyCoefficient(1.0)
            )

    def test_augmented_lagrangian_requires_penalty(self):
        with pytest.raises(ValueError):
            ConstraintGroup(
                name="g",
                constraint_type=INEQ,
                size=1,
                formulation=Formulation.AUGMENTED_LAGRANGIAN,
            )

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            ConstraintGroup(name="g", constraint_type=INEQ, size=0)

    def test_penalty_length_must_be_scalar_or_size(self):
        with pytest.raises(ValueError):
            ConstraintGroup(
                name="g",
                constraint_type=INEQ,
                size=3,
                formulation=Formulation.QUADRATIC_PENALTY,
                penalty=PenaltyCoefficient([1.0, 2.0]),
            )


class TestRegisterGroup:
    def test_lagrangian_inequality_allocates_zero_multiplier(self):
        problem = _problem()
        gid = problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=1))
        assert problem.group(gid).multiplier.values.tolist() == [0.0]

    def test_two_groups_retrievable_with_distinct_ids(self):
        problem = _problem()
        a = problem.register_group(ConstraintGroup(name="norm", constraint_type=INEQ, size=1))
        b = problem.register_group(ConstraintGroup(name="fair", constraint_type=INEQ, size=2))
        assert a != b
        assert problem.group("norm").size == 1
        assert problem.group("fair").size == 2

    def test_duplicate_id_rejected(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=1))
        with pytest.raises(ValueError):
            problem.register_group(ConstraintGroup(name="g", constraint_type=EQ, size=1))

    def test_frozen_after_first_use(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            problem.register_group(ConstraintGroup(name="late", constraint_type=INEQ, size=1))

    def test_quadratic_penalty_group_gets_no_multiplier(self):
        problem = _problem()
        gid = problem.register_group(
            ConstraintGroup(
                name="qp",
                constraint_type=INEQ,
                size=2,
                formulation=Formulation.QUADRATIC_PENALTY,
                penalty=PenaltyCoefficient(1.0),
            )
        )
        assert problem.group(gid).multiplier is None

    def test_unknown_group_lookup_fails(self):
        with pytest.raises(ValueError):
            _problem().group("missing")


class TestComputeCmpState:
    def test_logreg_analog_feasible_at_origin(self):
        problem = lk.problem_norm_constrained_logreg(0, 1.0)
        state = problem.compute_cmp_state(np.zeros(6))
        assert state.observed_constraints["norm"].violation.tolist() == [-1.0]

    def test_logreg_analog_violation_plus_one(self):
        # ||x||^2 = 2 against threshold 1
        problem = lk.problem_norm_constrained_logreg(0, 1.0)
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        state = problem.compute_cmp_state(x)
        assert state.observed_constraints["norm"].violation.tolist() == [1.0]

    def test_equality_constraint_zero_at_root(self):
        problem = lk.problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        state = problem.compute_cmp_state(np.array([1.0, 1.0]))
        assert state.observed_constraints["linear"].violation.tolist() == [0.0]

    def test_wrong_dimension_is_hard_error(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            problem.compute_cmp_state(np.zeros(3))

    def test_non_finite_point_rejected(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        with pytest.raises(EvaluationError):
            problem.compute_cmp_state(np.array([np.nan, 0.0]))

    def test_set_x_rejects_non_finite_point_and_keeps_x(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        problem.set_x(np.array([0.5, 0.25]))
        with pytest.raises(EvaluationError):
            problem.set_x(np.array([np.nan, 0.0]))
        assert problem.x.tolist() == [0.5, 0.25]

    def test_purity_bitwise(self):
        problem = lk.problem_norm_constrained_logreg(0, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.normal(size=6)
            s1 = problem.compute_cmp_state(x)
            s2 = problem.compute_cmp_state(x)
            assert s1.loss == s2.loss
            assert (
                s1.observed_constraints["norm"].violation.tobytes()
                == s2.observed_constraints["norm"].violation.tobytes()
            )

    def test_misc_is_carried_opaquely(self):
        payload = {"note": object()}
        state = CMPState(loss=0.0, observed_constraints={}, misc=payload)
        assert state.misc["note"] is payload["note"]

    def test_non_finite_loss_rejected(self):
        with pytest.raises(EvaluationError):
            CMPState(loss=float("inf"), observed_constraints={})


class TestErrorCarriesGroupId:
    def test_group_id_attached_to_violation_failure(self):
        block = lk.ConstraintBlock(
            group=ConstraintGroup(name="frag", constraint_type=INEQ, size=1),
            function=lk.DifferentiableFunction(
                eval=lambda x: np.array([np.inf]),
                grad_row=lambda x, i: np.zeros(1),
                output_size=1,
                name="frag",
            ),
        )
        objective = lk.DifferentiableFunction(
            eval=lambda x: np.array([0.0]),
            grad_row=lambda x, i: np.zeros(1),
            output_size=1,
            name="objective",
        )
        problem = lk.BenchmarkProblem("fragile", 1, objective, blocks=(block,))
        with pytest.raises(EvaluationError) as err:
            problem.compute_cmp_state(np.zeros(1))
        assert err.value.group_id == "frag"


class TestIsFeasible:
    def _with_groups(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="ineq", constraint_type=INEQ, size=1))
        problem.register_group(ConstraintGroup(name="eq", constraint_type=EQ, size=1))
        return problem

    def test_negative_inequality_feasible_at_zero_tol(self):
        problem = self._with_groups()
        state = CMPState(
            loss=0.0,
            observed_constraints={"ineq": ConstraintState(violation=[-0.5])},
        )
        assert problem.is_feasible(state, 0.0)

    def test_small_positive_violation_infeasible_below_tol(self):
        problem = self._with_groups()
        state = CMPState(
            loss=0.0,
            observed_constraints={"ineq": ConstraintState(violation=[1e-5])},
        )
        assert not problem.is_feasible(state, 1e-6)

    def test_equality_uses_absolute_value(self):
        problem = self._with_groups()
        state = CMPState(
            loss=0.0,
            observed_constraints={"eq": ConstraintState(violation=[-1e-7])},
        )
        assert problem.is_feasible(state, 1e-6)

    def test_negative_tol_rejected(self):
        problem = self._with_groups()
        state = CMPState(loss=0.0, observed_constraints={})
        with pytest.raises(ValueError):
            problem.is_feasible(state, -1.0)

    def test_sign_convention_matches_mathematical_feasibility(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(scale=0.8, size=2)
            state = problem.compute_cmp_state(x)
            assert problem.is_feasible(state, 0.0) == (float(x @ x) <= 1.0)


class TestCheckState:
    def test_unregistered_group_rejected(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=1))
        state = CMPState(
            loss=0.0, observed_constraints={"other": ConstraintState(violation=[0.0])}
        )
        with pytest.raises(ValueError):
            problem.check_state(state)

    def test_full_observation_must_match_group_size(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=2))
        state = CMPState(
            loss=0.0, observed_constraints={"g": ConstraintState(violation=[0.0])}
        )
        with pytest.raises(ValueError):
            problem.check_state(state)

    def test_partial_observation_indices_in_range(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=2))
        state = CMPState(
            loss=0.0,
            observed_constraints={
                "g": ConstraintState(violation=[0.0], observed_indices=[3])
            },
        )
        with pytest.raises(ValueError):
            problem.check_state(state)


def test_backend_attribute_exposed():
    # perfbench/run.py prints lagrangekit.BACKEND on its environment line
    assert lk.BACKEND == "numpy"
