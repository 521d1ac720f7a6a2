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
    checkpoint,
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

    @pytest.mark.parametrize(
        "indices",
        [[0.7, 1.9], [True, False], np.array([1.0, 0.0])],
        ids=["fractional", "bool-mask", "integral-floats"],
    )
    def test_observed_indices_must_be_integers(self, indices):
        with pytest.raises(ValueError, match="integers"):
            ConstraintState(violation=[1.0, 2.0], observed_indices=indices)

    def test_integer_indices_of_any_width_and_empty_list_accepted(self):
        narrow = ConstraintState(
            violation=[1.0, 2.0], observed_indices=np.array([1, 0], dtype=np.uint8)
        )
        assert narrow.observed_indices.dtype == np.int64
        assert narrow.observed_indices.tolist() == [1, 0]
        empty = ConstraintState(violation=[], observed_indices=[])
        assert empty.observed_indices.dtype == np.int64
        assert empty.observed_indices.size == 0

    def test_strict_length_matches_violation(self):
        with pytest.raises(ValueError):
            ConstraintState(violation=[1.0], strict_violation=[1.0, 2.0])

    def test_dual_violation_prefers_strict(self):
        plain = ConstraintState(violation=[0.5])
        proxy = ConstraintState(violation=[0.5], strict_violation=[1.0])
        assert plain.dual_violation.tolist() == [0.5]
        assert proxy.dual_violation.tolist() == [1.0]


class TestConstraintGroup:
    @pytest.mark.parametrize("size", [1.5, 1.0, True], ids=repr)
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(ValueError, match=f"group size must be an integer, got {size!r}"):
            ConstraintGroup("g", INEQ, size)
        assert ConstraintGroup("g", INEQ, np.int64(3)).size == 3

    def test_quadratic_penalty_forbids_multiplier(self):
        qp = dict(
            name="g",
            constraint_type=INEQ,
            size=1,
            formulation=Formulation.QUADRATIC_PENALTY,
            penalty=PenaltyCoefficient(1.0),
        )
        assert ConstraintGroup(**qp).multiplier is None
        with pytest.raises(ValueError, match="quadratic penalty groups have no multiplier"):
            ConstraintGroup(**qp, initial_multiplier=[1.0])
        with pytest.raises(ValueError, match="quadratic penalty groups have no multiplier"):
            ConstraintGroup(**qp, indexed=True)

    @pytest.mark.parametrize("indexed", [False, True])
    def test_group_builds_its_own_multiplier(self, indexed):
        group = ConstraintGroup(
            name="g", constraint_type=EQ, size=2, indexed=indexed, initial_multiplier=[1.0, -2.0]
        )
        cls = lk.IndexedMultiplier if indexed else lk.Multiplier
        assert type(group.multiplier) is cls
        assert group.multiplier.size == 2 and group.multiplier.constraint_type is EQ
        assert group.multiplier.values.tolist() == [1.0, -2.0]
        problem = _problem()
        problem.register_group(group)
        assert problem.group("g").multiplier is group.multiplier

    def test_bad_initial_multiplier_fails_at_construction(self):
        with pytest.raises(ValueError, match="values shape"):
            ConstraintGroup(name="g", constraint_type=INEQ, size=2, initial_multiplier=[1.0])
        with pytest.raises(ValueError, match=">= 0"):
            ConstraintGroup(name="g", constraint_type=INEQ, size=1, initial_multiplier=[-1.0])
        with pytest.raises(EvaluationError):
            ConstraintGroup(name="g", constraint_type=EQ, size=1, initial_multiplier=[np.nan])

    def test_penalty_is_stored_as_a_coefficient(self):
        group = ConstraintGroup(
            name="g", constraint_type=INEQ, size=2,
            formulation=Formulation.AUGMENTED_LAGRANGIAN, penalty=3.0,
        )
        assert isinstance(group.penalty, PenaltyCoefficient)
        assert group.penalty.value == 3.0
        group.penalty = [1.0, 2.0]
        assert isinstance(group.penalty, PenaltyCoefficient)
        assert group.penalty.value.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "attr", ["name", "constraint_type", "size", "formulation", "multiplier", "indexed", "other"]
    )
    def test_only_the_penalty_can_be_assigned(self, attr):
        group = ConstraintGroup(name="g", constraint_type=INEQ, size=1)
        before = getattr(group, attr, None)
        with pytest.raises(AttributeError, match="only the penalty can be reassigned"):
            setattr(group, attr, lk.Multiplier(1, INEQ) if attr == "multiplier" else 2)
        assert getattr(group, attr, None) is before

    @pytest.mark.parametrize(
        "formulation, value, message",
        [
            (Formulation.AUGMENTED_LAGRANGIAN, None, "requires a penalty coefficient"),
            (Formulation.QUADRATIC_PENALTY, None, "requires a penalty coefficient"),
            (Formulation.LAGRANGIAN, 1.0, "Lagrangian groups have no penalty"),
            (Formulation.LAGRANGIAN, PenaltyCoefficient(1.0), "Lagrangian groups have no penalty"),
            (Formulation.AUGMENTED_LAGRANGIAN, [1.0, 2.0], "vector penalty length 2 != group size 3"),
            (Formulation.QUADRATIC_PENALTY, 0.0, "penalty must be finite and > 0"),
        ],
        ids=["none-al", "none-qp", "float-lagrangian", "coefficient-lagrangian",
             "wrong-length", "non-positive"],
    )
    def test_rejected_penalty_assignment_changes_nothing(self, formulation, value, message):
        penalty = None if formulation is Formulation.LAGRANGIAN else PenaltyCoefficient(2.0)
        group = ConstraintGroup(
            name="g", constraint_type=INEQ, size=3, formulation=formulation, penalty=penalty
        )
        with pytest.raises(ValueError, match=message):
            group.penalty = value
        assert group.penalty is penalty

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


class TestProblemDimension:
    @pytest.mark.parametrize("dim", [2.7, 2.0, True], ids=repr)
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match=f"problem dimension must be an integer, got {dim!r}"):
            ConstrainedMinimizationProblem(dim)
        assert ConstrainedMinimizationProblem(np.int64(2)).dim == 2

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError, match="problem dimension must be >= 1, got 0"):
            ConstrainedMinimizationProblem(0)


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


class TestEvaluationState:
    def test_logreg_analog_feasible_at_origin(self):
        problem = lk.problem_norm_constrained_logreg(0, 1.0)
        state = problem.evaluate_with_gradients(np.zeros(6)).state
        assert state.observed_constraints["norm"].violation.tolist() == [-1.0]

    def test_logreg_analog_violation_plus_one(self):
        # ||x||^2 = 2 against threshold 1
        problem = lk.problem_norm_constrained_logreg(0, 1.0)
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        state = problem.evaluate_with_gradients(x).state
        assert state.observed_constraints["norm"].violation.tolist() == [1.0]

    def test_equality_constraint_zero_at_root(self):
        problem = lk.problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        state = problem.evaluate_with_gradients(np.array([1.0, 1.0])).state
        assert state.observed_constraints["linear"].violation.tolist() == [0.0]

    def test_wrong_dimension_is_hard_error(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            problem.evaluate_with_gradients(np.zeros(3))

    def test_non_finite_point_rejected(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        with pytest.raises(EvaluationError):
            problem.evaluate_with_gradients(np.array([np.nan, 0.0]))

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
            s1 = problem.evaluate_with_gradients(x).state
            s2 = problem.evaluate_with_gradients(x).state
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
                val_jac=lambda x: (np.array([np.inf]), np.zeros((1, 1))),
                output_size=1,
                name="frag",
            ),
        )
        objective = lk.DifferentiableFunction(
            eval=lambda x: np.array([0.0]),
            val_jac=lambda x: (np.array([0.0]), np.zeros((1, 1))),
            output_size=1,
            name="objective",
        )
        problem = lk.BenchmarkProblem("fragile", 1, objective, blocks=(block,))
        with pytest.raises(EvaluationError) as err:
            problem.evaluate_with_gradients(np.zeros(1))
        assert err.value.group_id == "frag"


def _evaluation(problem, observed):
    """A user-built evaluation of ``observed`` at loss 0, with zero gradients."""
    return lk.Evaluation(
        state=CMPState(loss=0.0, observed_constraints=observed),
        grad_f=np.zeros(problem.dim),
        jacobians={gid: np.zeros((c.violation.size, problem.dim)) for gid, c in observed.items()},
    )


def _feasibility(problem, observed):
    return lk.current_kkt_residual(problem, _evaluation(problem, observed)).feasibility


class TestFeasibility:
    def _with_groups(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="ineq", constraint_type=INEQ, size=1))
        problem.register_group(ConstraintGroup(name="eq", constraint_type=EQ, size=1))
        return problem

    def test_negative_inequality_feasible_at_zero_tol(self):
        problem = self._with_groups()
        assert _feasibility(problem, {"ineq": ConstraintState(violation=[-0.5])}) <= 0.0

    def test_small_positive_violation_infeasible_below_tol(self):
        problem = self._with_groups()
        assert not _feasibility(problem, {"ineq": ConstraintState(violation=[1e-5])}) <= 1e-6

    def test_equality_uses_absolute_value(self):
        problem = self._with_groups()
        assert _feasibility(problem, {"eq": ConstraintState(violation=[-1e-7])}) <= 1e-6

    def test_sign_convention_matches_mathematical_feasibility(self):
        problem = lk.problem_projection_ball(np.array([3.0, 4.0]))
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(scale=0.8, size=2)
            feasible = lk.kkt_residual(problem, x).feasibility <= 0.0
            assert feasible == (float(x @ x) <= 1.0)


class TestEvaluationFit:
    """A user-built evaluation whose state does not fit the registered groups is refused."""

    def test_unregistered_group_rejected(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=1))
        with pytest.raises(ValueError) as info:
            lk.assemble(problem, _evaluation(problem, {"other": ConstraintState(violation=[0.0])}))
        assert str(info.value) == "unknown group id 'other'"

    def test_full_observation_must_match_group_size(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=2))
        with pytest.raises(ValueError) as info:
            lk.assemble(problem, _evaluation(problem, {"g": ConstraintState(violation=[0.0])}))
        assert str(info.value) == "group 'g': violation length 1 != group size 2"

    def test_partial_observation_indices_in_range(self):
        problem = _problem()
        problem.register_group(ConstraintGroup(name="g", constraint_type=INEQ, size=2))
        with pytest.raises(ValueError) as info:
            observed = {"g": ConstraintState(violation=[0.0], observed_indices=[3])}
            lk.assemble(problem, _evaluation(problem, observed))
        assert str(info.value) == "group 'g': observed index 3 out of range for size 2"


def _assert_read_only(x):
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 1.0


def _ball():
    return lk.problem_projection_ball(np.array([3.0, 4.0]))


def _ball_optimizers(problem):
    return lk.PrimalDualOptimizers(
        primal=lk.Momentum(0.05),
        duals=lk.make_dual_optimizers(problem, lambda: lk.NuPI(0.05)),
    )


class TestReadOnlyX:
    """The committed x is read-only, which is why evaluations may trust it."""

    def test_after_construction(self):
        _assert_read_only(_problem().x)
        x0 = np.array([1.0, 2.0])
        problem = ConstrainedMinimizationProblem(2, x0=x0)
        _assert_read_only(problem.x)
        assert x0.flags.writeable  # the caller's array is copied, not frozen
        _assert_read_only(_ball().x)

    def test_after_set_x(self):
        problem = _ball()
        point = np.array([0.5, 0.25])
        problem.set_x(point)
        _assert_read_only(problem.x)
        assert point.flags.writeable
        assert problem.x.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("scheme", lk.SCHEMES)
    def test_after_roll(self, scheme):
        problem = _ball()
        lk.roll(problem, _ball_optimizers(problem), scheme=scheme)
        assert problem.x.tolist() != [0.0, 0.0]
        _assert_read_only(problem.x)

    def test_after_checkpoint_load(self, tmp_path):
        problem = _ball()
        optimizers = _ball_optimizers(problem)
        lk.roll(problem, optimizers)
        checkpoint.save(problem, optimizers, tmp_path / "state.ckpt")
        restored = _ball()
        checkpoint.load(tmp_path / "state.ckpt", restored, _ball_optimizers(restored))
        assert restored.x.tobytes() == problem.x.tobytes()
        _assert_read_only(restored.x)

    def test_any_other_point_is_still_checked(self):
        problem = _ball()
        with pytest.raises(EvaluationError, match="non-finite primal point"):
            problem.evaluate_with_gradients(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            problem.evaluate_with_gradients(np.zeros(3))
        # a writable copy of the committed x is a different array: checked too
        copy = problem.x.copy()
        assert problem.evaluate_with_gradients(copy).state.loss == 25.0

    @pytest.mark.parametrize("make", [_ball, lambda: ConstrainedMinimizationProblem(2)])
    def test_check_point_returns_the_committed_x_and_checks_a_copy(self, make):
        problem = make()
        assert problem._check_point(problem.x) is problem.x
        copy = problem.x.copy()
        assert copy.flags.writeable
        copy[0] = np.nan
        with pytest.raises(EvaluationError, match="non-finite primal point"):
            problem._check_point(copy)


def test_backend_attribute_exposed():
    # perfbench/run.py prints lagrangekit.BACKEND on its environment line
    assert lk.BACKEND == "numpy"
