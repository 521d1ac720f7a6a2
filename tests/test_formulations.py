"""Penalty coefficients and the constraint-to-scalar formulations.

Hand-computed values below come from the closed forms (shifted quadratic for
inequalities, linear plus quadratic for equalities) and are frozen as oracles.
"""

import numpy as np
import pytest

from lagrangekit import (
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    EvaluationError,
    Formulation,
    Multiplier,
    PenaltyCoefficient,
    assemble_lagrangian,
    group_contribution,
)

INEQ = ConstraintType.INEQUALITY
EQ = ConstraintType.EQUALITY


def lag_group(size=1, ctype=INEQ, name="g"):
    return ConstraintGroup(name=name, constraint_type=ctype, size=size)


def al_group(size=1, ctype=INEQ, c=1.0, name="g"):
    return ConstraintGroup(
        name=name,
        constraint_type=ctype,
        size=size,
        formulation=Formulation.AUGMENTED_LAGRANGIAN,
        penalty=PenaltyCoefficient(c),
    )


def qp_group(size=1, ctype=INEQ, c=1.0, name="g"):
    return ConstraintGroup(
        name=name,
        constraint_type=ctype,
        size=size,
        formulation=Formulation.QUADRATIC_PENALTY,
        penalty=PenaltyCoefficient(c),
    )


class TestPenaltyCoefficient:
    def test_scalar_expands_to_group_size(self):
        pair = group_contribution(qp_group(size=3, c=2.0), ConstraintState(violation=[1.0] * 3))
        assert pair.primal_weights.tolist() == [2.0, 2.0, 2.0]

    def test_vector_kept_elementwise(self):
        group = qp_group(size=2, c=np.array([1.0, 2.0]))
        pair = group_contribution(group, ConstraintState(violation=[1.0, 1.0]))
        assert pair.primal_weights.tolist() == [1.0, 2.0]

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(ValueError) as info:
            qp_group(size=3, c=np.array([1.0, 2.0]))
        assert str(info.value) == "vector penalty length 2 != group size 3"

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            PenaltyCoefficient(0.0)
        with pytest.raises(ValueError):
            PenaltyCoefficient([1.0, -2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PenaltyCoefficient(np.inf)


class TestLagrangianContribution:
    def test_inner_product(self):
        pair = group_contribution(
            lag_group(), ConstraintState(violation=[3.0]), np.array([2.0])
        )
        assert pair.primal_term == 6.0
        assert pair.primal_weights.tolist() == [2.0]
        assert pair.dual_signal.tolist() == [3.0]

    def test_zero_multiplier_contributes_nothing(self):
        pair = group_contribution(
            lag_group(), ConstraintState(violation=[5.0]), np.array([0.0])
        )
        assert pair.primal_term == 0.0

    def test_proxy_splits_primal_and_dual(self):
        # surrogate (violation) feeds the primal term, the true measurement
        # (strict_violation) feeds the dual signal
        pair = group_contribution(
            lag_group(),
            ConstraintState(violation=[0.5], strict_violation=[1.0]),
            np.array([1.0]),
        )
        assert pair.primal_term == 0.5
        assert pair.dual_signal.tolist() == [1.0]

    def test_equality_sign_carries_through(self):
        pair = group_contribution(
            lag_group(ctype=EQ), ConstraintState(violation=[0.25]), np.array([-2.0])
        )
        assert pair.primal_term == -0.5
        assert pair.dual_signal.tolist() == [0.25]

    def test_unregistered_group_uses_its_own_multiplier(self):
        # a group builds its multiplier at construction, registered or not
        group = ConstraintGroup(
            name="g", constraint_type=INEQ, size=1, initial_multiplier=[2.0]
        )
        pair = group_contribution(group, ConstraintState(violation=[1.5]), None)
        assert pair.primal_term == 3.0
        assert pair.primal_weights.tolist() == [2.0]
        # the pair keeps a copy, not the multiplier's live array
        assert not np.shares_memory(pair.primal_weights, group.multiplier.values)

    def test_multiplier_object_is_gathered(self):
        m = Multiplier(3, INEQ)
        m.load_values([1.0, 2.0, 3.0])
        state = ConstraintState(violation=[0.5, 0.5], observed_indices=[2, 0])
        pair = group_contribution(lag_group(size=3), state, m)
        assert pair.primal_term == pytest.approx(0.5 * 3.0 + 0.5 * 1.0)


class TestAugmentedLagrangianContribution:
    def test_active_inequality_value(self):
        # c=1, lam=1, g=0.5: (1/2)[max(0, 0.5 + 1)^2 - 1^2] = (2.25 - 1)/2
        pair = group_contribution(
            al_group(), ConstraintState(violation=[0.5]),
            np.array([1.0]), PenaltyCoefficient(1.0),
        )
        assert pair.primal_term == pytest.approx(0.625)
        assert pair.primal_weights.tolist() == [1.5]

    def test_active_inequality_nonunit_penalty(self):
        # c=2, lam=0.5, g=1: (2/2)[(1 + 0.25)^2 - 0.25^2] = 1.5625 - 0.0625
        pair = group_contribution(
            al_group(c=2.0), ConstraintState(violation=[1.0]),
            np.array([0.5]), PenaltyCoefficient(2.0),
        )
        assert pair.primal_term == pytest.approx(1.5)
        assert pair.primal_weights.tolist() == [2.5]

    def test_active_inequality_half_shift(self):
        # c=2, lam=1, g=0.5: (2/2)[max(0, 0.5 + 0.5)^2 - 0.5^2] = 1 - 0.25
        pair = group_contribution(
            al_group(c=2.0), ConstraintState(violation=[0.5]),
            np.array([1.0]), PenaltyCoefficient(2.0),
        )
        assert pair.primal_term == pytest.approx(0.75)
        assert pair.primal_weights.tolist() == [2.0]

    def test_inactive_inequality_flat_region(self):
        # c=1, lam=1, g=-1: max(0, -1 + 1) = 0, term = -(1/2)(1)^2 = -0.5
        pair = group_contribution(
            al_group(), ConstraintState(violation=[-1.0]),
            np.array([1.0]), PenaltyCoefficient(1.0),
        )
        assert pair.primal_term == pytest.approx(-0.5)
        # at the kink the weight takes the subgradient-0 side
        assert pair.primal_weights.tolist() == [0.0]

    def test_inactive_with_zero_multiplier_vanishes(self):
        pair = group_contribution(
            al_group(), ConstraintState(violation=[-1.0]),
            np.array([0.0]), PenaltyCoefficient(1.0),
        )
        assert pair.primal_term == 0.0
        assert pair.primal_weights.tolist() == [0.0]

    def test_equality_value_and_weights(self):
        # mu=1, c=1, h=0.5: mu*h + (c/2)h^2 = 0.5 + 0.125
        pair = group_contribution(
            al_group(ctype=EQ), ConstraintState(violation=[0.5]),
            np.array([1.0]), PenaltyCoefficient(1.0),
        )
        assert pair.primal_term == pytest.approx(0.625)
        assert pair.primal_weights.tolist() == [1.5]

    def test_equality_nonunit_penalty(self):
        # mu=1, c=4, h=0.5: 0.5 + (4/2)(0.25) = 1.0 with weight 1 + 4*0.5 = 3
        pair = group_contribution(
            al_group(ctype=EQ, c=4.0), ConstraintState(violation=[0.5]),
            np.array([1.0]), PenaltyCoefficient(4.0),
        )
        assert pair.primal_term == pytest.approx(1.0)
        assert pair.primal_weights.tolist() == [3.0]

    def test_equality_zero_multiplier(self):
        # mu=0, c=2, h=1: 0 + 1 = 1 with weight mu + c*h = 2
        pair = group_contribution(
            al_group(ctype=EQ, c=2.0), ConstraintState(violation=[1.0]),
            np.array([0.0]), PenaltyCoefficient(2.0),
        )
        assert pair.primal_term == pytest.approx(1.0)
        assert pair.primal_weights.tolist() == [2.0]

    def test_dual_signal_scaled_by_penalty(self):
        pair = group_contribution(
            al_group(c=4.0), ConstraintState(violation=[0.5]),
            np.array([0.0]), PenaltyCoefficient(4.0),
        )
        assert pair.dual_signal.tolist() == [2.0]

    def test_dual_signal_uses_strict_violation_when_present(self):
        pair = group_contribution(
            al_group(c=2.0),
            ConstraintState(violation=[0.5], strict_violation=[0.25]),
            np.array([0.0]), PenaltyCoefficient(2.0),
        )
        assert pair.dual_signal.tolist() == [0.5]

    def test_missing_penalty_rejected_at_assignment(self):
        group = al_group(c=2.0)
        penalty = group.penalty
        with pytest.raises(ValueError, match="requires a penalty coefficient"):
            group.penalty = None
        assert group.penalty is penalty
        # no multiplier values: the group's own (zero) multiplier
        pair = group_contribution(group, ConstraintState(violation=[1.0]), None)
        assert pair.primal_term == pytest.approx(1.0)


class TestQuadraticPenaltyContribution:
    def test_infeasible_inequality(self):
        # c=1, g=1: (1/2) max(0,1)^2 = 0.5, weight c*max(0,g) = 1
        pair = group_contribution(
            qp_group(), ConstraintState(violation=[1.0]), penalty=PenaltyCoefficient(1.0)
        )
        assert pair.primal_term == pytest.approx(0.5)
        assert pair.primal_weights.tolist() == [1.0]

    def test_feasible_point_contributes_zero(self):
        pair = group_contribution(
            qp_group(c=10.0), ConstraintState(violation=[-0.5]), penalty=PenaltyCoefficient(10.0)
        )
        assert pair.primal_term == 0.0
        assert pair.primal_weights.tolist() == [0.0]

    def test_mixed_feasibility_entries(self):
        # c=4, g=(0.5, -1): (4/2)(0.25) + 0 = 0.5, weights (2, 0)
        pair = group_contribution(
            qp_group(size=2, c=4.0),
            ConstraintState(violation=[0.5, -1.0]),
            penalty=PenaltyCoefficient(4.0),
        )
        assert pair.primal_term == pytest.approx(0.5)
        assert pair.primal_weights.tolist() == [2.0, 0.0]

    def test_indexed_inequality_weights_are_clamped(self):
        # c=(1, 2, 3, 4) gathered at (3, 0, 2): g=(0.5, -1, 2) -> weights (2, 0, 6),
        # term (4 * 0.25 + 3 * 4) / 2 = 6.5
        group = qp_group(size=4, c=np.array([1.0, 2.0, 3.0, 4.0]))
        state = ConstraintState(violation=[0.5, -1.0, 2.0], observed_indices=[3, 0, 2])
        pair = group_contribution(group, state)
        assert pair.primal_term == 6.5
        assert pair.primal_weights.tolist() == [2.0, 0.0, 6.0]
        assert pair.dual_signal.size == 0

    def test_equality_value(self):
        # c=1, h=2: (1/2)*4 = 2, weight c*h = 2
        pair = group_contribution(
            qp_group(ctype=EQ), ConstraintState(violation=[2.0]), penalty=PenaltyCoefficient(1.0)
        )
        assert pair.primal_term == pytest.approx(2.0)
        assert pair.primal_weights.tolist() == [2.0]

    def test_dual_signal_empty(self):
        pair = group_contribution(
            qp_group(), ConstraintState(violation=[1.0]), penalty=PenaltyCoefficient(1.0)
        )
        assert pair.dual_signal.size == 0


class TestGroupContributionDispatch:
    def test_uses_group_formulation_and_attached_penalty(self):
        group = al_group(c=2.0)
        state = ConstraintState(violation=[1.0])
        pair = group_contribution(group, state, np.array([0.0]))
        # c=2, lam=0, g=1: (2/2) max(0,1)^2 = 1
        assert pair.primal_term == pytest.approx(1.0)
        assert pair.dual_signal.tolist() == [2.0]

    def test_multiplier_override_replaces_stored_values(self):
        group = ConstraintGroup(
            name="g", constraint_type=INEQ, size=1, initial_multiplier=[1.0]
        )
        state = ConstraintState(violation=[2.0])
        stored = group_contribution(group, state)
        overridden = group_contribution(group, state, np.array([5.0]))
        assert stored.primal_term == 2.0
        assert overridden.primal_term == 10.0

    def test_penalty_override(self):
        group = qp_group(c=1.0)
        state = ConstraintState(violation=[2.0])
        pair = group_contribution(group, state, penalty=PenaltyCoefficient(3.0))
        assert pair.primal_term == pytest.approx(6.0)

    def test_contribution_size_mismatch_rejected(self):
        group = lag_group(size=2)
        with pytest.raises(ValueError):
            group_contribution(group, ConstraintState(violation=[1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("make", [lag_group, al_group, qp_group])
    def test_state_must_fit_the_group(self, make):
        group = make(size=2)
        with pytest.raises(ValueError, match="violation length 1 != group size 2"):
            group_contribution(group, ConstraintState(violation=[1.0]))
        indexed = ConstraintState(violation=[1.0], observed_indices=[2])
        with pytest.raises(ValueError, match="observed index 2 out of range for size 2"):
            group_contribution(group, indexed)

    @pytest.mark.parametrize("override", [np.array([1.0]), Multiplier(3, INEQ)])
    def test_multiplier_override_of_the_wrong_size_rejected(self, override):
        with pytest.raises(ValueError, match=r"multiplier values shape \((1|3),\) != \(2,\)"):
            group_contribution(al_group(size=2), ConstraintState(violation=[1.0, 2.0]), override)

    def test_penalty_override_is_checked(self):
        state = ConstraintState(violation=[1.0, 2.0])
        with pytest.raises(ValueError, match="vector penalty length 3 != group size 2"):
            group_contribution(qp_group(size=2), state, penalty=[1.0, 1.0, 1.0])
        pair = group_contribution(qp_group(size=2), state, penalty=2.0)
        assert pair.primal_term == pytest.approx(5.0)

    def test_lagrangian_group_ignores_a_penalty_override(self):
        state = ConstraintState(violation=[3.0])
        plain = group_contribution(lag_group(), state, np.array([2.0]))
        ignored = group_contribution(lag_group(), state, np.array([2.0]), PenaltyCoefficient(9.0))
        assert ignored.primal_term == plain.primal_term == 6.0
        assert ignored.primal_weights.tolist() == plain.primal_weights.tolist() == [2.0]


class TestAssembleLagrangian:
    def test_loss_plus_terms_and_signal_collection(self):
        a = group_contribution(
            lag_group(name="a"), ConstraintState(violation=[1.0]), np.array([1.0])
        )
        b = group_contribution(
            lag_group(name="b"), ConstraintState(violation=[0.5]), np.array([0.5])
        )
        primal, signals = assemble_lagrangian(1.0, [a, b])
        assert primal == 2.25
        assert list(signals) == ["a", "b"]
        assert signals["a"].tolist() == [1.0]

    def test_no_constraints_reduces_to_loss(self):
        primal, signals = assemble_lagrangian(3.5, [])
        assert primal == 3.5 and signals == {}

    def test_duplicate_group_rejected(self):
        pair = group_contribution(
            lag_group(name="dup"), ConstraintState(violation=[1.0]), np.array([1.0])
        )
        with pytest.raises(ValueError):
            assemble_lagrangian(0.0, [pair, pair])

    def test_non_finite_loss_rejected(self):
        with pytest.raises(EvaluationError):
            assemble_lagrangian(np.inf, [])

    def test_zero_multipliers_reduce_plain_lagrangian_to_loss(self):
        rng = np.random.default_rng(31)
        group = lag_group(size=3)
        for _ in range(100):
            state = ConstraintState(violation=rng.normal(size=3))
            pair = group_contribution(group, state, np.zeros(3))
            primal, _ = assemble_lagrangian(2.0, [pair])
            assert primal == 2.0


class TestCrossFormulationInvariants:
    def test_augmented_dominates_plain_on_strict_violations(self):
        # for g > 0 elementwise the quadratic part is strictly positive, so
        # the augmented primal term exceeds the plain inner product
        rng = np.random.default_rng(37)
        lg = lag_group(size=4)
        ag = al_group(size=4)
        for _ in range(100):
            g = np.abs(rng.normal(size=4)) + 1e-3
            lam = np.abs(rng.normal(size=4))
            state = ConstraintState(violation=g)
            p = group_contribution(lg, state, lam)
            a = group_contribution(ag, state, lam, PenaltyCoefficient(1.0))
            assert a.primal_term > p.primal_term

    def test_augmented_dual_signal_is_penalty_times_plain(self):
        rng = np.random.default_rng(41)
        lg = lag_group(size=3)
        ag = al_group(size=3)
        for _ in range(100):
            state = ConstraintState(violation=rng.normal(size=3))
            lam = np.abs(rng.normal(size=3))
            c = np.abs(rng.normal(size=3)) + 0.5
            p = group_contribution(lg, state, lam)
            a = group_contribution(ag, state, lam, PenaltyCoefficient(c))
            assert a.dual_signal.tobytes() == (c * p.dual_signal).tobytes()

    def test_quadratic_penalty_feasibility_dichotomy(self):
        rng = np.random.default_rng(47)
        group = qp_group(size=4, c=2.0)
        pen = PenaltyCoefficient(2.0)
        for _ in range(100):
            g = rng.normal(size=4)
            pair = group_contribution(
                group, ConstraintState(violation=g), penalty=pen
            )
            if np.all(g <= 0.0):
                assert pair.primal_term == 0.0
            if np.any(g > 0.0):
                assert pair.primal_term > 0.0

    def test_non_finite_contribution_fields_rejected(self):
        from lagrangekit import ContributionPair

        with pytest.raises(EvaluationError):
            ContributionPair("g", np.inf, np.empty(0), np.empty(0))
        with pytest.raises(EvaluationError):
            ContributionPair("g", 0.0, np.array([np.nan]), np.empty(0))
