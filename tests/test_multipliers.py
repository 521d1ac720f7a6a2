"""Dual variables: projection, delta application, partial updates, gathering."""

import numpy as np
import pytest

import lagrangekit as lk
from lagrangekit import (
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    DenseMultiplier,
    EvaluationError,
    GradientAscent,
    IndexedMultiplier,
    Multiplier,
    NuPI,
    checkpoint,
    multiplier_values_for,
)

INEQ = ConstraintType.INEQUALITY
EQ = ConstraintType.EQUALITY


class TestProject:
    def test_inequality_clips_negatives(self):
        m = DenseMultiplier(2, INEQ)
        m.load_values([1.0, 2.0])
        # drive a negative entry in via a delta, then check the clip
        m.apply_dual_delta(np.array([-3.0, 0.0]))
        assert m.values.tolist() == [0.0, 2.0]

    def test_equality_multiplier_unconstrained(self):
        m = DenseMultiplier(1, EQ)
        m.load_values([-3.0])
        assert m.apply_dual_delta(np.zeros(1)).values.tolist() == [-3.0]

    def test_idempotence_over_random_values(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = DenseMultiplier(4, INEQ)
            m.apply_dual_delta(rng.normal(size=4))
            # a zero delta only projects
            once = m.apply_dual_delta(np.zeros(4)).copy_values()
            twice = m.apply_dual_delta(np.zeros(4)).copy_values()
            assert once.tobytes() == twice.tobytes()


class TestApplyDualDelta:
    def test_dense_inequality_clips_at_zero(self):
        m = DenseMultiplier(1, INEQ)
        m.load_values([1.0])
        m.apply_dual_delta(np.array([-2.0]))
        assert m.values.tolist() == [0.0]

    def test_indexed_partial_update(self):
        m = IndexedMultiplier(3, INEQ)
        m.load_values([1.0, 2.0, 3.0])
        m.apply_dual_delta(np.array([0.5, -0.1]), indices=np.array([0, 2]))
        assert m.values.tolist() == [1.5, 2.0, 2.9]
        assert m.update_count.tolist() == [1, 0, 1]

    def test_dense_equality_goes_negative(self):
        m = DenseMultiplier(1, EQ)
        m.apply_dual_delta(np.array([-0.7]))
        assert m.values.tolist() == [-0.7]

    def test_out_of_range_index_rejected(self):
        m = IndexedMultiplier(3, INEQ)
        with pytest.raises(ValueError):
            m.apply_dual_delta(np.array([1.0]), indices=np.array([3]))

    @pytest.mark.parametrize(
        "indices", [[1.5], [True], np.array([2.9])], ids=["fractional", "bool", "array"]
    )
    def test_non_integer_indices_rejected(self, indices):
        m = DenseMultiplier(3, INEQ)
        with pytest.raises(ValueError, match="integers"):
            m.preview_delta(np.array([1.0]), indices=indices)
        with pytest.raises(ValueError, match="integers"):
            GradientAscent(1.0).step(np.array([1.0]), indices, m.size)
        assert m.values.tolist() == [0.0, 0.0, 0.0]

    def test_empty_index_list_accepted(self):
        m = IndexedMultiplier(3, INEQ)
        m.load_values([1.0, 2.0, 3.0])
        assert m.preview_delta(np.array([]), indices=[]).tolist() == [1.0, 2.0, 3.0]
        delta, _ = GradientAscent(1.0).step(np.array([]), [], m.size)
        m.apply_dual_delta(delta, indices=[])
        assert m.values.tolist() == [1.0, 2.0, 3.0]
        assert m.update_count.tolist() == [0, 0, 0]

    def test_duplicate_index_rejected(self):
        m = IndexedMultiplier(3, INEQ)
        with pytest.raises(ValueError):
            m.apply_dual_delta(np.array([1.0, 1.0]), indices=np.array([1, 1]))

    def test_delta_length_must_match(self):
        m = DenseMultiplier(3, INEQ)
        with pytest.raises(ValueError):
            m.apply_dual_delta(np.array([1.0]))

    def test_non_finite_delta_rejected_without_mutation(self):
        m = DenseMultiplier(2, INEQ)
        m.load_values([1.0, 2.0])
        with pytest.raises(EvaluationError):
            m.apply_dual_delta(np.array([np.nan, 0.0]))
        assert m.values.tolist() == [1.0, 2.0]

    def test_nonnegativity_preserved_under_random_sequences(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = DenseMultiplier(3, INEQ)
            for _ in range(10):
                m.apply_dual_delta(rng.normal(scale=2.0, size=3))
                assert m.values.min() >= 0.0


class TestPreviewDelta:
    def test_preview_does_not_mutate(self):
        m = DenseMultiplier(2, INEQ)
        m.load_values([1.0, 1.0])
        preview = m.preview_delta(np.array([0.5, -3.0]))
        assert preview.tolist() == [1.5, 0.0]
        assert m.values.tolist() == [1.0, 1.0]

    def test_partial_preview_keeps_unaddressed_bits(self):
        m = IndexedMultiplier(3, EQ)
        m.load_values([0.1, 0.2, 0.3])
        preview = m.preview_delta(np.array([1.0]), indices=np.array([1]))
        assert preview[0] == m.values[0] and preview[2] == m.values[2]
        assert preview[1] == 0.2 + 1.0


class TestMultiplierValuesFor:
    def test_gather_by_observed_indices(self):
        m = DenseMultiplier(3, INEQ)
        m.load_values([1.0, 2.0, 3.0])
        state = ConstraintState(violation=[0.0, 0.0], observed_indices=[2, 0])
        assert multiplier_values_for(state, m).tolist() == [3.0, 1.0]

    def test_absent_indices_full_copy(self):
        m = DenseMultiplier(3, INEQ)
        m.load_values([1.0, 2.0, 3.0])
        state = ConstraintState(violation=[0.0, 0.0, 0.0])
        got = multiplier_values_for(state, m)
        assert got.tolist() == [1.0, 2.0, 3.0]
        got[0] = 99.0
        assert m.values[0] == 1.0

    def test_out_of_range_index_rejected(self):
        m = DenseMultiplier(3, INEQ)
        state = ConstraintState(violation=[0.0], observed_indices=[5])
        with pytest.raises(ValueError):
            multiplier_values_for(state, m)


class TestInitialization:
    def test_starts_at_exact_zero(self):
        assert DenseMultiplier(4, INEQ).values.tolist() == [0.0] * 4

    def test_override_at_construction(self):
        m = DenseMultiplier(2, EQ, values=[1.5, -2.0])
        assert m.values.tolist() == [1.5, -2.0]

    def test_negative_initial_inequality_rejected(self):
        with pytest.raises(ValueError):
            DenseMultiplier(1, INEQ, values=[-1.0])

    @pytest.mark.parametrize("size", [2.5, 2.0, True], ids=repr)
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(ValueError, match=f"multiplier size must be an integer, got {size!r}"):
            DenseMultiplier(size, INEQ)
        assert DenseMultiplier(np.int32(2), INEQ).size == 2

    def test_base_class_is_shared(self):
        assert isinstance(DenseMultiplier(1, INEQ), Multiplier)
        assert isinstance(IndexedMultiplier(1, INEQ), Multiplier)


class TestDenseIndexedEquivalence:
    def test_full_observation_trajectories_bitwise_identical(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            dense = DenseMultiplier(3, INEQ)
            indexed = IndexedMultiplier(3, INEQ)
            all_idx = np.arange(3)
            for _ in range(20):
                delta = rng.normal(size=3)
                dense.apply_dual_delta(delta)
                indexed.apply_dual_delta(delta, indices=all_idx)
                assert dense.values.tobytes() == indexed.values.tobytes()

    def test_unobserved_entries_frozen(self):
        rng = np.random.default_rng(29)
        m = IndexedMultiplier(4, INEQ, values=[0.5, 1.5, 2.5, 3.5])
        subset = np.array([0, 2])
        before = m.values.copy()
        for _ in range(50):
            m.apply_dual_delta(rng.normal(size=2), indices=subset)
        assert m.values[1] == before[1] and m.values[3] == before[3]
        assert m.update_count.tolist()[1::2] == [0, 0]


class TestArrayContract:
    """``values``, ``update_count`` and NuPI ``buffer_state()`` are live views.

    An indexed commit writes the addressed entries of these arrays in place,
    so a caller copies them to keep them. Every array a caller hands in is
    copied on the way in, so no later commit writes into it.
    """

    SIGNAL = np.array([0.5, -0.25])
    IDX = np.array([2, 0])

    def commit(self, mult, dual):
        delta, staged = dual.step(self.SIGNAL, self.IDX, mult.size)
        mult.apply_dual_delta(delta, self.IDX)
        dual.commit(staged)

    def test_accessors_are_live_views(self):
        mult, dual = IndexedMultiplier(4, INEQ), NuPI(0.1)
        self.commit(mult, dual)
        live = [mult.values, mult.update_count, *dual.buffer_state().values()]
        kept = [arr.copy() for arr in live]
        self.commit(mult, dual)
        now = [mult.values, mult.update_count, *dual.buffer_state().values()]
        assert all(a is b for a, b in zip(live, now))
        assert [arr.tolist() for arr in kept] != [arr.tolist() for arr in live]
        assert kept[1].tolist() == [1, 0, 1, 0] and live[1].tolist() == [2, 0, 2, 0]

    def test_handed_in_arrays_are_never_written(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        counts = np.array([5, 6, 7, 8])
        ema = np.array([0.1, 0.2, 0.3, 0.4])
        seen = np.array([False, True, False, True])
        handed = [values, counts, ema, seen]
        kept = [arr.copy() for arr in handed]

        built = IndexedMultiplier(4, INEQ, values=values)
        loaded = IndexedMultiplier(4, INEQ)
        loaded.load_values(values)
        loaded.load_update_count(counts)
        dual = NuPI(0.1)
        dual.load_buffer_state({"ema": ema, "seen": seen})
        self.commit(built, NuPI(0.1))
        self.commit(loaded, dual)
        for _ in range(2):
            self.commit(loaded, dual)
        assert [arr.tobytes() for arr in handed] == [arr.tobytes() for arr in kept]

    def test_initial_multiplier_is_never_written(self):
        initial = np.array([1.0, 2.0, 3.0, 4.0])
        problem, optimizers = self.indexed_problem(initial)
        self.roll(problem, optimizers)
        assert initial.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert problem.group("g").multiplier.values.tolist() != initial.tolist()

    def test_checkpoint_loads_share_no_array(self, tmp_path):
        source = self.indexed_problem(np.ones(4))
        self.roll(*source)
        path = tmp_path / "state.ckpt"
        checkpoint.save(*source, path)
        saved = path.read_bytes()
        first, second = self.indexed_problem(np.ones(4)), self.indexed_problem(np.ones(4))
        checkpoint.load(path, *first)
        checkpoint.load(path, *second)
        self.roll(*first)
        self.roll(*first)
        # the second load is still the file's state, and the file is untouched
        checkpoint.save(*second, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == saved == path.read_bytes()

    @staticmethod
    def indexed_problem(initial):
        problem = lk.ConstrainedMinimizationProblem(2)
        problem.register_group(ConstraintGroup(
            name="g", constraint_type=INEQ, size=4, indexed=True, initial_multiplier=initial
        ))
        optimizers = lk.PrimalDualOptimizers(
            primal=lk.GradientDescent(0.1),
            duals=lk.make_dual_optimizers(problem, lambda: NuPI(0.1)),
        )
        return problem, optimizers

    def roll(self, problem, optimizers):
        cstate = ConstraintState(violation=self.SIGNAL, observed_indices=self.IDX)
        state = lk.CMPState(loss=0.0, observed_constraints={"g": cstate})
        ev = lk.Evaluation(state=state, grad_f=np.zeros(2), jacobians={"g": np.ones((2, 2))})
        lk.roll(problem, optimizers, evaluate=lambda x: ev)
