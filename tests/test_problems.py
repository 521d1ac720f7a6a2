"""Benchmark problems, KKT residuals, and the deterministic data stream."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import lagrangekit as lk
from lagrangekit import (
    Evaluation,
    EvaluationError,
    GradientAscent,
    GradientDescent,
    PROBLEM_NAMES,
    PrimalDualOptimizers,
    assemble,
    current_kkt_residual,
    kkt_residual,
    make_dual_optimizers,
    normal_stream,
    problem_bilinear_game,
    problem_equality_qp,
    problem_norm_constrained_logreg,
    problem_projection_ball,
    roll,
    splitmix64,
    two_gaussian_dataset,
)
from lagrangekit import cli
from lagrangekit.optim import _observe, _store_blocks
from lagrangekit.problems import _BLOCK, _kkt_pieces

LN2 = 0.6931471805599453


class TestProjectionBall:
    def test_outside_certificate(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        cert = problem.certified_solution
        assert cert.x.tolist() == [0.6, 0.8]
        assert cert.lam.tolist() == [4.0]

    def test_inside_point_projects_to_itself(self):
        problem = problem_projection_ball(np.array([0.25, 0.1]))
        cert = problem.certified_solution
        assert cert.x.tolist() == [0.25, 0.1]
        assert cert.lam.tolist() == [0.0]

    def test_boundary_point(self):
        problem = problem_projection_ball(np.array([1.0, 0.0]))
        cert = problem.certified_solution
        assert cert.x.tolist() == [1.0, 0.0]
        assert cert.lam.tolist() == [0.0]

    def test_objective_and_constraint_values(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        state = problem.evaluate_with_gradients(np.zeros(2)).state
        assert state.loss == 25.0  # |x - a|^2 without a half factor
        assert state.observed_constraints["ball"].violation.tolist() == [-1.0]

    def test_feasible_start_is_origin(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        assert problem.x.tolist() == [0.0, 0.0]
        assert kkt_residual(problem, problem.x).feasibility <= 0.0

    def test_certificate_satisfies_kkt_to_tolerance(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        cert = problem.certified_solution
        res = kkt_residual(problem, cert.x, cert.lam)
        assert max(res) <= 1e-10


class TestEqualityQP:
    def canonical(self, **kw):
        # min 0.5 |x|^2 subject to x1 + x2 = 2
        return problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]), **kw
        )

    def test_certificate_values(self):
        cert = self.canonical().certified_solution
        assert cert.x == pytest.approx([1.0, 1.0], abs=1e-14)
        assert cert.mu == pytest.approx([-1.0], abs=1e-14)

    def test_zero_target_solves_to_origin(self):
        problem = problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]), np.array([0.0])
        )
        cert = problem.certified_solution
        assert cert.x == pytest.approx([0.0, 0.0], abs=1e-14)
        assert cert.mu == pytest.approx([0.0], abs=1e-14)

    def test_single_coordinate_pin(self):
        problem = problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]), np.array([5.0])
        )
        cert = problem.certified_solution
        assert cert.x == pytest.approx([5.0, 0.0], abs=1e-12)
        assert cert.mu == pytest.approx([-5.0], abs=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            problem_equality_qp(
                np.array([[1.0, 0.5], [0.0, 1.0]]),
                np.zeros(2),
                np.array([[1.0, 1.0]]),
                np.array([1.0]),
            )

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            problem_equality_qp(
                np.diag([1.0, -1.0]),
                np.zeros(2),
                np.array([[1.0, 1.0]]),
                np.array([1.0]),
            )

    def test_dependent_constraints_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            problem_equality_qp(
                np.eye(2),
                np.zeros(2),
                np.array([[1.0, 1.0], [1.0, 1.0]]),
                np.array([1.0, 2.0]),
            )

    def test_feasible_start_satisfies_constraints(self):
        problem = self.canonical()
        assert kkt_residual(problem, problem.x).feasibility <= 1e-9

    def test_group_is_equality_type(self):
        from lagrangekit import ConstraintType

        problem = self.canonical()
        assert problem.group("linear").constraint_type is ConstraintType.EQUALITY

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["Q", "b", "A", "c"])
    def test_non_finite_input_blamed_on_its_argument(self, name, value, capfd):
        # refused before the symmetry check, the certificate solve and the feasible start
        args = {"Q": np.eye(2), "b": np.zeros(2), "A": np.array([[1.0, 1.0]]), "c": np.array([2.0])}
        args[name] = args[name].copy()
        args[name][(0,) * args[name].ndim] = value
        with pytest.raises(ValueError) as info:
            problem_equality_qp(**args)
        assert str(info.value) == f"{name} must be finite"
        assert capfd.readouterr().err == ""


class TestNormConstrainedLogreg:
    def test_loss_at_origin_is_log_two(self):
        problem = problem_norm_constrained_logreg(0, 1.0)
        state = problem.evaluate_with_gradients(np.zeros(6)).state
        assert state.loss == pytest.approx(LN2, rel=1e-12)

    def test_violation_at_origin(self):
        problem = problem_norm_constrained_logreg(0, 1.0)
        state = problem.evaluate_with_gradients(np.zeros(6)).state
        assert state.observed_constraints["norm"].violation.tolist() == [-1.0]

    def test_dataset_shapes_and_labels(self):
        problem = problem_norm_constrained_logreg(0, 1.0, dim=5, n_points=200)
        assert problem.features.shape == (200, 5)
        assert problem.labels.shape == (200,)
        assert set(problem.labels.tolist()) == {-1.0, 1.0}
        assert problem.labels[0] == 1.0 and problem.labels[1] == -1.0

    def test_dataset_deterministic_per_seed(self):
        a = problem_norm_constrained_logreg(7, 1.0)
        b = problem_norm_constrained_logreg(7, 1.0)
        c = problem_norm_constrained_logreg(8, 1.0)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.features.tobytes() != c.features.tobytes()

    def test_inactive_constraint_leaves_multiplier_at_zero(self):
        # threshold far above anything the iterates reach
        problem = problem_norm_constrained_logreg(0, 1e6)
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.1),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.1)),
        )
        for _ in range(50):
            roll(problem, optimizers)
        assert problem.group("norm").multiplier.values.tolist() == [0.0]

    def test_no_certificate(self):
        assert problem_norm_constrained_logreg(0, 1.0).certified_solution is None

    @pytest.mark.parametrize("n_points", [200, 10_000])
    def test_objective_values_are_the_loss_alone(self, n_points, monkeypatch):
        # eval stops after the loss; its bits are val_jac's
        problem = problem_norm_constrained_logreg(3, 1.0, dim=20, n_points=n_points)
        x = normal_stream(11, problem.dim) * 0.5
        values, _ = problem.objective.val_jac(x)
        loss = problem.evaluate_with_gradients(x).state.loss
        monkeypatch.setattr(lk.problems, "_logistic_loss_grad", None)
        assert problem.objective.eval(x).tobytes() == values.tobytes()
        assert loss == float(values[0])

    @pytest.mark.parametrize("threshold", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # an infinite bound would make every violation -inf, a failure at the first roll
        with pytest.raises(ValueError, match="threshold must be finite and > 0"):
            problem_norm_constrained_logreg(0, threshold)

    def test_non_integer_dim_rejected(self):
        with pytest.raises(ValueError, match="dim must be an integer, got True"):
            problem_norm_constrained_logreg(1, 1.0, dim=True)


class TestBilinearGame:
    def test_lagrangian_value_at_start(self):
        problem = problem_bilinear_game()
        ev = problem.evaluate_with_gradients(problem.x)
        asm = assemble(problem, ev)
        # f = 0, mu0 = 1, h(1) = 1
        assert asm.primal_lagrangian == 1.0
        assert asm.dual_lagrangian == 1.0

    def test_saddle_certificate(self):
        cert = problem_bilinear_game().certified_solution
        assert cert.x.tolist() == [0.0]
        assert cert.mu.tolist() == [0.0]

    def test_saddle_value_zero(self):
        problem = problem_bilinear_game()
        problem.set_x(np.array([0.0]))
        problem.group("level").multiplier.load_values([0.0])
        asm = assemble(problem, problem.evaluate_with_gradients(problem.x))
        assert asm.primal_lagrangian == 0.0

    def test_start_away_from_saddle(self):
        problem = problem_bilinear_game()
        assert problem.x.tolist() == [1.0]
        assert problem.group("level").multiplier.values.tolist() == [1.0]


class TestKKTResidual:
    def test_named_fields(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        res = kkt_residual(problem, np.array([0.6, 0.8]), np.array([4.0]))
        assert res.stationarity <= 1e-10
        assert res.feasibility <= 1e-10
        assert res.complementarity <= 1e-10

    def test_interior_point_complementarity_vanishes(self):
        problem = problem_projection_ball(np.array([0.25, 0.1]))
        res = kkt_residual(problem, np.array([0.1, 0.1]), np.array([0.0]))
        assert res.complementarity == 0.0
        assert res.feasibility == 0.0

    def test_infeasible_stationary_point(self):
        # x = a = (3, 4) with lam = 0: gradient vanishes but g = 24
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        res = kkt_residual(problem, np.array([3.0, 4.0]), np.array([0.0]))
        assert res.stationarity == 0.0
        assert res.feasibility == 24.0

    def test_negative_inequality_multiplier_rejected(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            kkt_residual(problem, np.zeros(2), np.array([-1.0]))

    def test_vector_length_checked(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            kkt_residual(problem, np.zeros(2), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_multiplier_blamed_on_its_argument(self, value, monkeypatch):
        # a caller's multiplier is refused before the problem is evaluated, not
        # reported as the problem's non-finite gradient
        ball = problem_projection_ball(np.array([3.0, 4.0]))
        qp = problem_equality_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]))
        for problem, kwargs in ((ball, {"lam": [value]}), (qp, {"mu": [value]})):
            monkeypatch.setattr(problem, "evaluate_with_gradients", None)
            with pytest.raises(ValueError) as info:
                kkt_residual(problem, np.zeros(2), **kwargs)
            assert str(info.value) == f"{next(iter(kwargs))} must be finite"

    def test_equality_multiplier_routed_separately(self):
        problem = problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        res = kkt_residual(problem, np.array([1.0, 1.0]), mu=np.array([-1.0]))
        assert max(res) <= 1e-12

    def test_current_kkt_residual_uses_stored_multipliers(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        problem.group("ball").multiplier.load_values([4.0])
        problem.set_x(np.array([0.6, 0.8]))
        res = current_kkt_residual(problem)
        assert max(res) <= 1e-10

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda ev: (ev.grad_f, {}), "evaluation has no Jacobian for group 'ball'"),
            (
                lambda ev: (ev.grad_f, {"ball": np.ones((1, 3))}),
                "jacobian shape (1, 3) does not match 1 weights and dim 2",
            ),
            (
                lambda ev: (ev.grad_f, {"ball": np.ones((2, 2))}),
                "jacobian shape (2, 2) does not match 1 weights and dim 2",
            ),
            (lambda ev: (np.ones(3), ev.jacobians), "grad_f shape (3,) != (2,)"),
        ],
        ids=["missing-jacobian", "jacobian-columns", "jacobian-rows", "grad_f-shape"],
    )
    def test_current_kkt_residual_names_a_bad_evaluation(self, corrupt, message):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        ev = problem.evaluate_with_gradients(problem.x)
        grad_f, jacobians = corrupt(ev)
        bad = Evaluation(state=ev.state, grad_f=grad_f, jacobians=jacobians)
        with pytest.raises(ValueError) as info:
            current_kkt_residual(problem, bad)
        assert str(info.value) == message

    @pytest.mark.parametrize("m", [0.0, 0.5])
    def test_non_finite_jacobian_names_its_group(self, m, monkeypatch):
        # assemble's check: a product with m = 0 would drop the NaN row (BLAS skips zero weights)
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        problem.group("ball").multiplier.load_values([m])
        ev = problem.evaluate_with_gradients(problem.x)
        jacobians = {"ball": np.array([[np.nan, 0.0]])}
        bad = Evaluation(state=ev.state, grad_f=ev.grad_f, jacobians=jacobians)
        monkeypatch.setattr(problem, "evaluate_with_gradients", lambda x: bad)
        for residual in (
            lambda: current_kkt_residual(problem, bad),
            lambda: current_kkt_residual(problem),
            lambda: kkt_residual(problem, problem.x, np.array([m])),
        ):
            with pytest.raises(EvaluationError) as info:
                residual()
            assert str(info.value) == "non-finite Jacobian for group 'ball'"
            assert info.value.group_id == "ball"
        with pytest.raises(EvaluationError, match="non-finite Jacobian for group 'ball'"):
            assemble(problem, bad)

    def test_non_finite_objective_gradient_rejected(self):
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        ev = problem.evaluate_with_gradients(problem.x)
        bad = Evaluation(state=ev.state, grad_f=np.array([np.inf, 0.0]), jacobians=ev.jacobians)
        with pytest.raises(EvaluationError) as info:
            current_kkt_residual(problem, bad)
        assert str(info.value) == "non-finite objective gradient"
        assert info.value.group_id is None

    def test_quadratic_penalty_problems_use_zero_multipliers(self):
        problem = problem_projection_ball(
            np.array([3.0, 4.0]), formulation="quadratic_penalty"
        )
        res = current_kkt_residual(problem)
        # at the origin with lam = 0: stationarity |grad f| = |-2a| = 8
        assert res.stationarity == 8.0
        assert res.complementarity == 0.0


def _residual_bytes(res):
    return np.array(res, dtype=np.float64).tobytes()


def _composed_residual(problem, evaluation):
    """The residual composed afresh, from the blocks the slot keeps."""
    _store_blocks(problem, evaluation, problem._slot[1])
    return _kkt_pieces(problem, evaluation)


def _counted_rows(monkeypatch, *modules):
    """The name of each module in ``modules`` at each ``_add_weighted_rows`` call it makes."""
    calls = []
    for module in modules:
        def counted(*args, original=module._add_weighted_rows, name=module.__name__):
            calls.append(name)
            original(*args)

        monkeypatch.setattr(module, "_add_weighted_rows", counted)
    return calls


def _load_multipliers(problem):
    """Nonzero stored multipliers (positive, so inequality ones stay valid)."""
    for i, group in enumerate(problem.groups.values()):
        if group.multiplier is not None:
            group.multiplier.load_values(0.25 + 0.5 * i + 0.375 * np.arange(group.size))


def _observed_problem(formulation, observations):
    """A user problem in dim 3: an inequality group observed at rows [3, 0] of 4 ("part"),
    one observed at no rows ("empty"), each under ``formulation``, and a Lagrangian
    equality group observed whole; returns it and an evaluation."""
    rng = np.random.default_rng(23)
    problem = lk.ConstrainedMinimizationProblem(3)
    penalty = None if formulation is lk.Formulation.LAGRANGIAN else 2.0
    indexed = formulation is not lk.Formulation.QUADRATIC_PENALTY
    observed, jacobians = {}, {}
    layouts = {"part": (4, [3, 0]), "empty": (3, [])}
    for name in observations:
        size, rows = layouts[name]
        problem.register_group(lk.ConstraintGroup(
            name=name, constraint_type=lk.ConstraintType.INEQUALITY, size=size,
            formulation=formulation, penalty=penalty, indexed=indexed,
        ))
        observed[name] = lk.ConstraintState(
            violation=rng.normal(size=len(rows)), observed_indices=rows
        )
        jacobians[name] = rng.normal(size=(len(rows), 3))
    problem.register_group(lk.ConstraintGroup(
        name="eq", constraint_type=lk.ConstraintType.EQUALITY, size=2
    ))
    observed["eq"] = lk.ConstraintState(violation=[0.125, -0.5])
    jacobians["eq"] = rng.normal(size=(2, 3))
    _load_multipliers(problem)
    state = lk.CMPState(loss=0.75, observed_constraints=observed)
    return problem, Evaluation(state=state, grad_f=rng.normal(size=3), jacobians=jacobians)


def _observed_residual(problem, evaluation):
    """``current_kkt_residual`` as a roll's observer computes it: inside the call."""
    residuals = []
    _observe(problem, evaluation, lambda ev, _: residuals.append(current_kkt_residual(problem, ev)))
    return residuals[0]


class TestKKTResidualReusesTheAssembly:
    """``current_kkt_residual`` inside an observer call reads the record's gradient
    when every observed group is Lagrangian, with the bits of the composed sum."""

    @pytest.mark.parametrize("formulation", cli.FORMULATIONS)
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_library_problem_residual_equals_the_composed_one(
        self, name, formulation, monkeypatch
    ):
        config = cli.RunConfig(problem=name, formulation=formulation, penalty=2.0)
        problem = cli._build_problem(config)
        _load_multipliers(problem)
        problem.set_x(problem.x + 0.375)
        ev = problem.evaluate_with_gradients(problem.x)
        calls = _counted_rows(monkeypatch, lk.problems)
        res = _observed_residual(problem, ev)
        if formulation == "lagrangian":
            assert calls == []  # read from the record, not composed
        assert _residual_bytes(res) == _residual_bytes(_composed_residual(problem, ev))

    @pytest.mark.parametrize("observations", [("part",), ("empty",), ("part", "empty")])
    @pytest.mark.parametrize("formulation", list(lk.Formulation), ids=str)
    def test_partial_and_empty_observations_equal_the_composed_residual(
        self, formulation, observations, monkeypatch
    ):
        problem, ev = _observed_problem(formulation, observations)
        calls = _counted_rows(monkeypatch, lk.problems)
        res = _observed_residual(problem, ev)
        assert (calls == []) == (formulation is lk.Formulation.LAGRANGIAN)
        assert _residual_bytes(res) == _residual_bytes(_composed_residual(problem, ev))

    def test_outside_an_observer_call_the_residual_is_composed(self, monkeypatch):
        # the slot holds the record only while the call runs
        problem, ev = _observed_problem(lk.Formulation.LAGRANGIAN, ("part",))
        inside = _observed_residual(problem, ev)
        assemble(problem, ev)
        calls = _counted_rows(monkeypatch, lk.problems)
        res = current_kkt_residual(problem, ev)
        assert calls == ["lagrangekit.problems"] * 2
        assert _residual_bytes(res) == _residual_bytes(inside)
        assert len(problem._slot) == 2

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_a_multiplier_written_after_assemble_is_composed(self, name):
        problem = cli._build_problem(cli.RunConfig(problem=name))
        problem.set_x(problem.x + 0.375)
        ev = problem.evaluate_with_gradients(problem.x)
        assemble(problem, ev)
        _load_multipliers(problem)  # the residual composes at the values written now
        res = current_kkt_residual(problem, ev)
        pieces = {ctype: [g.multiplier.values for g in problem.groups.values()
                          if g.constraint_type is ctype] or [np.zeros(0)]
                  for ctype in lk.ConstraintType}
        lam = np.concatenate(pieces[lk.ConstraintType.INEQUALITY])
        mu = np.concatenate(pieces[lk.ConstraintType.EQUALITY])
        assert _residual_bytes(res) == _residual_bytes(kkt_residual(problem, problem.x, lam, mu))
        assert max(res) > 0.0

    def test_a_traced_run_adds_each_rows_jacobian_once(self, tmp_path, monkeypatch, capsys):
        # 5 rolls and 5 rows: the first roll's assembly at x_0 plus one per row;
        # the row's KKT residual and the next roll read the row's record
        calls = _counted_rows(monkeypatch, lk.optim, lk.problems)
        code = cli.main([
            "run", "--problem", "norm_logreg", "--scheme", "alt-pd", "--steps", "5",
            "--trace", str(tmp_path / "trace.csv"),
        ])
        capsys.readouterr()
        assert code == 0
        assert calls == ["lagrangekit.optim"] * 6


class TestProblemNames:
    def test_catalog(self):
        assert PROBLEM_NAMES == (
            "projection_ball",
            "equality_qp",
            "norm_logreg",
            "bilinear",
        )


FACTORIES = {
    "ball": lambda **kw: problem_projection_ball([3.0, 4.0], **kw),
    "linear": lambda **kw: problem_equality_qp(
        np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]), **kw
    ),
    "norm": lambda **kw: problem_norm_constrained_logreg(0, 1.0, n_points=8, **kw),
    "level": lambda **kw: problem_bilinear_game(**kw),
}


class TestFactoryPenalty:
    """A factory defaults a missing penalty to 1.0; its group checks every other rule."""

    @pytest.mark.parametrize("group", FACTORIES)
    def test_lagrangian_group_refuses_a_penalty(self, group):
        for penalty in (1.0, lk.PenaltyCoefficient(1.0)):
            with pytest.raises(ValueError) as info:
                FACTORIES[group](penalty=penalty)
            assert str(info.value) == f"group {group!r}: Lagrangian groups have no penalty"

    @pytest.mark.parametrize("group", FACTORIES)
    @pytest.mark.parametrize("formulation", ["augmented_lagrangian", "quadratic_penalty"])
    def test_penalty_defaults_to_one_and_is_wrapped(self, group, formulation):
        problem = FACTORIES[group](formulation=formulation)
        assert problem.group(group).penalty.value == 1.0
        penalty = FACTORIES[group](formulation=formulation, penalty=2.5).group(group).penalty
        assert isinstance(penalty, lk.PenaltyCoefficient) and penalty.value == 2.5
        with pytest.raises(ValueError, match=r"penalty must be finite and > 0, got -1.0"):
            FACTORIES[group](formulation=formulation, penalty=-1.0)


def splitmix64_scalar(seed, n):
    # independent scalar reference for the counter-based generator
    out = []
    mask = (1 << 64) - 1
    for i in range(n):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_known_first_output(self):
        assert int(splitmix64(0, 1)[0]) == 0xE220A8397B1DCDAF

    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, 2**63, 2**64 - 1):
            got = splitmix64(seed, 16)
            assert got.dtype == np.uint64
            assert [int(v) for v in got] == splitmix64_scalar(seed, 16)

    def test_streams_are_prefixes(self):
        assert splitmix64(9, 8).tolist() == splitmix64(9, 16)[:8].tolist()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            splitmix64(seed, 1)

    @pytest.mark.parametrize(
        "seed, n, message",
        [
            (1.9, 2, "seed must be an integer, got 1.9"),
            (True, 2, "seed must be an integer, got True"),
            (0, 2.5, "n must be an integer, got 2.5"),
        ],
    )
    def test_non_integer_seed_or_count_rejected(self, seed, n, message):
        # 1.9 and True used to give seed 1's stream, and n = 2.5 three values
        with pytest.raises(ValueError) as info:
            splitmix64(seed, n)
        assert str(info.value) == message

    def test_numpy_integers_accepted(self):
        assert splitmix64(np.uint64(2**64 - 1), np.int32(4)).tolist() == splitmix64(
            2**64 - 1, 4
        ).tolist()


class TestNormalStream:
    def test_deterministic(self):
        assert normal_stream(3, 100).tobytes() == normal_stream(3, 100).tobytes()
        assert normal_stream(3, 100).tobytes() != normal_stream(4, 100).tobytes()

    def test_moments(self):
        z = normal_stream(0, 100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_all_finite_and_odd_lengths(self):
        z = normal_stream(5, 101)
        assert z.shape == (101,)
        assert np.isfinite(z).all()

    @pytest.mark.parametrize(
        "seed, n, message",
        [
            (0, 2.5, "n must be an integer, got 2.5"),
            (1.5, 2, "seed must be an integer, got 1.5"),
            (0, -1, "n must be >= 0"),
            (-1, 0, "seed must be in [0, 2**64), got -1"),
        ],
    )
    def test_non_integer_seed_or_count_rejected(self, seed, n, message):
        # n = 2.5 used to raise a TypeError from numpy, seed 1.5 to give seed 1's normals,
        # and n = -1 to round up to zero pairs and return an empty array
        with pytest.raises(ValueError) as info:
            normal_stream(seed, n)
        assert str(info.value) == message

    def test_logreg_dataset_seed_must_be_an_integer(self):
        # a seed of 1.5 used to build seed 1's dataset silently
        with pytest.raises(ValueError) as info:
            problem_norm_constrained_logreg(1.5, 1.0)
        assert str(info.value) == "seed must be an integer, got 1.5"


class TestTwoGaussianDataset:
    def test_geometry(self):
        features, labels = two_gaussian_dataset(0, n_points=10, dim=4)
        assert features.shape == (10, 4)
        assert labels.tolist() == [1.0, -1.0] * 5

    def test_class_means_approach_centers(self):
        features, labels = two_gaussian_dataset(0, n_points=2000, dim=4)
        center = 1.0 / np.sqrt(4.0)
        pos = features[labels == 1.0].mean(axis=0)
        neg = features[labels == -1.0].mean(axis=0)
        assert pos == pytest.approx([center] * 4, abs=0.1)
        assert neg == pytest.approx([-center] * 4, abs=0.1)

    def test_deterministic(self):
        f1, l1 = two_gaussian_dataset(11, n_points=20, dim=3)
        f2, l2 = two_gaussian_dataset(11, n_points=20, dim=3)
        assert f1.tobytes() == f2.tobytes() and l1.tolist() == l2.tolist()

    def test_non_integer_n_points_rejected(self):
        with pytest.raises(ValueError, match="n_points must be an integer, got 2.5"):
            two_gaussian_dataset(1, n_points=2.5)

    def test_numpy_integer_sizes_accepted(self):
        features, labels = two_gaussian_dataset(11, n_points=np.int64(20), dim=np.int32(3))
        reference, _ = two_gaussian_dataset(11, n_points=20, dim=3)
        assert features.tobytes() == reference.tobytes() and labels.shape == (20,)


def splitmix64_whole(seed, n):
    # the whole-array formula the blocked generator replaced: one pass over n values
    counter = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed) + counter * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def normal_stream_whole(seed, n):
    pairs = (n + 1) // 2
    bits = splitmix64_whole(seed, 2 * pairs)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


BLOCK_SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK]
SEEDS = [0, 7, 2**64 - 1]


class TestStreamBlocks:
    """The generators fill their output block by block; the bytes are the whole-array formula's."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_splitmix64_equals_the_whole_array_formula(self, seed, n):
        got = splitmix64(seed, n)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert got.tobytes() == splitmix64_whole(seed, n).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_normal_stream_equals_the_whole_array_formula(self, seed, n):
        got = normal_stream(seed, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == normal_stream_whole(seed, n).tobytes()

    def test_pinned_digests(self):
        # recorded from the whole-array formula; like the golden traces, they hold for
        # one numpy SIMD level (the formula comparisons above hold at any)
        normals = normal_stream(1001, 2_000_000)
        features, _ = two_gaussian_dataset(3, n_points=10_000, dim=100)
        assert hashlib.sha256(normals.tobytes()).hexdigest() == (
            "2c01444625a1a45ecf8eb0793e83b4e9c23263a33bbee92a0d6cfbebaa5bb46a"
        )
        assert hashlib.sha256(features.tobytes()).hexdigest() == (
            "0e8a0e584ac9777a330ddff6bc829ad602ef67a4ce1259f408b872f3f68ef9b8"
        )

    @pytest.mark.parametrize("n_points, dim", [(10_000, 100), (3, 5), (1, 1), (2 * _BLOCK + 1, 1)])
    def test_gaussian_features_layout_and_centers(self, n_points, dim):
        features, labels = two_gaussian_dataset(3, n_points=n_points, dim=dim)
        assert features.dtype == np.float64 and features.shape == (n_points, dim)
        assert features.flags.c_contiguous
        # the centers were once added as a full (n, dim) product, in the other order
        center = np.ones(dim) / math.sqrt(dim)
        noise = normal_stream(3, n_points * dim).reshape(n_points, dim)
        reference = labels[:, None] * center[None, :] + noise
        assert features.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: normal_stream(5, 2_000_000),
            lambda: splitmix64(5, 2_000_000),
            lambda: two_gaussian_dataset(3, n_points=10_000, dim=100)[0],
        ],
        ids=["normal_stream", "splitmix64", "two_gaussian_dataset"],
    )
    def test_peak_memory_is_the_output_and_one_block(self, draw):
        # numpy reports its allocations to tracemalloc; the whole-array formula peaked
        # at 68.7 MiB for normal_stream's 16 MB of output
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = draw()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20


class TestEvaluationErrors:
    def test_non_finite_point_rejected(self):
        problem = problem_projection_ball(np.array([1.0, 1.0]))
        with pytest.raises(EvaluationError):
            problem.evaluate_with_gradients(np.array([np.nan, 0.0]))

    def test_oracle_functions_exposed_for_checking(self):
        problem = problem_norm_constrained_logreg(0, 1.0)
        oracles = problem.oracle_functions()
        assert set(oracles) == {"objective", "norm"}


class TestOracleOutputCheckedAtTheOracle:
    """``BenchmarkProblem`` checks its oracles' output where they return it."""

    A = np.array([[1.0, 2.0, 0.5], [-1.0, 0.3, 2.0]])
    TARGET = np.array([1.0, -2.0, 0.5])

    @classmethod
    def rows_problem(cls, layout, formulation=lk.Formulation.LAGRANGIAN, penalty=None):
        A, target = cls.A, cls.TARGET

        def loss(x):
            return np.array([0.5 * np.dot(x - target, x - target)])

        objective = lk.DifferentiableFunction(
            eval=loss, val_jac=lambda x: (loss(x), (x - target)[None, :]), output_size=1
        )
        rows = lk.DifferentiableFunction(
            eval=lambda x: A @ x - 1.0,
            val_jac=lambda x: (A @ x - 1.0, layout(A)),
            output_size=2,
            name="rows",
        )
        group = lk.ConstraintGroup(
            name="rows",
            constraint_type=lk.ConstraintType.INEQUALITY,
            size=2,
            formulation=formulation,
            penalty=penalty,
        )
        return lk.BenchmarkProblem(
            "rows", 3, objective, blocks=(lk.ConstraintBlock(group=group, function=rows),)
        )

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    def test_block_size_mismatch_rejected_at_construction(self, indexed):
        # rejected before any evaluation, so that every evaluation fits its groups
        objective = lk.DifferentiableFunction(
            eval=lambda x: np.zeros(1), val_jac=lambda x: (np.zeros(1), np.zeros((1, 2))),
            output_size=1,
        )
        function = lk.DifferentiableFunction(
            eval=lambda x: np.zeros(2), val_jac=lambda x: (np.zeros(2), np.zeros((2, 2))),
            output_size=2,
        )
        group = lk.ConstraintGroup(
            name="g", constraint_type=lk.ConstraintType.INEQUALITY, size=3, indexed=indexed
        )
        block = lk.ConstraintBlock(group=group, function=function)
        with pytest.raises(ValueError) as info:
            lk.BenchmarkProblem("mismatch", 2, objective, blocks=(block,))
        assert str(info.value) == "group 'g': oracle output size 2 != group size 3"

    def test_non_finite_jacobian_raises_in_the_evaluation(self):
        jacobian = self.A.copy()
        problem = self.rows_problem(lambda A: jacobian)
        problem.evaluate_with_gradients(problem.x)
        jacobian[1, 2] = np.inf
        with pytest.raises(EvaluationError) as info:
            problem.evaluate_with_gradients(problem.x)
        assert str(info.value) == "non-finite Jacobian for group 'rows'"
        assert info.value.group_id == "rows"

    @pytest.mark.parametrize(
        "formulation, penalty",
        [(lk.Formulation.LAGRANGIAN, None), (lk.Formulation.AUGMENTED_LAGRANGIAN, 2.0)],
        ids=["lagrangian", "augmented"],
    )
    @pytest.mark.parametrize("scheme", lk.SCHEMES)
    def test_fortran_ordered_or_strided_jacobian_rolls_like_its_c_ordered_copy(
        self, scheme, formulation, penalty
    ):
        layouts = {
            "C": np.copy,
            "F": np.asfortranarray,
            "strided": lambda A: np.repeat(A, 2, axis=1)[:, ::2],
        }
        runs = {}
        for name, layout in layouts.items():
            assert layout(self.A).flags.c_contiguous == (name == "C")
            problem = self.rows_problem(layout, formulation, penalty)
            jacobian = problem.evaluate_with_gradients(problem.x).jacobians["rows"]
            assert jacobian.flags.c_contiguous and jacobian.tobytes() == self.A.tobytes()
            optimizers = PrimalDualOptimizers(
                primal=lk.Momentum(0.1, beta=0.5),
                duals=make_dual_optimizers(problem, lambda: lk.NuPI(0.3)),
            )
            trajectory = []
            for _ in range(6):
                out = roll(problem, optimizers, scheme=scheme)
                trajectory.append((
                    out.primal_lagrangian.hex(), out.dual_lagrangian.hex(), problem.x.tobytes(),
                    problem.group("rows").multiplier.values.tobytes(),
                ))
            runs[name] = trajectory
        assert runs["F"] == runs["C"] and runs["strided"] == runs["C"]
