"""End-to-end acceptance runs, one per criterion, each printing a verdict line.

Each test exercises one stated behavior at its stated tolerance and prints a
single `acceptance NN: PASS/FAIL (...)` line so the whole battery can be read
off a terminal at a glance.
"""

import subprocess
import sys
import time

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
    PenaltyCoefficient,
    PrimalDualOptimizers,
    assemble,
    cli,
    finite_difference_gradient,
    make_dual_optimizers,
    normal_stream,
    problem_bilinear_game,
    problem_equality_qp,
    problem_norm_constrained_logreg,
    problem_projection_ball,
    roll,
)
from lagrangekit.problems import BenchmarkProblem

INEQ = ConstraintType.INEQUALITY
EQ = ConstraintType.EQUALITY


def report(capsys, number, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"acceptance {number:02d}: {verdict} ({detail})")
    assert ok, detail


def test_acceptance_01_certified_convergence(capsys):
    # simultaneous GDA, lr 0.05/0.05, 5000 steps on projection_ball(a=(3,4));
    # must land on the certificate x*=(0.6, 0.8), lam*=4 within 1e-3 / 1e-2
    # in under a second
    problem = problem_projection_ball(np.array([3.0, 4.0]))
    optimizers = PrimalDualOptimizers(
        primal=GradientDescent(0.05),
        duals=make_dual_optimizers(problem, lambda: GradientAscent(0.05)),
    )
    start = time.perf_counter()
    for _ in range(5000):
        roll(problem, optimizers, scheme="simultaneous")
    elapsed = time.perf_counter() - start

    x_err = np.max(np.abs(problem.x - np.array([0.6, 0.8])))
    lam_err = abs(problem.group("ball").multiplier.values[0] - 4.0)
    ok = x_err <= 1e-3 and lam_err <= 1e-2 and elapsed < 1.0
    report(
        capsys, 1, ok,
        f"x_err={x_err:.2e} lam_err={lam_err:.2e} time={elapsed:.2f}s",
    )


def test_acceptance_02_bilinear_contrast(capsys):
    def radius_sq(problem):
        x = problem.x[0]
        mu = problem.group("level").multiplier.values[0]
        return x * x + mu * mu

    def setup():
        problem = problem_bilinear_game()
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.1),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.1)),
        )
        return problem, optimizers

    # exact first steps, bitwise
    sim_problem, sim_optimizers = setup()
    roll(sim_problem, sim_optimizers, scheme="simultaneous")
    first_sim_ok = (
        sim_problem.x[0] == 1.0 - 0.1 * 1.0
        and sim_problem.group("level").multiplier.values[0] == 1.0 + 0.1 * 1.0
    )

    eg_problem, eg_optimizers = setup()
    roll(eg_problem, eg_optimizers, scheme="extragradient")
    mu_hat = 1.0 + 0.1 * 1.0
    x_hat = 1.0 - 0.1 * 1.0
    first_eg_ok = (
        eg_problem.x[0] == 1.0 - 0.1 * mu_hat
        and eg_problem.group("level").multiplier.values[0] == 1.0 + 0.1 * x_hat
    )

    # 100-step divergence/contraction contrast
    sim_problem, sim_optimizers = setup()
    increasing = True
    prev = radius_sq(sim_problem)
    for _ in range(100):
        roll(sim_problem, sim_optimizers, scheme="simultaneous")
        now = radius_sq(sim_problem)
        increasing = increasing and now > prev
        prev = now
    sim_final = radius_sq(sim_problem)

    eg_problem, eg_optimizers = setup()
    eg_initial = radius_sq(eg_problem)
    for _ in range(100):
        roll(eg_problem, eg_optimizers, scheme="extragradient")
    eg_final = radius_sq(eg_problem)

    ok = (
        first_sim_ok
        and first_eg_ok
        and increasing
        and sim_final > 2.0
        and eg_final < 2.0
        and eg_final < eg_initial
    )
    report(
        capsys, 2, ok,
        f"sim_final={sim_final:.3f} eg_final={eg_final:.3e} "
        f"first_steps_exact={first_sim_ok and first_eg_ok}",
    )


def test_acceptance_03_equality_qp_augmented_lagrangian(capsys):
    # classical outer/inner loop: 10 rounds of 200 gradient steps on the
    # augmented Lagrangian followed by one unit-rate dual ascent step; the
    # c-scaled dual signal makes that the textbook multiplier update
    problem = problem_equality_qp(
        np.eye(2),
        np.zeros(2),
        np.array([[1.0, 1.0]]),
        np.array([2.0]),
        formulation="augmented_lagrangian",
        penalty=PenaltyCoefficient(1.0),
    )
    primal = GradientDescent(0.1)
    dual = GradientAscent(1.0)
    for _ in range(10):
        for _ in range(200):
            ev = problem.evaluate_with_gradients(problem.x)
            asm = assemble(problem, ev)
            x_new, staged = primal.step(problem.x, asm.gradient)
            primal.commit(staged)
            problem.set_x(x_new)
        ev = problem.evaluate_with_gradients(problem.x)
        asm = assemble(problem, ev)
        multiplier = problem.group("linear").multiplier
        delta, staged = dual.step(asm.dual_signals["linear"], None, multiplier.size)
        multiplier.apply_dual_delta(delta)
        dual.commit(staged)

    x_err = np.max(np.abs(problem.x - np.array([1.0, 1.0])))
    mu_err = abs(problem.group("linear").multiplier.values[0] + 1.0)
    ok = x_err <= 1e-4 and mu_err <= 1e-3
    report(capsys, 3, ok, f"x_err={x_err:.2e} mu_err={mu_err:.2e}")


def test_acceptance_04_gradient_consistency(capsys):
    # composed analytic gradient of the assembled scalar vs central finite
    # differences, all problems x all formulations, 100 seeded points each,
    # excluding kink-adjacent points
    factories = {
        "projection_ball": lambda f: problem_projection_ball(
            np.array([3.0, 4.0]), formulation=f
        ),
        "equality_qp": lambda f: problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]),
            formulation=f,
        ),
        "norm_logreg": lambda f: problem_norm_constrained_logreg(
            0, 1.0, formulation=f
        ),
        "bilinear": lambda f: problem_bilinear_game(formulation=f),
    }
    formulations = ("lagrangian", "augmented_lagrangian", "quadratic_penalty")
    rel, abs_tol, kink_band = 1e-5, 1e-8, 1e-4

    worst = -np.inf
    checked = 0
    ok = True
    for pname, factory in factories.items():
        for formulation in formulations:
            problem = factory(formulation)
            for group in problem.groups.values():
                if group.multiplier is None:
                    continue
                fill = 0.7 if group.constraint_type is INEQ else -0.4
                group.multiplier.load_values(np.full(group.size, fill))

            def assembled_scalar(x, problem=problem):
                ev = problem.evaluate_with_gradients(x)
                return np.array([assemble(problem, ev).primal_lagrangian])

            scalar_fn = DifferentiableFunction(
                eval=assembled_scalar,
                val_jac=lambda x: (assembled_scalar(x), np.zeros((1, x.size))),
                output_size=1,
            )
            points = normal_stream(11, 100 * problem.dim).reshape(100, problem.dim)
            for x in points:
                ev = problem.evaluate_with_gradients(x)
                near_kink = False
                for gid, group in problem.groups.items():
                    if group.constraint_type is not INEQ:
                        continue
                    g = ev.state.observed_constraints[gid].violation
                    if formulation == "lagrangian":
                        continue
                    c = np.broadcast_to(group.penalty.value, group.size)
                    lam = (
                        np.zeros(group.size)
                        if group.multiplier is None
                        else group.multiplier.values
                    )
                    if np.min(np.abs(g + lam / c)) < kink_band:
                        near_kink = True
                if near_kink:
                    continue
                analytic = assemble(problem, ev).gradient
                fd = finite_difference_gradient(scalar_fn, x, 0)
                deviation = np.abs(analytic - fd)
                allowed = abs_tol + rel * np.abs(fd)
                worst = max(worst, float(np.max(deviation - allowed)))
                checked += 1
                if (deviation > allowed).any():
                    ok = False
    report(
        capsys, 4, ok,
        f"{checked} points checked, worst deviation-minus-allowance={worst:.2e}",
    )


def test_acceptance_05_nupi_reduction(capsys):
    # kappa_p=0 collapses the proportional channel: trajectories must be
    # bitwise identical to plain gradient ascent for every nu
    ok = True
    for nu in (0.0, 0.5, 0.9):
        reference = problem_projection_ball(np.array([3.0, 4.0]))
        ref_optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.05),
            duals=make_dual_optimizers(reference, lambda: GradientAscent(0.05)),
        )
        candidate = problem_projection_ball(np.array([3.0, 4.0]))
        cand_optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.05),
            duals=make_dual_optimizers(
                candidate, lambda: NuPI(0.05, kappa_p=0.0, nu=nu)
            ),
        )
        for _ in range(100):
            roll(reference, ref_optimizers)
            roll(candidate, cand_optimizers)
            same_mult = (
                reference.group("ball").multiplier.values.tobytes()
                == candidate.group("ball").multiplier.values.tobytes()
            )
            same_x = reference.x.tobytes() == candidate.x.tobytes()
            ok = ok and same_mult and same_x
    report(capsys, 5, ok, "nu in {0, 0.5, 0.9}, 100 steps each, bitwise")


def proxy_fixture():
    # f = x^2/2, surrogate g = x - 0.5 for the primal, strict g + 1 for the
    # dual
    objective = DifferentiableFunction(
        eval=lambda x: np.array([0.5 * x[0] ** 2]),
        val_jac=lambda x: (np.array([0.5 * x[0] ** 2]), np.array([[x[0]]])),
        output_size=1,
    )
    surrogate = DifferentiableFunction(
        eval=lambda x: np.array([x[0] - 0.5]),
        val_jac=lambda x: (np.array([x[0] - 0.5]), np.ones((1, 1))),
        output_size=1,
    )
    block = ConstraintBlock(
        group=ConstraintGroup(name="gate", constraint_type=INEQ, size=1),
        function=surrogate,
        strict_function=lambda x: np.array([(x[0] - 0.5) + 1.0]),
    )
    return BenchmarkProblem(
        "proxy", 1, objective, blocks=(block,), feasible_start=np.array([1.0])
    )


def test_acceptance_06_proxy_data_path(capsys):
    problem = proxy_fixture()
    optimizers = PrimalDualOptimizers(
        primal=GradientDescent(0.1),
        duals=make_dual_optimizers(problem, lambda: GradientAscent(0.1)),
    )

    # hand-rolled scalar reference with the same operation order
    x_ref, lam_ref = 1.0, 0.0
    trajectory_ok = True
    for _ in range(3):
        grad = x_ref + lam_ref * 1.0
        strict = (x_ref - 0.5) + 1.0
        x_ref = x_ref - 0.1 * grad
        lam_ref = max(0.0, lam_ref + 0.1 * strict)
        roll(problem, optimizers, scheme="simultaneous")
        trajectory_ok = (
            trajectory_ok
            and problem.x[0] == x_ref
            and problem.group("gate").multiplier.values[0] == lam_ref
        )
    report(
        capsys, 6, trajectory_ok,
        f"3-step exact match, final x={float(problem.x[0])} "
        f"lam={float(problem.group('gate').multiplier.values[0])}",
    )


class FixedSubsetProblem(lk.ConstrainedMinimizationProblem):
    """Box constraints x_i <= 1 with only indices (0, 2) ever observed."""

    SUBSET = np.array([0, 2])

    def __init__(self):
        super().__init__(4)
        self.gid = self.register_group(
            ConstraintGroup(name="box", constraint_type=INEQ, size=4, indexed=True)
        )
        self.freeze_registration()
        self.set_x(np.full(4, 2.0))

    def compute_cmp_state(self, x):
        x = np.asarray(x, dtype=np.float64)
        idx = self.SUBSET
        state = ConstraintState(violation=x[idx] - 1.0, observed_indices=idx)
        return lk.CMPState(
            loss=float(0.5 * x @ x), observed_constraints={self.gid: state}
        )

    def evaluate_with_gradients(self, x):
        x = np.asarray(x, dtype=np.float64)
        state = self.compute_cmp_state(x)
        jac = np.zeros((self.SUBSET.size, 4))
        jac[np.arange(self.SUBSET.size), self.SUBSET] = 1.0
        return lk.Evaluation(state=state, grad_f=x.copy(), jacobians={self.gid: jac})


def test_acceptance_07_dense_indexed_equivalence(capsys):
    # leg 1: all indices observed every step -> bitwise identical trajectories
    dense = problem_projection_ball(np.array([3.0, 4.0]), indexed=False)
    indexed = problem_projection_ball(np.array([3.0, 4.0]), indexed=True)
    dense_optimizers = PrimalDualOptimizers(
        primal=GradientDescent(0.05),
        duals=make_dual_optimizers(dense, lambda: GradientAscent(0.05)),
    )
    indexed_optimizers = PrimalDualOptimizers(
        primal=GradientDescent(0.05),
        duals=make_dual_optimizers(indexed, lambda: GradientAscent(0.05)),
    )
    full_ok = True
    for _ in range(200):
        roll(dense, dense_optimizers)
        roll(indexed, indexed_optimizers)
        full_ok = (
            full_ok
            and dense.x.tobytes() == indexed.x.tobytes()
            and dense.group("ball").multiplier.values.tobytes()
            == indexed.group("ball").multiplier.values.tobytes()
        )

    # leg 2: fixed subset observed -> unobserved entries bitwise frozen
    subset_problem = FixedSubsetProblem()
    subset_problem.group("box").multiplier.load_values([0.1, 0.2, 0.3, 0.4])
    subset_optimizers = PrimalDualOptimizers(
        primal=GradientDescent(0.01),
        duals=make_dual_optimizers(subset_problem, lambda: NuPI(0.05)),
    )
    before = subset_problem.group("box").multiplier.values.copy()
    for _ in range(200):
        roll(subset_problem, subset_optimizers)
    values = subset_problem.group("box").multiplier.values
    counts = subset_problem.group("box").multiplier.update_count
    frozen_ok = (
        values[1] == before[1]
        and values[3] == before[3]
        and counts.tolist()[1::2] == [0, 0]
        and counts[0] == 200
    )
    ok = full_ok and frozen_ok
    report(capsys, 7, ok, f"full_obs_bitwise={full_ok} subset_frozen={frozen_ok}")


def test_acceptance_08_exact_resume(capsys, tmp_path):
    schemes = ("simultaneous", "alt-pd", "alt-dp", "extragradient")
    formulations = ("lagrangian", "augmented_lagrangian", "quadratic_penalty")
    failures = []
    for scheme in schemes:
        for formulation in formulations:
            tag = f"{scheme}-{formulation}"
            common = [
                "run", "--problem", "projection_ball", "--a", "3,4",
                "--scheme", scheme, "--formulation", formulation,
                "--primal-optimizer", "momentum", "--momentum", "0.9",
                "--dual-optimizer", "nupi",
                "--lr-primal", "0.05", "--lr-dual", "0.05",
            ]
            full = tmp_path / f"{tag}-full.csv"
            code = cli.main(common + ["--steps", "50", "--trace", str(full)])
            if code != 0:
                failures.append(f"{tag}: full run exit {code}")
                continue

            ckpt = tmp_path / f"{tag}.ckpt"
            leg1 = tmp_path / f"{tag}-leg1.csv"
            code = cli.main(
                common
                + ["--steps", "30", "--trace", str(leg1), "--checkpoint-out", str(ckpt)]
            )
            if code != 0:
                failures.append(f"{tag}: leg1 exit {code}")
                continue

            # resume happens in a fresh interpreter
            leg2 = tmp_path / f"{tag}-leg2.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "lagrangekit"]
                + common
                + ["--steps", "20", "--trace", str(leg2), "--checkpoint-in", str(ckpt)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                failures.append(f"{tag}: resume exit {proc.returncode} {proc.stderr}")
                continue

            stitched = (
                leg1.read_text().splitlines() + leg2.read_text().splitlines()[1:]
            )
            if stitched != full.read_text().splitlines():
                failures.append(f"{tag}: stitched trace differs")
    ok = not failures
    report(
        capsys, 8, ok,
        "12 scheme x formulation resumes byte-identical"
        if ok
        else "; ".join(failures),
    )


def test_acceptance_09_norm_constrained_logreg(capsys):
    problem = problem_norm_constrained_logreg(0, 1.0, dim=5, n_points=200)
    optimizers = PrimalDualOptimizers(
        primal=AdamLike(1e-3),
        duals=make_dual_optimizers(problem, lambda: GradientAscent(1e-2)),
    )
    start = time.perf_counter()
    for _ in range(20000):
        roll(problem, optimizers, scheme="extragradient")
    elapsed = time.perf_counter() - start

    state = problem.evaluate_with_gradients(problem.x).state
    violation = float(state.observed_constraints["norm"].violation[0])
    lam = float(problem.group("norm").multiplier.values[0])
    slack = abs(lam * violation)
    from lagrangekit import current_kkt_residual

    kkt = current_kkt_residual(problem)
    ok = (
        violation <= 1e-3
        and lam >= 0.0
        and slack <= 1e-3
        and kkt.stationarity <= 1e-2
        and elapsed < 30.0
    )
    report(
        capsys, 9, ok,
        f"violation={violation:.2e} lam={lam:.3f} |lam*g|={slack:.2e} "
        f"stationarity={kkt.stationarity:.2e} time={elapsed:.1f}s",
    )


def trap_problem(threshold, dim):
    # the constraint oracle turns non-finite once |x| leaves a shrinking box,
    # so some roll eventually fails mid-update
    objective = DifferentiableFunction(
        eval=lambda x: np.array([0.5 * float(x @ x)]),
        val_jac=lambda x: (np.array([0.5 * float(x @ x)]), np.asarray(x, dtype=np.float64)[None, :]),
        output_size=1,
    )
    counter = {"n": 0}

    def trap_eval(x):
        counter["n"] += 1
        if counter["n"] > threshold:
            return np.full(dim, np.inf)
        return x - 1.0

    block = ConstraintBlock(
        group=ConstraintGroup(name="trap", constraint_type=INEQ, size=dim),
        function=DifferentiableFunction(
            eval=trap_eval,
            val_jac=lambda x: (trap_eval(x), np.eye(dim)),
            output_size=dim,
        ),
    )
    return BenchmarkProblem(
        "trap", dim, objective, blocks=(block,), feasible_start=np.full(dim, 0.5)
    )


def snapshot(problem, optimizers):
    mult = problem.group("trap").multiplier
    buffers = {}
    for key, value in optimizers.primal.buffer_state().items():
        buffers[f"primal.{key}"] = None if value is None else np.copy(value)
    for gid, opt in optimizers.duals.items():
        for key, value in opt.buffer_state().items():
            buffers[f"dual.{gid}.{key}"] = None if value is None else np.copy(value)
    return (
        problem.x.copy(),
        mult.values.copy(),
        optimizers.step,
        buffers,
    )


def snapshots_equal(a, b):
    if a[0].tobytes() != b[0].tobytes() or a[1].tobytes() != b[1].tobytes():
        return False
    if a[2] != b[2]:
        return False
    for key in a[3]:
        left, right = a[3][key], b[3][key]
        if (left is None) != (right is None):
            return False
        if left is not None and np.asarray(left).tobytes() != np.asarray(right).tobytes():
            return False
    return True


def test_acceptance_10_invariant_suites(capsys):
    from lagrangekit import (
        Multiplier,
        assemble_lagrangian,
        group_contribution,
    )

    results = {}
    rng = np.random.default_rng(2024)

    # projection idempotence
    ok = True
    for _ in range(100):
        m = Multiplier(4, INEQ)
        m.apply_dual_delta(rng.normal(size=4))
        # a zero delta only projects
        once = m.apply_dual_delta(np.zeros(4)).copy_values()
        twice = m.apply_dual_delta(np.zeros(4)).copy_values()
        ok = ok and once.tobytes() == twice.tobytes() and once.min() >= 0.0
    results["projection_idempotence"] = ok

    # zero-multiplier Lagrangian reduction
    ok = True
    group = ConstraintGroup(name="g", constraint_type=INEQ, size=3)
    for _ in range(100):
        state = ConstraintState(violation=rng.normal(size=3))
        pair = group_contribution(group, state, np.zeros(3))
        loss = float(rng.normal())
        primal, _ = assemble_lagrangian(loss, [pair])
        ok = ok and primal == loss
    results["zero_multiplier_reduction"] = ok

    # quadratic-penalty feasible-zero
    ok = True
    qp_group = ConstraintGroup(
        name="g", constraint_type=INEQ, size=3,
        formulation=lk.Formulation.QUADRATIC_PENALTY,
        penalty=PenaltyCoefficient(2.0),
    )
    for _ in range(100):
        g = -np.abs(rng.normal(size=3))
        pair = group_contribution(
            qp_group, ConstraintState(violation=g), penalty=PenaltyCoefficient(2.0)
        )
        ok = ok and pair.primal_term == 0.0 and pair.primal_weights.max() == 0.0
    results["qp_feasible_zero"] = ok

    # AL dual signal = c * plain dual signal, exactly
    ok = True
    lag_group = ConstraintGroup(name="g", constraint_type=INEQ, size=3)
    al_group = ConstraintGroup(
        name="g", constraint_type=INEQ, size=3,
        formulation=lk.Formulation.AUGMENTED_LAGRANGIAN,
        penalty=PenaltyCoefficient(1.0),
    )
    for _ in range(100):
        state = ConstraintState(violation=rng.normal(size=3))
        lam = np.abs(rng.normal(size=3))
        c = np.abs(rng.normal(size=3)) + 0.5
        plain = group_contribution(lag_group, state, lam)
        aug = group_contribution(al_group, state, lam, PenaltyCoefficient(c))
        ok = ok and aug.dual_signal.tobytes() == (c * plain.dual_signal).tobytes()
    results["al_signal_scaling"] = ok

    # roll error atomicity
    ok = True
    schemes = ("simultaneous", "alt-pd", "alt-dp", "extragradient")
    for trial in range(100):
        dim = int(rng.integers(1, 4))
        threshold = int(rng.integers(1, 5))
        scheme = schemes[int(rng.integers(len(schemes)))]
        problem = trap_problem(threshold, dim)
        optimizers = PrimalDualOptimizers(
            primal=Momentum(0.1, beta=0.9),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.1)),
        )
        raised = False
        for _ in range(threshold + 2):
            before = snapshot(problem, optimizers)
            try:
                roll(problem, optimizers, scheme=scheme)
            except EvaluationError:
                raised = True
                after = snapshot(problem, optimizers)
                ok = ok and snapshots_equal(before, after)
                break
        ok = ok and raised
    results["roll_atomicity"] = ok

    all_ok = all(results.values())
    failed = [name for name, good in results.items() if not good]
    report(
        capsys, 10, all_ok,
        "5 suites x 100 seeded inputs" if all_ok else f"failed: {failed}",
    )
