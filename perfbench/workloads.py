"""The four benchmark workloads, their golden-state gate and the calibration step.

Every workload is a closed loop: the next step starts only after the previous
one returned, in one process. An *episode* starts from the workload's initial
state, runs a fixed number of steps and ends in the gate, which hashes the
final state and compares the hash with the digest recorded in ``golden.json``.

Only the public API of lagrangekit is used. The ``partial_rows`` problem is
defined here, on top of ``ConstrainedMinimizationProblem``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import lagrangekit as lk
from lagrangekit import checkpoint, cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# --seed picks one of this many instances; golden.json holds a digest for each.
INSTANCES = 32


def instance_of(seed: int) -> int:
    return seed % INSTANCES


def _hex(value) -> str:
    return float(value).hex()


def _feed_array(h, label: str, value) -> None:
    h.update(label.encode() + b"=")
    if value is None:
        h.update(b"absent;")
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        h.update(f"i{int(value)};".encode())
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str}{arr.shape};".encode())
        h.update(arr.tobytes())


def state_digest(problem, optimizers) -> str:
    """sha256 of x, multiplier values, update counts, optimizer buffers and step."""
    h = hashlib.sha256()
    _feed_array(h, "step", int(optimizers.step))
    _feed_array(h, "x", problem.x)
    for gid, group in problem.groups.items():
        mult = group.multiplier
        _feed_array(h, f"{gid}.multiplier", None if mult is None else mult.values)
        _feed_array(h, f"{gid}.update_count", getattr(mult, "update_count", None))
    for name, value in sorted(optimizers.primal.buffer_state().items()):
        _feed_array(h, f"primal.{name}", value)
    for gid, dual in optimizers.duals.items():
        for name, value in sorted(dual.buffer_state().items()):
            _feed_array(h, f"dual.{gid}.{name}", value)
    return h.hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# calibration


class Calibration:
    """W1's step fused by hand in numpy, with no lagrangekit code.

    It is the plain single-threaded baseline of ``ball_quickstart`` and the
    denominator of ``step_rel_p50``. The arithmetic follows the library's
    order of operations, so after ``STEPS`` steps from zero it reproduces
    W1's final x and multiplier; ``step`` checks that against the golden
    values every ``STEPS`` steps and then starts over.
    """

    A = np.array([3.0, 4.0])
    LR = 0.05
    STEPS = 5000
    TOL = 1e-12

    def __init__(self, golden_x, golden_lam):
        self.golden_x = np.array([float.fromhex(v) for v in golden_x])
        self.golden_lam = np.array([float.fromhex(v) for v in golden_lam])
        self.checks = 0
        self.failures = 0
        self.reset()

    def reset(self) -> None:
        self.x = np.zeros(2)
        self.lam = np.zeros(1)
        self.n = 0

    def step(self) -> None:
        x, lam = self.x, self.lam
        d = x - self.A
        self.loss = np.dot(d, d)
        g = np.dot(x, x) - 1.0
        grad = 2.0 * d + lam * (2.0 * x)
        self.x = x - self.LR * grad
        self.lam = np.maximum(lam + self.LR * g, 0.0)
        self.n += 1
        if self.n == self.STEPS:
            self.checks += 1
            if not self.matches(self.golden_x, self.golden_lam):
                self.failures += 1
            self.reset()

    def matches(self, x, lam) -> bool:
        return bool(
            np.max(np.abs(self.x - x)) <= self.TOL
            and np.max(np.abs(self.lam - lam)) <= self.TOL
        )


# ---------------------------------------------------------------------------
# roll-based workloads (W1-W3)


class RollWorkload:
    """One problem and one optimizer configuration driven through ``lk.roll``."""

    name = ""
    scheme = ""
    steps = 0  # rolls per episode
    block = 0  # rolls per calibration block pair
    calib_per_step = 1  # calibration steps timed after each roll

    def __init__(self, instance: int):
        self.instance = instance
        self.problem = self.build_problem()
        self.start_x = self.problem.x.copy()
        self.start_mult = {
            gid: g.multiplier.values.copy()
            for gid, g in self.problem.groups.items()
            if g.multiplier is not None
        }
        self.optimizers = self.fresh_optimizers()

    def build_problem(self):
        raise NotImplementedError

    def fresh_optimizers(self):
        raise NotImplementedError

    def reset(self) -> None:
        """Back to the initial state, with new optimizers."""
        self.problem.set_x(self.start_x)
        for gid, values in self.start_mult.items():
            mult = self.problem.group(gid).multiplier
            mult.load_values(values)
            if isinstance(mult, lk.IndexedMultiplier):
                mult.load_update_count(np.zeros(mult.size, dtype=np.int64))
        self.optimizers = self.fresh_optimizers()

    def roll(self, evaluate=None):
        return lk.roll(self.problem, self.optimizers, self.scheme, evaluate=evaluate)

    def observe(self, evaluate, assemble, kkt):
        """Post-run observation row: the figures a CLI trace row is built from."""
        evaluation = evaluate(self.problem.x)
        assembled = assemble(self.problem, evaluation)
        residual = kkt(self.problem, evaluation)
        return [
            evaluation.state.loss,
            assembled.primal_lagrangian,
            assembled.dual_lagrangian,
            *residual,
        ]

    def check_solution(self) -> bool:
        return True

    def gate(self, ckpt_path: str, evaluate=None, assemble=lk.assemble,
             kkt=lk.current_kkt_residual, save=checkpoint.save,
             load=checkpoint.load) -> tuple[str, int]:
        """Digest of the final state plus an observation row and a checkpoint round trip.

        Returns the digest (a string starting with ``mismatch:`` when the
        round trip or the solution check fails) and the checkpoint size.
        """
        before = state_digest(self.problem, self.optimizers)
        row = self.observe(evaluate or self.problem.evaluate_with_gradients, assemble, kkt)
        save(self.problem, self.optimizers, ckpt_path)
        size = os.path.getsize(ckpt_path)
        load(ckpt_path, self.problem, self.optimizers)
        after = state_digest(self.problem, self.optimizers)
        if after != before:
            return "mismatch:checkpoint round trip", size
        if not self.check_solution():
            return "mismatch:certificate", size
        h = hashlib.sha256(before.encode())
        h.update(",".join(_hex(v) for v in row).encode())
        return h.hexdigest(), size


class BallQuickstart(RollWorkload):
    """The README quickstart; the oracle is trivial, so library overhead dominates."""

    name = "ball_quickstart"
    scheme = "simultaneous"
    steps = 5000
    block = 250
    KKT_TOL = 1e-9

    def build_problem(self):
        return lk.problem_projection_ball(np.array([3.0, 4.0]))

    def fresh_optimizers(self):
        return lk.PrimalDualOptimizers(
            primal=lk.GradientDescent(0.05),
            duals=lk.make_dual_optimizers(self.problem, lambda: lk.GradientAscent(0.05)),
        )

    def check_solution(self) -> bool:
        cert = self.problem.certified_solution
        lam = self.problem.group("ball").multiplier.values
        at_cert = lk.kkt_residual(self.problem, cert.x, cert.lam)
        at_x = lk.kkt_residual(self.problem, self.problem.x, lam)
        return (
            max(at_cert) <= self.KKT_TOL
            and max(at_x) <= self.KKT_TOL
            and np.max(np.abs(self.problem.x - cert.x)) <= self.KKT_TOL
            and np.max(np.abs(lam - cert.lam)) <= self.KKT_TOL
        )


class LogregWide(RollWorkload):
    """Oracle-bound: two logistic-loss evaluations over an 8 MB matrix per step."""

    name = "logreg_wide"
    scheme = "extragradient"
    steps = 100
    block = 25
    calib_per_step = 4
    DIM = 100
    N_POINTS = 10_000

    def build_problem(self):
        return lk.problem_norm_constrained_logreg(
            self.instance, 1.0, dim=self.DIM, n_points=self.N_POINTS
        )

    def fresh_optimizers(self):
        return lk.PrimalDualOptimizers(
            primal=lk.AdamLike(1e-3),
            duals=lk.make_dual_optimizers(self.problem, lambda: lk.GradientAscent(1e-2)),
        )


class PartialRowsProblem(lk.ConstrainedMinimizationProblem):
    """min 0.5 ||x - target||^2 subject to A x <= b, observing a few rows per evaluation.

    All rows form one indexed inequality group under the augmented Lagrangian
    with a per-row penalty. Evaluation k observes the rows in
    ``tables[k % len(tables)]``; ``evaluations`` counts calls so a reset can
    replay the same sequence.
    """

    def __init__(self, A, b, target, penalty, tables):
        super().__init__(A.shape[1])
        self.A = A
        self.b = b
        self.target = target
        self.tables = tables
        self.evaluations = 0
        self.register_group(
            lk.ConstraintGroup(
                "rows",
                lk.ConstraintType.INEQUALITY,
                A.shape[0],
                formulation=lk.Formulation.AUGMENTED_LAGRANGIAN,
                penalty=lk.PenaltyCoefficient(penalty),
                indexed=True,
            )
        )
        self.freeze_registration()

    def evaluate_with_gradients(self, x):
        x = self._check_point(x)
        idx = self.tables[self.evaluations % len(self.tables)]
        self.evaluations += 1
        rows = self.A[idx]
        d = x - self.target
        state = lk.CMPState(
            loss=0.5 * np.dot(d, d),
            observed_constraints={
                "rows": lk.ConstraintState(rows @ x - self.b[idx], observed_indices=idx)
            },
        )
        return lk.Evaluation(state=state, grad_f=d, jacobians={"rows": rows})


class PartialRows(RollWorkload):
    """Scattered partial writes into a 20 000-entry multiplier and its NuPI buffers."""

    name = "partial_rows"
    scheme = "alt-dp"
    steps = 400
    block = 100
    calib_per_step = 4
    ROWS = 20_000
    DIM = 100
    OBSERVED = 256

    def build_problem(self):
        seed = 1000 + self.instance
        m, n = self.ROWS, self.DIM
        A = lk.normal_stream(seed, m * n).reshape(m, n) / np.sqrt(n)
        b = 0.5 + np.abs(lk.normal_stream(seed + 1, m))
        target = 3.0 * lk.normal_stream(seed + 2, n)
        uniforms = (lk.splitmix64(seed + 3, m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        penalty = 0.5 + uniforms
        # each table is a window of one random permutation: distinct rows
        perm = np.argsort(lk.splitmix64(seed + 4, m), kind="stable")
        offsets = lk.splitmix64(seed + 5, self.steps + 1) % np.uint64(m)
        window = np.arange(self.OBSERVED)
        tables = [perm[(int(o) + window) % m] for o in offsets]
        return PartialRowsProblem(A, b, target, penalty, tables)

    def fresh_optimizers(self):
        return lk.PrimalDualOptimizers(
            primal=lk.Momentum(0.01),
            duals=lk.make_dual_optimizers(self.problem, lambda: lk.NuPI(0.05)),
        )

    def reset(self) -> None:
        super().reset()
        self.problem.evaluations = 0


# ---------------------------------------------------------------------------
# CLI workload (W4)


class CliResume:
    """``lagrangekit run`` in-process: a checkpointed leg, then a resumed leg.

    Each episode calls ``cli.main`` twice. The gate compares both legs' trace
    rows with an uninterrupted run of both legs' steps, and hashes the traces,
    the summary lines and the state loaded back from the final checkpoint.
    """

    name = "cli_resume"
    steps = 200  # CLI steps per episode, over two legs
    leg_steps = 100
    every = 25

    def __init__(self, instance: int, workdir: str):
        self.instance = instance
        self.paths = {
            k: os.path.join(workdir, f"cli_{k}")
            for k in ("full.csv", "leg1.csv", "leg2.csv", "leg1.ckpt", "leg2.ckpt")
        }
        common = [
            "run", "--problem", "norm_logreg", "--seed", str(instance),
            "--scheme", "alt-pd",
            "--primal-optimizer", "momentum", "--lr-primal", "0.05",
            "--dual-optimizer", "nupi", "--lr-dual", "0.05",
        ]
        p = self.paths
        self.argv_full = common + ["--steps", str(self.steps), "--trace", p["full.csv"]]
        self.argv_legs = [
            common + [
                "--steps", str(self.leg_steps), "--trace", p["leg1.csv"],
                "--checkpoint-out", p["leg1.ckpt"], "--checkpoint-every", str(self.every),
            ],
            common + [
                "--steps", str(self.leg_steps), "--trace", p["leg2.csv"],
                "--checkpoint-in", p["leg1.ckpt"],
                "--checkpoint-out", p["leg2.ckpt"], "--checkpoint-every", str(self.every),
            ],
        ]
        # the objects the CLI builds for this configuration, to load state into
        self.problem = lk.problem_norm_constrained_logreg(instance, 1.0)
        self.optimizers = lk.PrimalDualOptimizers(
            primal=lk.Momentum(0.05, beta=0.9),
            duals=lk.make_dual_optimizers(self.problem, lambda: lk.NuPI(0.05, kappa_p=1.0, nu=0.9)),
        )
        self.full_rows = None

    @staticmethod
    def invoke(argv, main=cli.main) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue() + err.getvalue()

    def _rows(self, key: str) -> list:
        with open(self.paths[key], "rb") as handle:
            return handle.read().split(b"\n")[1:-1]

    def reference(self) -> tuple[int, str]:
        """Run the uninterrupted reference once; returns its exit code and digest."""
        code, text = self.invoke(self.argv_full)
        if code != 0:
            return code, "mismatch:exit"
        self.full_rows = self._rows("full.csv")
        with open(self.paths["full.csv"], "rb") as handle:
            return code, hashlib.sha256(handle.read()).hexdigest()

    def gate(self, outputs, load=checkpoint.load) -> str:
        if self.full_rows is None:
            return "mismatch:no uninterrupted reference run"
        rows1, rows2 = self._rows("leg1.csv"), self._rows("leg2.csv")
        n = self.leg_steps
        if rows1 != self.full_rows[:n] or rows2 != self.full_rows[n:]:
            return "mismatch:resumed rows differ from the uninterrupted run"
        load(self.paths["leg2.ckpt"], self.problem, self.optimizers)
        h = hashlib.sha256(state_digest(self.problem, self.optimizers).encode())
        for key in ("leg1.csv", "leg2.csv"):
            with open(self.paths[key], "rb") as handle:
                h.update(handle.read())
        for text in outputs:
            h.update(text.encode())
        return h.hexdigest()


_ROLL_WORKLOADS = {cls.name: cls for cls in (BallQuickstart, LogregWide, PartialRows)}


def make(name: str, instance: int, workdir: str):
    if name == CliResume.name:
        return CliResume(instance, workdir)
    if name == BallQuickstart.name:
        instance = 0  # the quickstart takes no input from the seed
    return _ROLL_WORKLOADS[name](instance)


def computed_cost(wl) -> tuple[float, float]:
    """Bytes read and floating-point operations of one oracle evaluation.

    Computed from array sizes (8-byte floats), not measured: cache misses and
    temporaries are not counted.
    """
    if isinstance(wl, (CliResume, LogregWide)):
        n, d = wl.problem.features.shape
    elif isinstance(wl, PartialRows):
        k, d = wl.OBSERVED, wl.DIM
        # gather k rows of A (read + copy), matvec, objective and its gradient
        return 8.0 * (2 * k * d + 2 * k + 3 * d), 2.0 * k * d + k + 3.0 * d
    else:
        d = wl.problem.dim
        # objective d = x - a, its square and 2d; ball x.x - 1 and 2x
        return 8.0 * 2 * d, 8.0 * d
    # features twice (X w and gz X), labels, x; two logaddexp/exp passes
    bytes_read = 8.0 * (2 * n * d + n + d + 1)
    flops = 4.0 * n * d + 10.0 * n + 4.0 * d
    return bytes_read, flops
