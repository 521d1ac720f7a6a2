"""Benchmark problems with independently certified solutions.

Each factory builds a ``BenchmarkProblem`` whose certificate, when one
exists, comes from an analytic KKT argument or a dense linear solve, never
from the library's own optimizers. Certificates are re-verified against the
KKT residual at construction time.

The synthetic logistic dataset uses a fully specified counter-based PRNG
(SplitMix64 feeding Box-Muller), so the bytes are reproducible across
platforms and processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    CMPState,
    ConstrainedMinimizationProblem,
    ConstraintGroup,
    ConstraintState,
    ConstraintType,
    Evaluation,
    EvaluationError,
    Formulation,
    _SMALL,
    _TWO,
    _ZERO,
    _all_finite,
    _as_size,
    _max_abs,
    _record,
)
from .gradients import DifferentiableFunction, _add_weighted_rows
from .optim import _blocks_for, _checked_gradient, _grad_f_copy, _jacobian_error, _store_blocks

__all__ = [
    "ConstraintBlock",
    "CertifiedSolution",
    "BenchmarkProblem",
    "KKTResidual",
    "kkt_residual",
    "current_kkt_residual",
    "problem_projection_ball",
    "problem_equality_qp",
    "problem_norm_constrained_logreg",
    "problem_bilinear_game",
    "splitmix64",
    "normal_stream",
    "two_gaussian_dataset",
    "PROBLEM_NAMES",
]

CERTIFICATE_TOL = 1e-10
_FLOAT64 = np.dtype(np.float64)
_BLOCK = 2**16  # values the seeded generators draw at a time; bounds their temporaries

PROBLEM_NAMES = ("projection_ball", "equality_qp", "norm_logreg", "bilinear")


@dataclass(frozen=True)
class ConstraintBlock:
    """One constraint group plus the oracle that measures it.

    ``strict_function``, when set, supplies the non-differentiable violation
    that drives dual updates while ``function`` keeps feeding the primal
    gradient (the proxy-constraint split).
    """

    group: ConstraintGroup
    function: DifferentiableFunction
    strict_function: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True, eq=False)
class CertifiedSolution:
    """A solution certificate: x* plus concatenated multipliers.

    ``lam`` concatenates the inequality multipliers in registration order,
    ``mu`` the equality multipliers.
    """

    x: np.ndarray
    lam: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None


class KKTResidual(NamedTuple):
    stationarity: float
    feasibility: float
    complementarity: float


class BenchmarkProblem(ConstrainedMinimizationProblem):
    """A problem built from differentiable oracles for objective and constraints.

    ``feasible_start`` is the run's starting point; for the bilinear game it
    is deliberately infeasible (the interesting dynamics start off the
    constraint surface).
    """

    def __init__(
        self,
        name: str,
        dim: int,
        objective: DifferentiableFunction,
        blocks=(),
        feasible_start=None,
        certified_solution: Optional[CertifiedSolution] = None,
    ):
        super().__init__(dim)
        if objective.output_size != 1:
            raise ValueError("objective must have output size 1")
        self.name = str(name)
        self.objective = objective
        self.blocks = tuple(blocks)
        self._block_by_gid = {}
        self._all_rows = {}  # per indexed group: its full, read-only observed_indices
        for block in self.blocks:
            if block.function.output_size != block.group.size:  # so each evaluation fits
                raise ValueError(
                    f"group {block.group.name!r}: oracle output size "
                    f"{block.function.output_size} != group size {block.group.size}"
                )
            gid = self.register_group(block.group)
            self._block_by_gid[gid] = block
            if block.group.indexed:
                self._all_rows[gid] = np.arange(block.group.size, dtype=np.int64)
                self._all_rows[gid].flags.writeable = False
        self.freeze_registration()
        self._plan = ((1, dim), tuple(  # the shapes and objects the fast test and records read
            (gid, b, b.function.val_jac, b.strict_function, b.group, (b.group.size,),
             (b.group.size, dim), self._all_rows.get(gid)) for gid, b in self._block_by_gid.items()
        ))
        if feasible_start is None:
            feasible_start = np.zeros(dim, dtype=np.float64)
        self.feasible_start = np.asarray(feasible_start, dtype=np.float64).copy()
        self.set_x(self.feasible_start)
        self.certified_solution = certified_solution
        if certified_solution is not None:
            cert = certified_solution
            # the point first: where the loss overflows, the certificate's multipliers do too
            evaluation = self.evaluate_with_gradients(cert.x)
            res = _kkt_pieces(self, evaluation, _multiplier_pieces(self, cert.lam, cert.mu))
            worst = max(res)
            if not worst <= CERTIFICATE_TOL:
                raise ValueError(
                    f"certificate for {self.name!r} fails KKT check: "
                    f"stationarity={res.stationarity:.3e} "
                    f"feasibility={res.feasibility:.3e} "
                    f"complementarity={res.complementarity:.3e}"
                )

    def _observed(self, gid, block, violation, strict):
        if block.strict_function is not None:
            strict = np.asarray(strict, dtype=np.float64)
        try:
            return ConstraintState._trusted(violation, strict, self._all_rows.get(gid))
        except EvaluationError as exc:
            raise EvaluationError(str(exc), group_id=gid) from None

    def evaluate_with_gradients(self, x) -> Evaluation:
        """Evaluation at x, stored in the slot with its blocks; raises on a non-finite Jacobian.

        An oracle output that ``_fits`` goes into the records as returned, a block's once
        its outputs are ``_finite`` (the loss is checked with the state); only a miss runs
        the checks, to convert it or raise, state errors first.
        """
        x = self._check_point(x)
        jac_shape, plan = self._plan
        obj_values, obj_jac = self.objective.val_jac(x)
        # no check of an evaluation reads grad_f's entries: a roll checks the composed gradient
        if not (_fits(obj_values, (1,)) and _fits(obj_jac, jac_shape)):
            obj_values = self.objective._checked_values(obj_values)
            obj_jac = self.objective._checked_jacobian(obj_jac, x.size)
        observed, jacobians, blocks, missed = {}, {}, [], []  # missed: Jacobians checked last
        for gid, block, val_jac, strict_function, group, shape, jac_shape, rows in plan:
            values, jac = val_jac(x)
            fits = _fits(values, shape) and _fits(jac, jac_shape)
            if not fits:
                values = block.function._checked_values(values)
                jac = block.function._checked_jacobian(jac, x.size)
            strict = None if strict_function is None else strict_function(x)
            if (fits and (strict_function is None or _fits(strict, shape))
                    and _finite(values, jac, strict)):
                cstate = _record(ConstraintState, {"violation": values, "strict_violation": strict,
                                                   "observed_indices": rows})
            else:
                cstate = self._observed(gid, block, values, strict)
                missed.append((gid, jac))
            observed[gid] = cstate
            jacobians[gid] = jac
            blocks.append((gid, cstate, group, jac))
        state = CMPState._trusted(float(obj_values[0]), observed)
        for gid, jac in missed:  # after the state, whose errors come first
            if not _all_finite(jac):
                raise _jacobian_error(gid)
        ev = _record(Evaluation, {"state": state, "grad_f": obj_jac[0], "jacobians": jacobians})
        _store_blocks(self, ev, blocks)
        return ev

    def oracle_functions(self) -> dict:
        """Named differentiable oracles for gradient checking."""
        oracles = {"objective": self.objective}
        for gid, block in self._block_by_gid.items():
            oracles[gid] = block.function
        return oracles


def _fits(arr, shape) -> bool:
    """True only if every check of an oracle output but finiteness passes and returns ``arr``."""
    return (type(arr) is np.ndarray and arr.dtype is _FLOAT64 and arr.shape == shape
            and arr.flags.c_contiguous)


def _finite(values, jac, strict) -> bool:
    """A block's one finiteness test: True only if every entry is finite. Below ``_SMALL``
    entries it is a sum, which also misses where finite entries overflow; the checks clear that."""
    if values.size + jac.size + (0 if strict is None else strict.size) < _SMALL:
        total = sum(values.tolist()) + sum(jac.ravel().tolist())
        return math.isfinite(total if strict is None else total + sum(strict.tolist()))
    return _all_finite(values) and _all_finite(jac) and (strict is None or _all_finite(strict))


# ---------------------------------------------------------------------------
# KKT residual


def _split_concat(problem, vector, ctype, what):
    """Split a concatenated per-type multiplier vector into per-group pieces."""
    groups = [g for g in problem.groups.values() if g.constraint_type is ctype]
    total = sum(g.size for g in groups)
    vector = np.zeros(total) if vector is None else np.asarray(vector, dtype=np.float64)
    if vector.shape != (total,):
        raise ValueError(f"{what} must have length {total}, got shape {vector.shape}")
    if not _all_finite(vector):  # else the problem's gradient takes the blame
        raise ValueError(f"{what} must be finite")
    pieces = {}
    offset = 0
    for g in groups:
        pieces[g.name] = vector[offset : offset + g.size]
        offset += g.size
    return pieces


def _kkt_pieces(problem, evaluation, values_by_gid=None) -> KKTResidual:
    """The residual at ``evaluation``; ``values_by_gid`` None means the stored multipliers.

    One pass over the blocks takes the violation maxima and the complementarity,
    on Python floats below ``_SMALL`` entries. During an observer call
    (``optim._hand_on``) the blocks and the record come straight from the slot,
    and with every group Lagrangian the stationarity reads the record's checked
    gradient; otherwise the blocks come from ``optim._blocks_for`` and grad_f +
    sum m J is composed with the rolls' helpers, so it makes their checks and
    none of its own. Leaves ``(state, (max_ineq, max_eq))`` in ``problem._maxima``.
    """
    slot = getattr(problem, "_slot", ())
    if values_by_gid is None and len(slot) == 3 and slot[0] is evaluation:
        blocks, record = slot[1], slot[2]
        for block in blocks:
            if block[2].formulation is not Formulation.LAGRANGIAN:
                record = None  # the record's gradient is not grad f + sum m J
                break
    else:
        blocks, record = _blocks_for(problem, evaluation), None
    gradient = None if record is not None else _grad_f_copy(problem, evaluation)
    max_ineq = max_eq = complementarity = 0.0
    for gid, cstate, group, jacobian in blocks:
        v = cstate.violation
        if not v.size:
            continue
        if values_by_gid is None:
            values = None if group.multiplier is None else group.multiplier._values
        else:
            values = values_by_gid.get(gid)
        if values is not None:  # a quadratic-penalty group counts only in the maxima
            if cstate.observed_indices is not None:
                values = values[cstate.observed_indices]
            if gradient is not None:
                _add_weighted_rows(gradient, values, jacobian)
        if group.constraint_type is not ConstraintType.INEQUALITY:
            max_eq = max(max_eq, _max_abs(v))
        elif v.size < _SMALL:  # |m_i v_i| as Python floats: the IEEE product numpy makes
            entries = v.tolist()
            max_ineq = max(max_ineq, *entries)
            if values is not None:
                products = map(operator.mul, values.tolist(), entries)
                complementarity = max(complementarity, *map(abs, products))
        else:
            max_ineq = max(max_ineq, float(np.max(np.maximum(v, _ZERO))))
            if values is not None:
                complementarity = max(complementarity, _max_abs(values * v))
    gradient = record.gradient if gradient is None else _checked_gradient(evaluation, gradient)
    problem._maxima = (evaluation.state, (max_ineq, max_eq))
    return KKTResidual(_max_abs(gradient), max(max_ineq, max_eq), complementarity)


def kkt_residual(problem, x, lam=None, mu=None) -> KKTResidual:
    """First-order optimality residual at (x, lam, mu).

    ``lam`` concatenates the inequality multipliers over groups in
    registration order and must be nonnegative; ``mu`` the equality
    multipliers. Either may be omitted when zero. Components:
    stationarity ``max-norm of grad f + sum lam_i grad g_i + sum mu_j grad h_j``,
    feasibility ``max(max_i g_i clamped at 0, max_j |h_j|)``, and
    complementarity ``max_i |lam_i g_i|``.
    """
    multipliers = _multiplier_pieces(problem, lam, mu)  # a caller's error before any evaluation
    evaluation = problem.evaluate_with_gradients(np.asarray(x, dtype=np.float64))
    return _kkt_pieces(problem, evaluation, multipliers)


def _multiplier_pieces(problem, lam, mu) -> dict:
    """``lam`` and ``mu`` per group id, each of its length and finite, and ``lam`` >= 0."""
    lam_pieces = _split_concat(problem, lam, ConstraintType.INEQUALITY, "lam")
    for gid, piece in lam_pieces.items():
        if piece.size and piece.min() < 0:
            raise ValueError(f"inequality multipliers must be >= 0 (group {gid!r})")
    return {**lam_pieces, **_split_concat(problem, mu, ConstraintType.EQUALITY, "mu")}


def current_kkt_residual(problem, evaluation=None) -> KKTResidual:
    """KKT residual at the problem's current x and stored multiplier values.

    Groups without multipliers (quadratic penalty) count as zero multipliers.
    Reuses ``evaluation`` when the caller already has one for the current x.
    Called from a ``roll`` observer with the evaluation it was handed, it reads
    the blocks and the record from the slot; when every observed group is
    Lagrangian, the stationarity reads the record's gradient, already checked,
    instead of composing grad f + sum m J again: the same rows added in the
    same order. The violation maxima behind ``feasibility`` stay in the
    problem's one-entry cache, ``problem._maxima``, for the trace row.
    """
    if evaluation is None:
        evaluation = problem.evaluate_with_gradients(problem.x)
    return _kkt_pieces(problem, evaluation)


# ---------------------------------------------------------------------------
# deterministic synthetic data


def splitmix64(seed: int, n: int) -> np.ndarray:
    """First n outputs of the SplitMix64 stream for the given seed, as uint64.

    Written into the output block by block, so temporaries are bounded by one
    block; each output depends only on seed and index, not on the block size.
    """
    seed, n = _as_size(seed, "seed"), _as_size(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    out = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _BLOCK):
        z = out[start:start + _BLOCK]
        np.multiply(np.arange(start + 1, start + z.size + 1, dtype=np.uint64),
                    np.uint64(0x9E3779B97F4A7C15), out=z)
        z += np.uint64(seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return out


def normal_stream(seed: int, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over SplitMix64 uniforms in (0, 1].

    Each block of the stream's bits becomes its normals in place: temporaries are
    bounded by one block, and the output does not depend on the block size.
    """
    n = _as_size(n, "n")
    if n < 0:  # before rounding up to pairs, which turns -1 into 0
        raise ValueError("n must be >= 0")
    out = splitmix64(seed, n + n % 2).view(np.float64)
    for start in range(0, out.size, _BLOCK):  # _BLOCK is even, so no pair straddles two blocks
        block = out[start:start + _BLOCK]
        u = ((block.view(np.uint64) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        theta = (2.0 * math.pi) * u[1::2]
        block[0::2] = r * np.cos(theta)
        block[1::2] = r * np.sin(theta)
    return out[:n]


def two_gaussian_dataset(seed: int, n_points: int = 200, dim: int = 5):
    """Two unit-covariance Gaussians at +-(1/sqrt(dim)) * ones, labels alternating +-1.

    Returns (features, labels) with shapes (n_points, dim) and (n_points,).
    """
    n_points = _as_size(n_points, "n_points")
    dim = _as_size(dim, "dim")
    if n_points < 1 or dim < 1:
        raise ValueError("n_points and dim must be >= 1")
    labels = np.where(np.arange(n_points) % 2 == 0, 1.0, -1.0)
    features = normal_stream(seed, n_points * dim).reshape(n_points, dim)
    features += labels[:, None] * (1.0 / math.sqrt(dim))  # each row's center, added in place
    return features, labels


# ---------------------------------------------------------------------------
# factories


def _as_formulation(formulation) -> Formulation:
    return formulation if isinstance(formulation, Formulation) else Formulation(formulation)


def _as_penalty(formulation: Formulation, penalty):
    """1.0 for a missing penalty where the formulation needs one; the group checks the rest."""
    return 1.0 if penalty is None and formulation is not Formulation.LAGRANGIAN else penalty


def problem_projection_ball(
    a, *, formulation=Formulation.LAGRANGIAN, penalty=None, indexed: bool = False
) -> BenchmarkProblem:
    """min ||x - a||^2 subject to ||x||^2 <= 1, certified by analytic KKT.

    The solution projects a onto the unit ball: x* = a / max(1, ||a||) with
    lam* = max(0, ||a|| - 1) from 2(x - a) + 2 lam x = 0 on the boundary.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("a must be a 1-d vector with dim >= 1")
    if not _all_finite(a):
        raise ValueError("a must be finite")
    formulation = _as_formulation(formulation)
    dim = a.size

    def obj_values(x):
        d = x - a
        return np.array([np.dot(d, d)])

    def obj_val_jac(x):
        d = x - a
        return np.array([np.dot(d, d)]), (_TWO * d)[None, :]

    objective = DifferentiableFunction(
        eval=obj_values, val_jac=obj_val_jac, output_size=1, name="objective"
    )

    def ball_values(x):
        return np.array([np.dot(x, x) - 1.0])

    ball = DifferentiableFunction(
        eval=ball_values,
        val_jac=lambda x: (np.array([np.dot(x, x) - 1.0]), (_TWO * x)[None, :]),
        output_size=1,
        name="ball",
    )

    group = ConstraintGroup(
        name="ball",
        constraint_type=ConstraintType.INEQUALITY,
        size=1,
        formulation=formulation,
        penalty=_as_penalty(formulation, penalty),
        indexed=indexed,
    )
    norm_a = float(np.linalg.norm(a))
    x_star = a / max(1.0, norm_a)
    lam_star = np.array([max(0.0, norm_a - 1.0)])
    certificate = CertifiedSolution(x=x_star, lam=lam_star)
    return BenchmarkProblem(
        name="projection_ball",
        dim=dim,
        objective=objective,
        blocks=(ConstraintBlock(group=group, function=ball),),
        feasible_start=np.zeros(dim),
        certified_solution=certificate,
    )


def problem_equality_qp(
    Q, b, A, c, *, formulation=Formulation.LAGRANGIAN, penalty=None
) -> BenchmarkProblem:
    """min (1/2) x'Qx - b'x subject to Ax = c, certified by a dense KKT solve.

    Q must be symmetric positive definite and A full row rank; the
    certificate solves [[Q, A'], [A, 0]] [x; mu] = [b; c] independently of
    the iterative machinery.
    """
    Q = np.asarray(Q, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    dim = Q.shape[0]
    if b.shape != (dim,):
        raise ValueError(f"b must have shape ({dim},)")
    if A.ndim != 2 or A.shape[1] != dim:
        raise ValueError(f"A must have {dim} columns")
    m = A.shape[0]
    if c.shape != (m,):
        raise ValueError(f"c must have shape ({m},)")
    for name, value in (("Q", Q), ("b", b), ("A", A), ("c", c)):
        if not _all_finite(value):
            raise ValueError(f"{name} must be finite")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12):
        raise ValueError("Q must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise ValueError("Q must be positive definite") from None
    formulation = _as_formulation(formulation)

    kkt = np.zeros((dim + m, dim + m))
    kkt[:dim, :dim] = Q
    kkt[:dim, dim:] = A.T
    kkt[dim:, :dim] = A
    rhs = np.concatenate([b, c])
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        raise ValueError("singular KKT matrix") from None
    x_star, mu_star = solution[:dim], solution[dim:]

    def obj_values(x):
        return np.array([0.5 * np.dot(x, Q @ x) - np.dot(b, x)])

    objective = DifferentiableFunction(
        eval=obj_values,
        val_jac=lambda x: (obj_values(x), (Q @ x - b)[None, :]),
        output_size=1,
        name="objective",
    )

    linear = DifferentiableFunction(
        eval=lambda x: A @ x - c,
        val_jac=lambda x: (A @ x - c, A.copy()),
        output_size=m,
        name="linear",
    )

    group = ConstraintGroup(
        name="linear",
        constraint_type=ConstraintType.EQUALITY,
        size=m,
        formulation=formulation,
        penalty=_as_penalty(formulation, penalty),
    )
    start, *_ = np.linalg.lstsq(A, c, rcond=None)
    return BenchmarkProblem(
        name="equality_qp",
        dim=dim,
        objective=objective,
        blocks=(ConstraintBlock(group=group, function=linear),),
        feasible_start=start,
        certified_solution=CertifiedSolution(x=x_star, mu=mu_star),
    )


def _logistic_loss(features, labels, w, b):
    """Mean binary logistic loss, labels in {-1, +1}, plus the margins and tail it took."""
    margins = labels * (np.dot(features, w) + b)
    # log(1 + e^-m) and log(1 + e^m) are the shared tail log(1 + e^-|m|) plus max(-m, 0)
    # or max(m, 0), bit for bit: numpy's logaddexp(0, t) makes that one log1p(exp(.))
    # call and adds 0 or t exactly, so one pass over |m| serves both signs
    tail = np.logaddexp(_ZERO, -np.abs(margins))
    return np.add.reduce(tail + np.maximum(-margins, _ZERO)) / features.shape[0], margins, tail


def _logistic_loss_grad(features, labels, w, b):
    loss, margins, tail = _logistic_loss(features, labels, w, b)
    n = features.shape[0]
    # gz = -labels * sigma(-margin) / n without overflow; one buffer, which timed faster at
    # n = 200 and n = 10 000 (the other temporaries did not)
    gz = np.maximum(margins, _ZERO)
    gz += tail
    np.negative(gz, out=gz)
    np.exp(gz, out=gz)
    gz *= labels
    gz /= -n
    grad_w = np.dot(gz, features)
    grad_b = np.add.reduce(gz)
    return loss, grad_w, grad_b


def problem_norm_constrained_logreg(
    dataset_seed: int,
    threshold: float,
    *,
    dim: int = 5,
    n_points: int = 200,
    formulation=Formulation.LAGRANGIAN,
    penalty=None,
) -> BenchmarkProblem:
    """Logistic regression with ||w||^2 + b^2 <= threshold on synthetic Gaussians.

    The decision variables stack the weights and the bias: x = (w, b). No
    closed-form solution exists, so there is no certificate; acceptance is
    KKT-residual based. At x = 0 the loss is ln 2 and the violation is
    -threshold.
    """
    threshold = float(threshold)
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")
    formulation = _as_formulation(formulation)
    features, labels = two_gaussian_dataset(dataset_seed, n_points=n_points, dim=dim)
    n_vars = dim + 1

    def split(x):
        return x[:dim], x[dim]

    def obj_val_jac(x):
        w, bias = split(x)
        loss, grad_w, grad_b = _logistic_loss_grad(features, labels, w, bias)
        jac = np.empty((1, n_vars))
        jac[0, :dim] = grad_w
        jac[0, dim] = grad_b
        return np.array([loss]), jac

    objective = DifferentiableFunction(
        eval=lambda x: np.array([_logistic_loss(features, labels, *split(x))[0]]),
        val_jac=obj_val_jac, output_size=1, name="objective",
    )

    norm = DifferentiableFunction(
        eval=lambda x: np.array([np.dot(x, x) - threshold]),
        val_jac=lambda x: (np.array([np.dot(x, x) - threshold]), (_TWO * x)[None, :]),
        output_size=1,
        name="norm",
    )

    group = ConstraintGroup(
        name="norm",
        constraint_type=ConstraintType.INEQUALITY,
        size=1,
        formulation=formulation,
        penalty=_as_penalty(formulation, penalty),
    )
    problem = BenchmarkProblem(
        name="norm_logreg",
        dim=n_vars,
        objective=objective,
        blocks=(ConstraintBlock(group=group, function=norm),),
        feasible_start=np.zeros(n_vars),
    )
    problem.features = features
    problem.labels = labels
    problem.threshold = threshold
    return problem


def problem_bilinear_game(*, formulation=Formulation.LAGRANGIAN, penalty=None) -> BenchmarkProblem:
    """f(x) = 0 with the single equality constraint h(x) = x, dim 1.

    The Lagrangian is mu * x with its saddle at the origin; the start
    (x, mu) = (1, 1) is deliberately infeasible so the rotational dynamics
    are visible from step one. Under the quadratic penalty there is no
    multiplier and the game degenerates to minimizing (c/2) x^2.
    """
    formulation = _as_formulation(formulation)

    objective = DifferentiableFunction(
        eval=lambda x: np.zeros(1),
        val_jac=lambda x: (np.zeros(1), np.zeros((1, 1))),
        output_size=1,
        name="objective",
    )

    level = DifferentiableFunction(
        eval=lambda x: x.copy(),
        val_jac=lambda x: (x.copy(), np.ones((1, 1))),
        output_size=1,
        name="level",
    )

    has_multiplier = formulation is not Formulation.QUADRATIC_PENALTY
    group = ConstraintGroup(
        name="level",
        constraint_type=ConstraintType.EQUALITY,
        size=1,
        formulation=formulation,
        penalty=_as_penalty(formulation, penalty),
        initial_multiplier=np.array([1.0]) if has_multiplier else None,
    )
    return BenchmarkProblem(
        name="bilinear",
        dim=1,
        objective=objective,
        blocks=(ConstraintBlock(group=group, function=level),),
        feasible_start=np.array([1.0]),
        certified_solution=CertifiedSolution(x=np.zeros(1), mu=np.zeros(1)),
    )
