"""Gradient oracles, primal-gradient composition, and finite-difference checks.

Gradients are user-supplied analytic oracles. Central finite differences are
a verification tool (and an explicit opt-in fallback when building
DifferentiableFunction via ``with_finite_difference_gradient``), never a
silent default: silent FD on high-dimensional x is a performance trap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import EvaluationError

__all__ = [
    "DifferentiableFunction",
    "with_finite_difference_gradient",
    "compose_primal_gradient",
    "finite_difference_gradient",
    "check_gradients",
    "GradientCheckEntry",
    "GradientCheckReport",
]

FD_STEP_SCALE = 6e-6  # near-optimal central-difference step for float64


@dataclass(frozen=True)
class DifferentiableFunction:
    """A pure vector-valued function with per-output gradient oracles.

    Parameters
    ----------
    eval : callable
        x -> vector of function values, length ``output_size``.
    grad_row : callable
        (x, i) -> gradient of output i with respect to x.
    output_size : int
    name : str
    jac : callable, optional
        x -> full Jacobian (output_size, dim); defaults to stacking grad_row.
    val_jac : callable, optional
        x -> (values, Jacobian) fused evaluation for oracles where the two
        share work.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    grad_row: Callable[[np.ndarray, int], np.ndarray]
    output_size: int
    name: str = ""
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    val_jac: Optional[Callable[[np.ndarray], tuple]] = field(default=None, repr=False)

    def __post_init__(self):
        if int(self.output_size) < 1:
            raise ValueError(f"output_size must be >= 1, got {self.output_size}")
        object.__setattr__(self, "output_size", int(self.output_size))

    def values(self, x) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self.eval(np.asarray(x, dtype=np.float64)), dtype=np.float64))
        if out.shape != (self.output_size,):
            raise ValueError(
                f"{self.name or 'function'}: eval returned shape {out.shape}, "
                f"expected ({self.output_size},)"
            )
        return out

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.jac is not None:
            J = np.asarray(self.jac(x), dtype=np.float64)
        else:
            J = np.stack(
                [
                    np.asarray(self.grad_row(x, i), dtype=np.float64)
                    for i in range(self.output_size)
                ]
            )
        if J.shape != (self.output_size, x.size):
            raise ValueError(
                f"{self.name or 'function'}: Jacobian shape {J.shape}, "
                f"expected ({self.output_size}, {x.size})"
            )
        return J

    def value_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        if self.val_jac is not None:
            vals, J = self.val_jac(np.asarray(x, dtype=np.float64))
            return (
                np.atleast_1d(np.asarray(vals, dtype=np.float64)),
                np.asarray(J, dtype=np.float64),
            )
        return self.values(x), self.jacobian(x)


def with_finite_difference_gradient(
    eval: Callable[[np.ndarray], np.ndarray], output_size: int, name: str = ""
) -> DifferentiableFunction:
    """Build a DifferentiableFunction whose gradients come from central differences.

    This is the explicit opt-in FD fallback for oracles without analytic
    gradients; each gradient row costs 2*dim evaluations.
    """
    base = DifferentiableFunction(
        eval=eval, grad_row=_no_grad, output_size=output_size, name=name
    )
    return DifferentiableFunction(
        eval=eval,
        grad_row=lambda x, i: finite_difference_gradient(base, x, i),
        output_size=output_size,
        name=name,
    )


def _no_grad(x, i):
    raise NotImplementedError("no analytic gradient available")


def compose_primal_gradient(grad_f: np.ndarray, constraint_grads) -> np.ndarray:
    """grad_f plus the weighted constraint Jacobian rows, by linearity.

    Parameters
    ----------
    grad_f : ndarray
        Objective gradient, shape (dim,).
    constraint_grads : iterable of (weights, jacobian)
        Per-group formulation weights (shape (k,)) and the matching Jacobian
        of the observed violations (shape (k, dim)).
    """
    grad_f = np.asarray(grad_f, dtype=np.float64)
    if grad_f.ndim != 1:
        raise ValueError(f"grad_f must be 1-d, got shape {grad_f.shape}")
    total = grad_f.copy()
    for weights, jacobian in constraint_grads:
        weights = np.asarray(weights, dtype=np.float64)
        if not np.isfinite(weights).all():
            raise EvaluationError("non-finite gradient weights")
        _add_weighted_rows(total, weights, jacobian)
    return total


def _add_weighted_rows(total: np.ndarray, weights: np.ndarray, jacobian) -> None:
    """total += jacobian^T @ weights, in place; ``assemble`` sums its groups with it."""
    if weights.size == 0:
        return
    jacobian = np.ascontiguousarray(jacobian, dtype=np.float64)
    if jacobian.shape != (weights.size, total.size):
        raise ValueError(
            f"jacobian shape {jacobian.shape} does not match "
            f"{weights.size} weights and dim {total.size}"
        )
    total += np.dot(weights, jacobian)  # jacobian^T @ weights without the transpose


def finite_difference_gradient(
    fun: DifferentiableFunction, x, output_index: int = 0
) -> np.ndarray:
    """Central-difference gradient of one output of ``fun`` at x.

    Uses per-coordinate step h_k = 6e-6 * max(1, |x_k|).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"x must be a vector of dim >= 1, got shape {x.shape}")
    if not (0 <= output_index < fun.output_size):
        raise ValueError(
            f"output_index {output_index} out of range for {fun.output_size} outputs"
        )
    grad = np.empty(x.size, dtype=np.float64)
    for k in range(x.size):
        h = FD_STEP_SCALE * max(1.0, abs(x[k]))
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        fp = fun.values(xp)[output_index]
        fm = fun.values(xm)[output_index]
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(
                f"{fun.name or 'function'}: non-finite evaluation near x"
            )
        grad[k] = (fp - fm) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class GradientCheckEntry:
    """Worst deviation of one oracle's analytic gradient from finite differences."""

    name: str
    max_deviation: float
    max_allowed: float
    passed: bool


@dataclass(frozen=True)
class GradientCheckReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> tuple:
        return tuple(entry for entry in self.entries if not entry.passed)


def check_gradients(oracles, x, rel_tol: float = 1e-5, abs_tol: float = 1e-8) -> GradientCheckReport:
    """Compare every oracle's analytic Jacobian against central differences at x.

    ``oracles`` is either a mapping name -> DifferentiableFunction or an
    object exposing ``oracle_functions()`` (benchmark problems do). An oracle
    passes iff for every output and coordinate
    |analytic - fd| <= abs_tol + rel_tol * |fd|. Failures are reported, not
    thrown.
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be > 0")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"x must be a vector of dim >= 1, got shape {x.shape}")
    if hasattr(oracles, "oracle_functions"):
        functions = dict(oracles.oracle_functions())
    else:
        functions = dict(oracles)

    entries = []
    for name, fun in functions.items():
        analytic = fun.jacobian(x)
        worst_dev = -1.0
        worst_allowed = abs_tol
        ok = True
        for i in range(fun.output_size):
            fd = finite_difference_gradient(fun, x, i)
            deviation = np.abs(analytic[i] - fd)
            allowed = abs_tol + rel_tol * np.abs(fd)
            if (deviation > allowed).any():
                ok = False
            k = int(np.argmax(deviation))
            if deviation[k] > worst_dev:
                worst_dev = float(deviation[k])
                worst_allowed = float(allowed[k])
        entries.append(GradientCheckEntry(name, worst_dev, worst_allowed, ok))
    return GradientCheckReport(tuple(entries))
