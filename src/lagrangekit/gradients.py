"""Gradient oracles, primal-gradient composition, and finite-difference checks.

Gradients are user-supplied analytic oracles. Central finite differences are
a verification tool (and an explicit opt-in fallback when building
DifferentiableFunction via ``with_finite_difference_gradient``), never a
silent default: silent FD on high-dimensional x is a performance trap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EvaluationError, _all_finite, _as_size

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
    """A pure vector-valued function with one derivative oracle.

    Parameters
    ----------
    eval : callable
        x -> vector of function values, length ``output_size``; read only by
        finite differences (``finite_difference_gradient``).
    val_jac : callable
        x -> (values, Jacobian of shape (output_size, dim)). Every roll and
        ``check_gradients`` read the Jacobian from here, so the gradient that
        is checked is the gradient the solver steps on.
    output_size : int
    name : str
    """

    eval: Callable[[np.ndarray], np.ndarray]
    val_jac: Callable[[np.ndarray], tuple]
    output_size: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "output_size", _as_size(self.output_size, "output_size"))
        if self.output_size < 1:
            raise ValueError(f"output_size must be >= 1, got {self.output_size}")

    def values(self, x) -> np.ndarray:
        return self._checked_values(self.eval(np.asarray(x, dtype=np.float64)))

    def value_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        vals, J = self.val_jac(x)
        return self._checked_values(vals), self._checked_jacobian(J, x.size)

    def _checked_values(self, vals) -> np.ndarray:
        out = np.asarray(vals, dtype=np.float64)
        out = out.reshape(1) if out.ndim == 0 else out
        if out.shape != (self.output_size,):
            raise ValueError(
                f"{self.name or 'function'}: eval returned shape {out.shape}, "
                f"expected ({self.output_size},)"
            )
        return out

    def _checked_jacobian(self, J, dim: int) -> np.ndarray:
        J = np.asarray(J, dtype=np.float64, order="C")  # the layout the rolls' row products read
        if J.shape != (self.output_size, dim):
            raise ValueError(
                f"{self.name or 'function'}: Jacobian shape {J.shape}, "
                f"expected ({self.output_size}, {dim})"
            )
        return J


def with_finite_difference_gradient(
    eval: Callable[[np.ndarray], np.ndarray], output_size: int, name: str = ""
) -> DifferentiableFunction:
    """Build a DifferentiableFunction whose Jacobian comes from central differences.

    This is the explicit opt-in FD fallback for oracles without analytic
    gradients; each Jacobian row costs 2*dim evaluations.
    """

    def val_jac(x):
        values = eval(x)
        return values, np.stack([finite_difference_gradient(fun, x, i) for i in range(output_size)])

    fun = DifferentiableFunction(eval=eval, val_jac=val_jac, output_size=output_size, name=name)
    return fun


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
        if not _all_finite(weights):
            raise EvaluationError("non-finite gradient weights")
        if weights.size:
            jacobian = np.ascontiguousarray(jacobian, dtype=np.float64)
            _check_rows(jacobian, weights.size, total.size)
            _add_weighted_rows(total, weights, jacobian)
    return total


def _check_rows(jacobian: np.ndarray, k: int, dim: int) -> None:
    """Raise unless ``jacobian`` has the (k, dim) shape that k weights combine."""
    if jacobian.shape != (k, dim):
        raise ValueError(
            f"jacobian shape {jacobian.shape} does not match {k} weights and dim {dim}"
        )


def _add_weighted_rows(total: np.ndarray, weights: np.ndarray, jacobian: np.ndarray) -> None:
    """total += jacobian^T @ weights, in place, for a checked C-contiguous float64 jacobian."""
    if weights.size:
        total += weights.dot(jacobian)  # jacobian^T @ weights without the transpose


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
        _, analytic = fun.value_and_jacobian(x)
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
