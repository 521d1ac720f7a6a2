"""Primal and dual optimizers plus the primal-dual update schemes.

The dual side always ascends (multipliers maximize the Lagrangian). Every
scheme follows the same shape: evaluate, assemble the Lagrangian, preview all
updates, then commit. Previews are pure, so a failed evaluation or a
non-finite value leaves x, multipliers, and optimizer buffers untouched.

Multiplier timing of the primal gradient per scheme:

- simultaneous: grad at (x_t, m_t); dual signals at x_t.
- alt-pd: grad at (x_t, m_t); dual signals re-evaluated at x_{t+1} (a reuse
  flag feeds the x_t signals instead, matching the simultaneous dual step).
- alt-dp: dual first from signals at x_t; grad then at (x_t, m_{t+1}).
- extragradient: extrapolate (x_hat, m_hat) via a stateless simultaneous
  preview, then commit x_{t+1} = x_t - eta * grad(x_hat, m_hat) and
  m_{t+1} = project(m_t + eta * signals(x_hat)); stateful optimizer buffers
  advance only on the commit step.

Finiteness is checked once per value on a roll, then trusted:

- oracle output where it enters: x, loss and violations with the
  evaluation, each Jacobian in ``assemble``;
- what ``assemble`` derives: the primal Lagrangian, a dual signal c * v,
  and the composed gradient (which covers grad_f);
- proposals before commit: x_new and each multiplier preview.

Public entry points (``primal_step``, ``dual_step``, ``*.step``,
``preview_delta``, ``set_x``, ``*_contribution``) keep their own checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import CMPState, ConstrainedMinimizationProblem, Evaluation, EvaluationError
# the public checked functions stay importable here: perfbench/tracing.py wraps them
from .formulations import _terms, assemble_lagrangian, group_contribution  # noqa: F401
from .gradients import _add_weighted_rows, compose_primal_gradient  # noqa: F401
from .multipliers import Multiplier, _check_indices, multiplier_values_for  # noqa: F401

__all__ = [
    "PrimalOptimizer",
    "GradientDescent",
    "Momentum",
    "AdamLike",
    "DualOptimizer",
    "GradientAscent",
    "NuPI",
    "PrimalDualOptimizers",
    "make_dual_optimizers",
    "AssembledLagrangian",
    "assemble",
    "RollOut",
    "primal_step",
    "dual_step",
    "roll_simultaneous",
    "roll_alternating_primal_dual",
    "roll_alternating_dual_primal",
    "roll_extragradient",
    "roll",
    "SCHEMES",
]

SCHEMES = ("simultaneous", "alt-pd", "alt-dp", "extragradient")


def _check_learning_rate(lr: float) -> float:
    lr = float(lr)
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    return lr


def _check_gradient(x: np.ndarray, grad) -> np.ndarray:
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise ValueError(f"gradient shape {grad.shape} != x shape {x.shape}")
    if not np.isfinite(grad).all():
        raise EvaluationError("non-finite gradient")
    return grad


class _BadBuffer(ValueError):
    """A buffer rejected by ``_staged_buffers``; ``buffer`` names it."""

    def __init__(self, buffer: str, message: str):
        super().__init__(message)
        self.buffer = buffer


def _staged_vector(state: dict, name: str) -> Optional[np.ndarray]:
    value = state[name]
    if value is None:
        return None
    if np.ndim(value) != 1:
        raise _BadBuffer(name, f"{name} must be a 1-d vector, got shape {np.shape(value)}")
    return np.array(value, dtype=np.float64)


class _Optimizer:
    """Learning rate plus the buffer protocol shared by primal and dual optimizers.

    ``commit`` persists a staged update. ``_staged_buffers`` validates a
    dict with the ``buffer_state`` keys without touching the optimizer and
    returns what ``commit`` adopts, so a rejected ``load_buffer_state``
    changes nothing. Buffers are created lazily at the first committed step.
    """

    kind = ""

    def __init__(self, learning_rate: float):
        self.learning_rate = _check_learning_rate(learning_rate)

    def commit(self, staged) -> None:
        pass

    def buffer_state(self) -> dict:
        return {}

    def _staged_buffers(self, state: dict):
        return None

    def load_buffer_state(self, state: dict) -> None:
        expected = sorted(self.buffer_state())
        if sorted(state) != expected:
            raise ValueError(f"{self.kind}: expected buffers {expected}, got {sorted(state)}")
        self.commit(self._staged_buffers(state))


# ---------------------------------------------------------------------------
# primal optimizers


class PrimalOptimizer(_Optimizer):
    """Descending first-order optimizer with preview/commit semantics.

    ``step`` is pure: it returns the new point and the staged buffer update
    without touching the optimizer. It checks the gradient, then runs
    ``_step``, which the rolls call directly. Subclasses implement either.
    """

    def step(self, x: np.ndarray, grad) -> tuple[np.ndarray, object]:
        x = np.asarray(x, dtype=np.float64)
        return self._step(x, _check_gradient(x, grad))

    def _step(self, x: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, object]:
        if type(self).step is PrimalOptimizer.step:
            raise NotImplementedError
        x_new, staged = self.step(x, grad)  # a subclass that overrides only step
        return np.array(x_new, dtype=np.float64).reshape(x.shape), staged


class GradientDescent(PrimalOptimizer):
    """x' = x - lr * grad."""

    kind = "gd"

    def _step(self, x, grad):
        return x - self.learning_rate * grad, None


class Momentum(PrimalOptimizer):
    """Heavy-ball: v <- beta v + grad, x' = x - lr * v. beta=0 is exactly GD."""

    kind = "momentum"

    def __init__(self, learning_rate: float, beta: float = 0.9):
        super().__init__(learning_rate)
        beta = float(beta)
        if not (0.0 <= beta < 1.0):
            raise ValueError(f"momentum beta must be in [0, 1), got {beta}")
        self.beta = beta
        self.velocity: Optional[np.ndarray] = None

    def _step(self, x, grad):
        velocity = self.velocity if self.velocity is not None else np.zeros_like(x)
        if velocity.shape != x.shape:
            raise ValueError(f"velocity shape {velocity.shape} != x shape {x.shape}")
        v_new = self.beta * velocity + grad
        return x - self.learning_rate * v_new, v_new

    def commit(self, staged):
        self.velocity = staged

    def buffer_state(self):
        return {"velocity": self.velocity}

    def _staged_buffers(self, state):
        return _staged_vector(state, "velocity")


class AdamLike(PrimalOptimizer):
    """Bias-corrected adaptive moments, descending."""

    kind = "adam"

    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"adam betas must be in [0, 1), got {beta1}, {beta2}")
        if not (0 < eps < np.inf):
            raise ValueError(f"adam eps must be finite and > 0, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.t = 0

    def _step(self, x, grad):
        m = self.m if self.m is not None else np.zeros_like(x)
        v = self.v if self.v is not None else np.zeros_like(x)
        if m.shape != x.shape or v.shape != x.shape:
            raise ValueError("adam buffers do not match x shape")
        t_new = self.t + 1
        m_new = self.beta1 * m + (1.0 - self.beta1) * grad
        v_new = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        m_hat = m_new / (1.0 - self.beta1 ** t_new)
        v_hat = v_new / (1.0 - self.beta2 ** t_new)
        x_new = x - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        return x_new, (m_new, v_new, t_new)

    def commit(self, staged):
        self.m, self.v, self.t = staged

    def buffer_state(self):
        return {"m": self.m, "v": self.v, "t": self.t}

    def _staged_buffers(self, state):
        t = state["t"]
        if not isinstance(t, (int, np.integer)) or t < 0:
            raise _BadBuffer("t", f"adam step count must be an integer >= 0, got {t!r}")
        return _staged_vector(state, "m"), _staged_vector(state, "v"), int(t)


# ---------------------------------------------------------------------------
# dual optimizers


class DualOptimizer(_Optimizer):
    """Ascending optimizer producing multiplier deltas, with preview/commit.

    ``step`` checks the indices, then runs ``_step``, which the rolls call
    directly. Subclasses implement either.
    """

    def step(self, signal: np.ndarray, indices, size: int) -> tuple[np.ndarray, object]:
        idx = None if indices is None else _check_indices(indices, size)
        return self._step(signal, idx, size)

    def _step(self, signal, indices, size):
        if type(self).step is DualOptimizer.step:
            raise NotImplementedError
        return self.step(signal, indices, size)  # a subclass that overrides only step


class GradientAscent(DualOptimizer):
    """delta = +lr * dual_signal; projection is applied by the multiplier."""

    kind = "gradient_ascent"

    def _step(self, signal, indices, size):
        return self.learning_rate * signal, None


class NuPI(DualOptimizer):
    """PI controller on the dual signal.

    With error e_t = dual_signal: ehat_t = nu * ehat_{t-1} + (1 - nu) * e_t
    and delta = lr * (e_t + kappa_p * (ehat_t - ehat_{t-1})). The EMA is
    initialized per entry to the first observed error, so the first step
    equals plain gradient ascent; with kappa_p = 0 every step does. Buffers
    advance only at the addressed indices.
    """

    kind = "nupi"

    def __init__(self, learning_rate: float, kappa_p: float = 1.0, nu: float = 0.9):
        super().__init__(learning_rate)
        kappa_p = float(kappa_p)
        nu = float(nu)
        if not (0.0 <= kappa_p < np.inf):
            raise ValueError(f"kappa_p must be finite and >= 0, got {kappa_p}")
        if not (0.0 <= nu < 1.0):
            raise ValueError(f"nu must be in [0, 1), got {nu}")
        self.kappa_p = kappa_p
        self.nu = nu
        self.ema: Optional[np.ndarray] = None
        self.seen: Optional[np.ndarray] = None

    def _step(self, signal, indices, size):
        if self.ema is None:
            ema = np.zeros(size, dtype=np.float64)
            seen = np.zeros(size, dtype=bool)
        else:
            if self.ema.size != size:
                raise ValueError(f"nupi buffer size {self.ema.size} != multiplier size {size}")
            ema = self.ema.copy()
            seen = self.seen.copy()
        e = signal
        idx = slice(None) if indices is None else indices
        prev = np.where(seen[idx], ema[idx], e)
        new = self.nu * prev + (1.0 - self.nu) * e
        delta = self.learning_rate * (e + self.kappa_p * (new - prev))
        ema[idx] = new
        seen[idx] = True
        return delta, (ema, seen)

    def commit(self, staged):
        self.ema, self.seen = staged

    def buffer_state(self):
        return {"ema": self.ema, "seen": self.seen}

    def _staged_buffers(self, state):
        if (state["ema"] is None) != (state["seen"] is None):
            raise ValueError("nupi: ema and seen must both be present or both absent")
        ema = _staged_vector(state, "ema")
        if ema is None:
            return None, None
        seen = np.asarray(state["seen"], dtype=bool).copy()
        if ema.shape != seen.shape:
            raise ValueError("nupi: ema and seen shapes differ")
        return ema, seen


@dataclass
class PrimalDualOptimizers:
    """One primal optimizer, one dual optimizer per multiplier group, a step count."""

    primal: PrimalOptimizer
    duals: dict = field(default_factory=dict)
    step: int = 0


def make_dual_optimizers(
    problem: ConstrainedMinimizationProblem, factory: Callable[[], DualOptimizer]
) -> dict:
    """One dual optimizer per registered group that carries a multiplier."""
    return {
        gid: factory()
        for gid, group in problem.groups.items()
        if group.multiplier is not None
    }


# ---------------------------------------------------------------------------
# Lagrangian assembly over an evaluation


@dataclass(frozen=True)
class AssembledLagrangian:
    """Scalars, gradient, and dual signals of one evaluation.

    ``dual_lagrangian`` is the loss-free sum of <multiplier, dual_signal>
    over the groups that carry multipliers; ``dual_signals`` and
    ``observed_indices`` cover exactly those groups.
    """

    primal_lagrangian: float
    dual_lagrangian: float
    gradient: np.ndarray
    dual_signals: dict
    observed_indices: dict


def assemble(
    problem: ConstrainedMinimizationProblem,
    evaluation: Evaluation,
    multiplier_values: Optional[dict] = None,
) -> AssembledLagrangian:
    """Assemble the primal Lagrangian, its x-gradient, and the dual signals.

    ``multiplier_values`` optionally overrides the stored multiplier values
    per group id; schemes use it to take gradients at not-yet-committed
    multipliers.
    """
    state = evaluation.state
    problem.check_state(state)
    gradient = np.array(evaluation.grad_f, dtype=np.float64)
    if gradient.shape != (problem.dim,):
        raise ValueError(f"grad_f shape {gradient.shape} != ({problem.dim},)")

    primal_lagrangian = state.loss
    dual_lagrangian = 0.0
    signals: dict[str, np.ndarray] = {}
    indices: dict[str, Optional[np.ndarray]] = {}
    for gid, cstate in state.observed_constraints.items():
        group = problem.group(gid)
        override = None if multiplier_values is None else multiplier_values.get(gid)
        values = group.multiplier if override is None else override
        term, signal, weights, gathered = _terms(
            group, cstate, values, group.penalty, group.formulation
        )
        jacobian = evaluation.jacobians.get(gid)
        if jacobian is None:
            raise ValueError(f"evaluation has no Jacobian for group {gid!r}")
        jacobian = np.asarray(jacobian, dtype=np.float64)
        if not np.isfinite(jacobian).all():
            raise EvaluationError(f"non-finite Jacobian for group {gid!r}", group_id=gid)
        primal_lagrangian += term
        _add_weighted_rows(gradient, weights, jacobian)
        if gathered is not None:
            # a derived signal (c * v) can overflow to -inf, which the projection
            # would clamp to 0; the plain signal is the checked violation itself
            if signal is not cstate.dual_violation and not np.isfinite(signal).all():
                raise EvaluationError(f"non-finite dual signal for group {gid!r}", group_id=gid)
            dual_lagrangian += float(np.dot(gathered, signal))
            signals[gid] = signal
            indices[gid] = cstate.observed_indices

    primal_lagrangian = float(primal_lagrangian)
    if not math.isfinite(primal_lagrangian):
        raise EvaluationError(f"non-finite primal Lagrangian {primal_lagrangian}")
    # also the check of grad_f: a non-finite entry stays non-finite in the sum
    if not np.isfinite(gradient).all():
        if not np.isfinite(evaluation.grad_f).all():
            raise EvaluationError("non-finite objective gradient")
        raise EvaluationError("non-finite primal gradient")
    return AssembledLagrangian(primal_lagrangian, dual_lagrangian, gradient, signals, indices)


# ---------------------------------------------------------------------------
# single-optimizer steps


def primal_step(optimizer: PrimalOptimizer, x, grad) -> np.ndarray:
    """One committed primal update; returns the new point."""
    x = np.asarray(x, dtype=np.float64)
    x_new, staged = _preview_primal(optimizer, x, _check_gradient(x, grad))
    optimizer.commit(staged)
    return x_new


def dual_step(
    optimizer: DualOptimizer, multiplier: Multiplier, dual_signal, indices=None
) -> Multiplier:
    """One committed dual ascent update on a multiplier; returns the multiplier.

    The optimizer's delta goes through the multiplier's ``preview_delta``, so
    the non-negativity projection for inequality multipliers is included, and
    only the addressed indices (when given) change values, counters, or
    optimizer buffers.
    """
    signal = np.asarray(dual_signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("dual signal must be a 1-d vector")
    if not np.isfinite(signal).all():
        raise EvaluationError("non-finite dual signal")
    indices = None if indices is None else _check_indices(indices, multiplier.size)
    expected = multiplier.size if indices is None else indices.size
    if signal.size != expected:
        raise ValueError(f"dual signal length {signal.size} != expected {expected}")
    _preview_dual(multiplier, optimizer, signal, indices).commit()
    return multiplier


# ---------------------------------------------------------------------------
# rolls


@dataclass(frozen=True)
class RollOut:
    """Result of one composite step.

    ``cmp_state`` is the evaluation at the pre-step point x_t for every
    scheme; ``dual_lagrangian`` pairs the pre-update multiplier values with
    the signals that actually drove the dual step (see the scheme docs for
    where those signals are measured).
    """

    loss: float
    primal_lagrangian: float
    dual_lagrangian: float
    cmp_state: CMPState


@dataclass(frozen=True)
class _DualUpdate:
    """A previewed dual step: the projected multiplier values and staged buffers."""

    multiplier: Multiplier
    optimizer: DualOptimizer
    indices: Optional[np.ndarray]
    staged: object
    preview: np.ndarray

    def commit(self) -> None:
        self.multiplier._store(self.preview, self.indices)
        self.optimizer.commit(self.staged)


def _resolve_evaluate(problem, evaluate):
    problem.freeze_registration()
    return problem.evaluate_with_gradients if evaluate is None else evaluate


def _preview_primal(optimizer, x, grad):
    x_new, staged = optimizer._step(x, grad)
    if not np.isfinite(x_new).all():
        raise EvaluationError("primal step produced non-finite x")
    return x_new, staged


def _preview_dual(multiplier, optimizer, signal, indices) -> _DualUpdate:
    delta, staged = optimizer._step(signal, indices, multiplier.size)
    preview = multiplier._preview(delta, indices)
    return _DualUpdate(multiplier, optimizer, indices, staged, preview)


def _preview_duals(problem, optimizers, assembled: AssembledLagrangian) -> dict:
    """Previewed dual updates keyed by group id, for groups with a non-empty signal."""
    updates = {}
    for gid, signal in assembled.dual_signals.items():
        if signal.size == 0:
            continue
        optimizer = optimizers.duals.get(gid)
        if optimizer is None:
            raise ValueError(f"no dual optimizer bound for group {gid!r}")
        updates[gid] = _preview_dual(
            problem.group(gid).multiplier, optimizer, signal, assembled.observed_indices[gid]
        )
    return updates


def _commit(problem, optimizers, x_new, staged_primal, dual_updates):
    problem._x = x_new  # a fresh point that _preview_primal has checked
    optimizers.primal.commit(staged_primal)
    for update in dual_updates.values():
        update.commit()
    optimizers.step += 1


def roll_simultaneous(problem, optimizers, evaluate=None) -> RollOut:
    """Simultaneous GDA: one evaluation drives both the primal and dual step.

    The primal step descends grad of the Lagrangian at (x_t, m_t); the dual
    step ascends the signals from the same evaluation; inequality multipliers
    are projected element-wise onto the nonnegative orthant.
    """
    evaluate = _resolve_evaluate(problem, evaluate)
    ev = evaluate(problem.x)
    asm = assemble(problem, ev)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, asm.gradient)
    dual_updates = _preview_duals(problem, optimizers, asm)
    _commit(problem, optimizers, x_new, staged_primal, dual_updates)
    return RollOut(ev.state.loss, asm.primal_lagrangian, asm.dual_lagrangian, ev.state)


def roll_alternating_primal_dual(
    problem, optimizers, evaluate=None, reuse_primal_evaluation: bool = False
) -> RollOut:
    """Primal step first, then the dual step on signals measured at x_{t+1}.

    With ``reuse_primal_evaluation`` the second evaluation is skipped and the
    dual step sees the x_t signals instead (a documented bias that makes the
    first step identical to the simultaneous scheme).
    """
    evaluate = _resolve_evaluate(problem, evaluate)
    ev = evaluate(problem.x)
    asm = assemble(problem, ev)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, asm.gradient)
    if reuse_primal_evaluation:
        dual_source = asm
    else:
        dual_source = assemble(problem, evaluate(x_new))
    dual_updates = _preview_duals(problem, optimizers, dual_source)
    _commit(problem, optimizers, x_new, staged_primal, dual_updates)
    return RollOut(
        ev.state.loss, asm.primal_lagrangian, dual_source.dual_lagrangian, ev.state
    )


def roll_alternating_dual_primal(problem, optimizers, evaluate=None) -> RollOut:
    """Dual step first on x_t signals; the primal step then uses m_{t+1}.

    Both updates come from the single x_t evaluation; the primal gradient is
    re-assembled at the previewed multiplier values before anything commits.
    """
    evaluate = _resolve_evaluate(problem, evaluate)
    ev = evaluate(problem.x)
    asm = assemble(problem, ev)
    dual_updates = _preview_duals(problem, optimizers, asm)
    override = {gid: u.preview for gid, u in dual_updates.items()}
    asm_updated = assemble(problem, ev, multiplier_values=override)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, asm_updated.gradient)
    _commit(problem, optimizers, x_new, staged_primal, dual_updates)
    return RollOut(ev.state.loss, asm.primal_lagrangian, asm.dual_lagrangian, ev.state)


def roll_extragradient(problem, optimizers, evaluate=None) -> RollOut:
    """Extrapolate with a stateless simultaneous preview, commit from gradients there.

    The half-point (x_hat, m_hat) comes from previews that advance no buffers;
    the committed step applies grad(x_hat, m_hat) and signals(x_hat) to the
    original (x_t, m_t), advancing stateful buffers exactly once.
    """
    evaluate = _resolve_evaluate(problem, evaluate)
    ev = evaluate(problem.x)
    asm = assemble(problem, ev)
    x_hat, _ = _preview_primal(optimizers.primal, problem.x, asm.gradient)
    half_updates = _preview_duals(problem, optimizers, asm)
    override = {gid: u.preview for gid, u in half_updates.items()}
    ev_hat = evaluate(x_hat)
    asm_hat = assemble(problem, ev_hat, multiplier_values=override)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, asm_hat.gradient)
    dual_updates = _preview_duals(problem, optimizers, asm_hat)
    _commit(problem, optimizers, x_new, staged_primal, dual_updates)
    return RollOut(ev.state.loss, asm.primal_lagrangian, asm.dual_lagrangian, ev.state)


def roll(
    problem,
    optimizers,
    scheme: str = "simultaneous",
    evaluate=None,
    reuse_primal_evaluation: bool = False,
) -> RollOut:
    """Dispatch one roll by scheme name (see SCHEMES)."""
    if scheme == "simultaneous":
        return roll_simultaneous(problem, optimizers, evaluate)
    if scheme == "alt-pd":
        return roll_alternating_primal_dual(
            problem, optimizers, evaluate, reuse_primal_evaluation
        )
    if scheme == "alt-dp":
        return roll_alternating_dual_primal(problem, optimizers, evaluate)
    if scheme == "extragradient":
        return roll_extragradient(problem, optimizers, evaluate)
    raise ValueError(f"unknown scheme {scheme!r}; valid schemes: {', '.join(SCHEMES)}")
