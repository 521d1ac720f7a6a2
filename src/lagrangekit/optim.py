"""Primal and dual optimizers plus the primal-dual update schemes.

The dual side always ascends (multipliers maximize the Lagrangian). ``roll``
evaluates at x_t and commits; a scheme only previews: it assembles the
Lagrangian and returns its proposed updates, which ``roll`` commits last.
Previews are pure, so a failed evaluation or a non-finite value leaves x,
multipliers, and optimizer buffers untouched.

Multiplier timing of the primal gradient per scheme:

- simultaneous: grad at (x_t, m_t); dual signals at x_t.
- alt-pd: grad at (x_t, m_t); dual signals re-evaluated at x_{t+1}.
- alt-dp: dual first from signals at x_t; grad then at (x_t, m_{t+1}).
- extragradient: extrapolate (x_hat, m_hat) via a stateless simultaneous
  preview, then commit x_{t+1} = x_t - eta * grad(x_hat, m_hat) and
  m_{t+1} = project(m_t + eta * signals(x_hat)); stateful optimizer buffers
  advance only on the commit step.

Each value is checked once, then trusted:

- a group's multiplier and penalty by the group, when it is built and when
  its penalty is reassigned; the passes read both unchecked. Overrides a
  caller passes to ``assemble`` (``multiplier_values``) are checked on entry;
- oracle output once per evaluation: x, loss and violations with it; Jacobians
  where a ``BenchmarkProblem``'s oracles return them, else in ``_checked_blocks``
  with each group's fit (present, finite, (k, dim) unless k = 0). A library
  output takes one fast test; the full checks run only to explain a miss;
- what one loop over the blocks, ``_dual_pass``, derives at given
  multipliers: the primal Lagrangian and a dual signal c * v. The gradient
  is composed after it, only in ``_composed``, from the (m, c) the loop
  gathered, which the previews read too, on a copy of grad_f whose shape is
  compared there (so after the Lagrangian, which covers grad_f). A gradient
  a scheme does not use (alt-pd's at x_{t+1}; alt-dp's at m_t, unless an
  observer takes it) is not composed;
- proposals before commit: x_new and each multiplier preview.

The problem's slot holds one evaluation object's checked blocks, put there
by ``_store_blocks`` (a ``BenchmarkProblem`` evaluation, which arrives
checked; a user's at x_{t+1}) or ``assemble`` without overrides.
``_blocks_for`` serves the rolls and the KKT residual from it, and checks any
evaluation it does not hold. No record is kept: a trace row is the record
``roll`` opens with, handed to its observer, and the slot holds that record
only while the call runs (``_hand_on``).

A dual preview of an indexed update holds only the addressed entries, and
the commit writes them, and NuPI's buffer entries, in place: O(observed),
not O(size). ``Multiplier.values``, ``IndexedMultiplier.update_count`` and
``NuPI.buffer_state()`` are therefore live arrays; copy them to keep them.

Every ufunc on the step path takes array operands: numpy converts a Python
float operand at each call (about 150 ns of a 500 ns multiply at n = 2) and
takes a read-only float64 0-d array as it is, bit for bit the same. The clamps
read ``core._ZERO``, the factory Jacobians ``core._TWO``, a step the twins of
each coefficient, which ``_Coefficient`` stores at each assignment.

The committed x is read-only and trusted: it was checked as x_new. User-built
states and evaluations (checked by ``_checked_blocks``) and the public entry
points (``*.step``, ``preview_delta``, ``apply_dual_delta``, ``set_x``,
``group_contribution``) keep every check; a user's index list costs one sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import CMPState, ConstrainedMinimizationProblem, Evaluation, EvaluationError
from .core import _all_finite, _check_real, _constant, _record
# the public checked functions stay importable here: perfbench/tracing.py wraps them
from .formulations import _checked_values, _terms, _weights
from .formulations import assemble_lagrangian, group_contribution  # noqa: F401
from .gradients import _add_weighted_rows, _check_rows, compose_primal_gradient  # noqa: F401
from .multipliers import _check_indices, multiplier_values_for  # noqa: F401

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
    "roll",
    "SCHEMES",
]

class _BadBuffer(ValueError):
    """A buffer rejected by ``_staged_buffers``; ``buffer`` names it."""

    def __init__(self, buffer: str, message: str):
        super().__init__(message)
        self.buffer = buffer


def _staged_vector(state: dict, name: str, finite: bool = True) -> Optional[np.ndarray]:
    """``state[name]`` as a new float vector, or None; finite unless ``finite`` is False."""
    value = state[name]
    if value is None:
        return None
    if np.ndim(value) != 1:
        raise _BadBuffer(name, f"{name} must be a 1-d vector, got shape {np.shape(value)}")
    vector = np.asarray(value)
    if vector.dtype == np.bool_:  # would load as 0/1 floats
        raise _BadBuffer(name, f"{name} must be a vector of numbers, got booleans")
    vector = np.array(vector, dtype=np.float64)
    if finite and not _all_finite(vector):
        raise _BadBuffer(name, f"{name} must be finite")
    return vector


class _Coefficient:
    """A public float coefficient. Each assignment also stores the 0-d twins the steps read
    (module docstring), ``_<name>`` and ``_1m<name>`` (1.0 - it); a read takes the float."""

    def __set_name__(self, owner, name):
        self.name = name

    def __set__(self, obj, value):
        _check_real(value, self.name)
        value = float(value)
        obj.__dict__.update({self.name: value, "_" + self.name: _constant(value),
                             "_1m" + self.name: _constant(1.0 - value)})


class _Optimizer:
    """Learning rate plus the buffer protocol shared by primal and dual optimizers.

    ``commit`` persists a staged update. ``_staged_buffers`` validates a
    dict with the ``buffer_state`` keys without touching the optimizer and
    returns what ``commit`` adopts, so a rejected ``load_buffer_state``
    changes nothing. Buffers are created lazily at the first committed step.
    """

    kind = ""
    learning_rate = _Coefficient()

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")

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
    ``_step(x, grad)``, the one method a subclass implements and the rolls
    call: both arrive checked, float64 arrays of one shape, and it returns
    ``(x_new, staged)``, x_new a new float64 array of that shape (unconverted).
    """

    def step(self, x: np.ndarray, grad) -> tuple[np.ndarray, object]:
        x, grad = np.asarray(x, dtype=np.float64), np.asarray(grad, dtype=np.float64)
        if grad.shape != x.shape:
            raise ValueError(f"gradient shape {grad.shape} != x shape {x.shape}")
        if not _all_finite(grad):
            raise EvaluationError("non-finite gradient")
        return self._step(x, grad)

    def _step(self, x: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, object]:
        raise NotImplementedError


class GradientDescent(PrimalOptimizer):
    """x' = x - lr * grad."""

    kind = "gd"

    def _step(self, x, grad):
        return x - self._learning_rate * grad, None


class Momentum(PrimalOptimizer):
    """Heavy-ball: v <- beta v + grad, x' = x - lr * v. beta=0 is exactly GD."""

    kind = "momentum"
    beta = _Coefficient()

    def __init__(self, learning_rate: float, beta: float = 0.9):
        super().__init__(learning_rate)
        self.beta = beta
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"momentum beta must be in [0, 1), got {self.beta}")
        self.velocity: Optional[np.ndarray] = None

    def _step(self, x, grad):
        velocity = self.velocity if self.velocity is not None else np.zeros_like(x)
        if velocity.shape != x.shape:
            raise ValueError(f"velocity shape {velocity.shape} != x shape {x.shape}")
        v_new = self._beta * velocity + grad
        return x - self._learning_rate * v_new, v_new

    def commit(self, staged):
        self.velocity = staged

    def buffer_state(self):
        return {"velocity": self.velocity}

    def _staged_buffers(self, state):
        return _staged_vector(state, "velocity")


class AdamLike(PrimalOptimizer):
    """Bias-corrected adaptive moments, descending."""

    kind = "adam"
    beta1, beta2, eps = _Coefficient(), _Coefficient(), _Coefficient()

    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(learning_rate)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"adam betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not (0 < self.eps < np.inf):
            raise ValueError(f"adam eps must be finite and > 0, got {self.eps}")
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.t = 0

    def _step(self, x, grad):
        m = self.m if self.m is not None else np.zeros_like(x)
        v = self.v if self.v is not None else np.zeros_like(x)
        if m.shape != x.shape or v.shape != x.shape:
            raise ValueError("adam buffers do not match x shape")
        t_new = self.t + 1
        m_new = self._beta1 * m + self._1mbeta1 * grad
        v_new = self._beta2 * v + self._1mbeta2 * grad * grad
        m_hat = m_new / (1.0 - self.beta1 ** t_new)
        v_hat = v_new / (1.0 - self.beta2 ** t_new)
        x_new = x - self._learning_rate * m_hat / (np.sqrt(v_hat) + self._eps)
        return x_new, (m_new, v_new, t_new)

    def commit(self, staged):
        self.m, self.v, self.t = staged

    def buffer_state(self):
        return {"m": self.m, "v": self.v, "t": self.t}

    def _staged_buffers(self, state):
        t = state["t"]
        # bool is an int subclass; np.bool_ is not an np.integer
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 0:
            raise _BadBuffer("t", f"adam step count must be an integer >= 0, got {t!r}")
        absent = state["m"] is None
        if absent != (state["v"] is None):
            raise ValueError("adam: m and v must both be present or both absent")
        if absent != (t == 0):  # a save holds moments exactly after a committed step
            raise _BadBuffer("t", f"adam: t must be 0 exactly when m and v are absent, got {t!r}")
        # a finite gradient entry above ~1.3e154 squares to inf, and a roll
        # commits v = inf (the step there is 0); never NaN or a negative entry
        v = _staged_vector(state, "v", finite=False)
        if v is not None and not (v >= 0.0).all():
            raise _BadBuffer("v", "v entries must be >= 0 (inf allowed)")
        m = _staged_vector(state, "m")
        if v is not None and m.shape != v.shape:
            raise ValueError("adam: m and v shapes differ")
        return m, v, int(t)


# ---------------------------------------------------------------------------
# dual optimizers


class DualOptimizer(_Optimizer):
    """Ascending optimizer producing multiplier deltas, with preview/commit.

    ``step`` checks the indices and the signal (a finite float vector, one
    entry per index, or ``size`` entries without indices), then runs
    ``_step(signal, indices, size)``, the one method a subclass implements and
    the rolls call: the signal arrives checked, as float64, and it returns
    ``(delta, staged)``, delta a new float64 array of its shape (unconverted).
    """

    def step(self, signal: np.ndarray, indices, size: int) -> tuple[np.ndarray, object]:
        idx = None if indices is None else _check_indices(indices, size)
        signal = np.asarray(signal, dtype=np.float64)
        expected = (size,) if idx is None else idx.shape
        if signal.shape != expected:
            raise ValueError(f"dual signal shape {signal.shape} != {expected}")
        if not _all_finite(signal):
            raise EvaluationError("non-finite dual signal")
        return self._step(signal, idx, size)

    def _step(self, signal, indices, size):
        raise NotImplementedError


class GradientAscent(DualOptimizer):
    """delta = +lr * dual_signal; projection is applied by the multiplier."""

    kind = "gradient_ascent"

    def _step(self, signal, indices, size):
        return self._learning_rate * signal, None


class NuPI(DualOptimizer):
    """PI controller on the dual signal.

    With error e_t = dual_signal: ehat_t = nu * ehat_{t-1} + (1 - nu) * e_t
    and delta = lr * (e_t + kappa_p * (ehat_t - ehat_{t-1})). The EMA is
    initialized per entry to the first observed error, so the first step
    equals plain gradient ascent; with kappa_p = 0 every step does. Buffers
    advance only at the addressed indices: an indexed ``commit`` writes
    those entries of ``ema`` and ``seen`` in place, so ``buffer_state()``
    returns live arrays (copy them to keep them). Arrays passed to
    ``load_buffer_state`` are copied.
    """

    kind = "nupi"
    kappa_p, nu = _Coefficient(), _Coefficient()

    def __init__(self, learning_rate: float, kappa_p: float = 1.0, nu: float = 0.9):
        super().__init__(learning_rate)
        self.kappa_p, self.nu = kappa_p, nu
        if not (0.0 <= self.kappa_p < np.inf):
            raise ValueError(f"kappa_p must be finite and >= 0, got {self.kappa_p}")
        if not (0.0 <= self.nu < 1.0):
            raise ValueError(f"nu must be in [0, 1), got {self.nu}")
        self.ema: Optional[np.ndarray] = None
        self.seen: Optional[np.ndarray] = None
        self._all_seen = False  # True only while every entry of ``seen`` is True

    def _step(self, signal, indices, size):
        """The delta and the staged ``(ema, seen, indices)`` that ``commit`` takes.

        Whole buffers (``indices`` None) on the first step and on a full
        step; otherwise the new ``ema`` entries at ``indices``, read without
        copying the buffers. A full step once every entry is seen reads
        ``ema`` itself and stages the live ``seen``, which ``commit`` keeps.
        """
        e = signal
        idx = slice(None) if indices is None else indices
        if self.ema is None:
            prev = e
        else:
            if self.ema.size != size:
                raise ValueError(f"nupi buffer size {self.ema.size} != multiplier size {size}")
            full = indices is None and self._all_seen
            prev = self.ema if full else np.where(self.seen[idx], self.ema[idx], e)
        new = self._nu * prev + self._1mnu * e
        delta = self._learning_rate * (e + self._kappa_p * (new - prev))
        if self.ema is not None and indices is not None:
            return delta, (new, None, indices)
        if prev is self.ema:
            return delta, (new, self.seen, None)
        ema = np.zeros(size, dtype=np.float64)
        seen = np.zeros(size, dtype=bool)
        ema[idx] = new
        seen[idx] = True
        return delta, (ema, seen, None)

    def commit(self, staged):
        ema, seen, indices = staged
        if indices is not None:
            self.ema[indices], self.seen[indices] = ema, True
            return
        self.ema = ema
        if seen is not self.seen:
            self.seen, self._all_seen = seen, seen is not None and bool(seen.all())

    def buffer_state(self):
        return {"ema": self.ema, "seen": self.seen}

    def _staged_buffers(self, state):
        if (state["ema"] is None) != (state["seen"] is None):
            raise ValueError("nupi: ema and seen must both be present or both absent")
        ema = _staged_vector(state, "ema")
        if ema is None:
            return None, None, None
        seen = np.asarray(state["seen"])
        if seen.shape != ema.shape:
            raise ValueError("nupi: ema and seen shapes differ")
        if not ((seen == 0) | (seen == 1)).all():
            raise _BadBuffer("seen", "seen entries must be 0 or 1")
        return ema, seen.astype(bool), None


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


@dataclass(frozen=True, eq=False)
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
    per group id (full vectors, checked here); schemes use it to take
    gradients at not-yet-committed multipliers. A ``None`` entry is ignored;
    any other entry whose id is not a registered group, or names a group
    without a multiplier, raises ``ValueError``.

    At the stored multipliers the evaluation's checked blocks stay in the
    problem's slot, so treat it as read-only; a call with
    ``multiplier_values`` takes the slot's blocks and stores none.
    """
    if multiplier_values is not None:
        multiplier_values = {
            gid: _checked_values(_override_group(problem, gid), values)
            for gid, values in multiplier_values.items()
            if values is not None
        }
    blocks = _blocks_for(problem, evaluation)
    primal_lagrangian, dual_lagrangian, signals, indices, gathered = _dual_pass(
        problem, evaluation, blocks, multiplier_values
    )
    assembled = _record(AssembledLagrangian, {
        "primal_lagrangian": primal_lagrangian,
        "dual_lagrangian": dual_lagrangian,
        "gradient": _composed(problem, evaluation, blocks, gathered),
        "dual_signals": signals,
        "observed_indices": indices,
    })
    if multiplier_values is None:
        problem._slot = (evaluation, blocks)
    return assembled


def _observe(problem, evaluation: Evaluation, observer) -> AssembledLagrangian:
    """``assemble(problem, evaluation)``, handed first to ``observer`` when there is one."""
    assembled = assemble(problem, evaluation)
    if observer is not None:
        _hand_on(problem, evaluation, problem._slot[1], assembled, observer)
    return assembled


def _hand_on(problem, evaluation: Evaluation, blocks: list, assembled, observer) -> None:
    """``observer(evaluation, assembled)``, with the record in the slot only while it runs."""
    problem._slot = (evaluation, blocks, assembled)
    try:
        observer(evaluation, assembled)
    finally:
        problem._slot = (evaluation, blocks)


def _override_group(problem: ConstrainedMinimizationProblem, gid):
    """The registered group with a multiplier that a ``multiplier_values`` key names."""
    group = problem._groups.get(gid)
    if group is None:
        raise ValueError(f"multiplier_values: {gid!r} is not a registered group")
    if group.multiplier is None:
        raise ValueError(f"multiplier_values: group {gid!r} has no multiplier")
    return group


def _blocks_for(problem: ConstrainedMinimizationProblem, evaluation: Evaluation) -> list:
    """``evaluation``'s checked blocks: the slot's if it holds that object, else checked now."""
    slot = getattr(problem, "_slot", None)
    if slot is not None and slot[0] is evaluation:
        return slot[1]
    return _checked_blocks(problem, evaluation)


def _store_blocks(problem: ConstrainedMinimizationProblem, evaluation, blocks: list) -> None:
    problem._slot = (evaluation, blocks)


def _jacobian_error(gid: str) -> EvaluationError:
    return EvaluationError(f"non-finite Jacobian for group {gid!r}", group_id=gid)


def _checked_blocks(problem: ConstrainedMinimizationProblem, evaluation: Evaluation) -> list:
    """``(gid, state, group, jacobian)`` per observed group, once the oracle output checks out.

    Each group's fit, and its Jacobian's presence, finiteness and (k, dim) shape
    (none for an empty observation), as C-contiguous float64; once per evaluation.
    """
    blocks = []
    for gid, cstate in evaluation.state.observed_constraints.items():
        group = problem.group(gid)
        group._check_fit(cstate)
        jacobian = evaluation.jacobians.get(gid)
        if jacobian is None:
            raise ValueError(f"evaluation has no Jacobian for group {gid!r}")
        jacobian = np.ascontiguousarray(jacobian, dtype=np.float64)
        if not _all_finite(jacobian):
            raise _jacobian_error(gid)
        if cstate.violation.size:
            _check_rows(jacobian, cstate.violation.size, problem.dim)
        blocks.append((gid, cstate, group, jacobian))
    return blocks


def _dual_pass(problem, evaluation, blocks: list, multiplier_values=None) -> tuple:
    """The scalars and dual signals of ``_checked_blocks(problem, evaluation)``.

    Returns ``(primal_lagrangian, dual_lagrangian, dual_signals,
    observed_indices, gathered)``, ``gathered`` each block's ``(m, c)`` from
    ``_terms`` by id, which ``_composed`` and the dual previews read, and
    checks the primal Lagrangian and a dual signal c * v.
    """
    primal_lagrangian = evaluation.state.loss
    dual_lagrangian = 0.0
    signals: dict[str, np.ndarray] = {}
    indices: dict[str, Optional[np.ndarray]] = {}
    gathered = {}
    for gid, cstate, group, jacobian in blocks:
        values = None if multiplier_values is None else multiplier_values.get(gid)
        if values is None and group.multiplier is not None:
            values = group.multiplier._values  # read live: nothing in the pass writes it
        term, signal, m, c = _terms(group, cstate, values, group.penalty)
        primal_lagrangian += term
        gathered[gid] = m, c
        if m is not None:
            # a derived signal (c * v) can overflow to -inf, which the projection
            # would clamp to 0; the plain signal is the checked violation itself
            if signal is not cstate.dual_violation and not _all_finite(signal):
                raise EvaluationError(f"non-finite dual signal for group {gid!r}", group_id=gid)
            # only a Lagrangian group's signal is v itself, and its term is then <m, v>
            dual_lagrangian += float(term if signal is cstate.violation else m.dot(signal))
            signals[gid] = signal
            indices[gid] = cstate.observed_indices

    primal_lagrangian = float(primal_lagrangian)
    if not math.isfinite(primal_lagrangian):
        raise EvaluationError(f"non-finite primal Lagrangian {primal_lagrangian}")
    return primal_lagrangian, dual_lagrangian, signals, indices, gathered


def _grad_f_copy(problem, evaluation: Evaluation) -> np.ndarray:
    """A float copy of grad_f to compose on; raises the conversion's error, or if not (dim,)."""
    gradient = np.array(evaluation.grad_f, dtype=np.float64)
    if gradient.shape != (problem.dim,):
        raise ValueError(f"grad_f shape {gradient.shape} != ({problem.dim},)")
    return gradient


def _checked_gradient(evaluation: Evaluation, gradient: np.ndarray) -> np.ndarray:
    """The composed ``gradient``, checked finite; a non-finite grad_f takes the blame first."""
    # a non-finite entry of grad_f stays non-finite in the sum
    if not _all_finite(gradient):
        if not _all_finite(np.asarray(evaluation.grad_f, dtype=np.float64)):
            raise EvaluationError("non-finite objective gradient")
        raise EvaluationError("non-finite primal gradient")
    return gradient


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


def _preview_primal(optimizer, x, grad):
    x_new, staged = optimizer._step(x, grad)
    if not _all_finite(x_new):
        raise EvaluationError("primal step produced non-finite x")
    return x_new, staged


def _preview_duals(problem, optimizers, signals: dict, indices: dict, gathered=None) -> dict:
    """Previewed dual updates keyed by group id, for groups with a non-empty signal.

    Each is ``(multiplier, optimizer, indices, staged, preview)``: ``preview``
    is the whole projected vector when ``indices`` is None, else the new
    entries at ``indices``; ``roll`` commits them and the staged buffers. A
    preview adds its delta to the entries in ``gathered``, from a dual pass
    that read the stored multipliers, never overrides.
    """
    updates = {}
    for gid, signal in signals.items():
        if signal.size == 0:
            continue
        optimizer = optimizers.duals.get(gid)
        if optimizer is None:
            raise ValueError(f"no dual optimizer bound for group {gid!r}")
        multiplier = problem._groups[gid].multiplier
        stored = None if gathered is None else gathered[gid][0]
        idx = indices[gid]
        delta, staged = optimizer._step(signal, idx, multiplier.size)
        updates[gid] = multiplier, optimizer, idx, staged, multiplier._preview(delta, idx, stored)
    return updates


def _roll_simultaneous(problem, optimizers, evaluate, ev, observer):
    """Simultaneous GDA: one evaluation drives both the primal and dual step.

    The primal step descends grad of the Lagrangian at (x_t, m_t); the dual
    step ascends the signals from the same evaluation; inequality multipliers
    are projected element-wise onto the nonnegative orthant.
    """
    asm = _observe(problem, ev, observer)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, asm.gradient)
    dual_updates = _preview_duals(problem, optimizers, asm.dual_signals, asm.observed_indices)
    return x_new, staged_primal, dual_updates, asm.primal_lagrangian, asm.dual_lagrangian


def _roll_alternating_primal_dual(problem, optimizers, evaluate, ev, observer):
    """Primal step first, then the dual step on signals measured at x_{t+1}.

    Only the dual pass runs at x_{t+1}: its gradient would not be used. Its
    blocks there go into the slot, for the next roll's ``assemble``.
    """
    asm = _observe(problem, ev, observer)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, asm.gradient)
    ev_new = evaluate(x_new)
    blocks = _blocks_for(problem, ev_new)
    if problem._slot[0] is not ev_new:  # a user's evaluation, checked just now
        _store_blocks(problem, ev_new, blocks)
    _, dual_lagrangian, signals, indices, gathered = _dual_pass(problem, ev_new, blocks)
    dual_updates = _preview_duals(problem, optimizers, signals, indices, gathered)
    return x_new, staged_primal, dual_updates, asm.primal_lagrangian, dual_lagrangian


def _roll_alternating_dual_primal(problem, optimizers, evaluate, ev, observer):
    """Dual step first on x_t signals; the primal step then uses m_{t+1}.

    Both updates come from the single x_t evaluation: the dual pass at m_t,
    then the gradient composed at the previewed multiplier entries, before
    anything commits. Both read the entries and penalties the pass gathered.
    """
    blocks = _blocks_for(problem, ev)  # the oracle output is checked once for every loop
    primal_lagrangian, dual_lagrangian, signals, indices, gathered = _dual_pass(problem, ev, blocks)
    if observer is not None:  # the record at m_t, its gradient from the gathered entries
        gradient = _composed(problem, ev, blocks, gathered)
        record = AssembledLagrangian(primal_lagrangian, dual_lagrangian, gradient, signals, indices)
        _hand_on(problem, ev, blocks, record, observer)
    dual_updates = _preview_duals(problem, optimizers, signals, indices, gathered)
    gradient = _composed(problem, ev, blocks, gathered, dual_updates)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, gradient)
    return x_new, staged_primal, dual_updates, primal_lagrangian, dual_lagrangian


def _composed(problem, ev, blocks: list, gathered: dict, dual_updates=()) -> np.ndarray:
    """The checked gradient at the gathered (m, c); a group in ``dual_updates`` at its preview."""
    gradient = _grad_f_copy(problem, ev)
    for gid, cstate, group, jacobian in blocks:
        m, c = gathered[gid]
        if gid in dual_updates:
            # the preview holds the entries at this evaluation's indices, in their order
            *_, m = dual_updates[gid]
        _add_weighted_rows(gradient, m if c is None else _weights(group, cstate, m, c), jacobian)
    return _checked_gradient(ev, gradient)


def _roll_extragradient(problem, optimizers, evaluate, ev, observer):
    """Extrapolate with a stateless simultaneous preview, commit from gradients there.

    The half-point (x_hat, m_hat) comes from previews that advance no buffers;
    the committed step applies grad(x_hat, m_hat) and signals(x_hat) to the
    original (x_t, m_t), advancing stateful buffers exactly once. m_hat is
    passed as full vectors: the x_hat evaluation may observe other entries
    than the x_t one.
    """
    asm = _observe(problem, ev, observer)
    x_hat, _ = _preview_primal(optimizers.primal, problem.x, asm.gradient)
    half_updates = _preview_duals(problem, optimizers, asm.dual_signals, asm.observed_indices)
    override = {
        gid: multiplier._merged(preview, indices)
        for gid, (multiplier, _, indices, _, preview) in half_updates.items()
    }
    ev_hat = evaluate(x_hat)
    asm_hat = assemble(problem, ev_hat, multiplier_values=override)
    x_new, staged_primal = _preview_primal(optimizers.primal, problem.x, asm_hat.gradient)
    dual_updates = _preview_duals(
        problem, optimizers, asm_hat.dual_signals, asm_hat.observed_indices
    )
    return x_new, staged_primal, dual_updates, asm.primal_lagrangian, asm.dual_lagrangian


_ROLLS = {
    "simultaneous": _roll_simultaneous,
    "alt-pd": _roll_alternating_primal_dual,
    "alt-dp": _roll_alternating_dual_primal,
    "extragradient": _roll_extragradient,
}
SCHEMES = tuple(_ROLLS)


def roll(
    problem, optimizers, scheme: str = "simultaneous", evaluate=None, *, observer=None
) -> RollOut:
    """One step of the named scheme (see SCHEMES), the one public roll entry point.

    ``roll`` evaluates at x_t and commits; a scheme only previews. The scheme
    returns x_{t+1}, the staged primal buffers, the dual previews and the two
    Lagrangians; only then are x, the optimizers, the multipliers and the
    step count written. ``evaluate`` replaces
    ``problem.evaluate_with_gradients`` for every evaluation the step makes.

    ``observer(evaluation, assembled)``, if given, gets the evaluation at x_t
    and its ``assemble`` record at m_t, after the roll's opening assembly and
    before any preview; it must not write the state, and if it raises the roll
    commits nothing. ``current_kkt_residual`` reads the record's gradient then.
    """
    try:
        step = _ROLLS[scheme]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown scheme {scheme!r}; valid schemes: {', '.join(SCHEMES)}"
        ) from None
    if not problem._frozen:
        problem.freeze_registration()
    if evaluate is None:
        evaluate = problem.evaluate_with_gradients
    ev = evaluate(problem.x)
    x_new, staged_primal, dual_updates, primal_lagrangian, dual_lagrangian = step(
        problem, optimizers, evaluate, ev, observer
    )
    problem._adopt(x_new)  # a fresh point that _preview_primal has checked
    optimizers.primal.commit(staged_primal)
    for multiplier, optimizer, indices, staged, preview in dual_updates.values():
        multiplier._store(preview, indices)
        optimizer.commit(staged)
    optimizers.step += 1
    state = ev.state
    return _record(RollOut, {
        "loss": state.loss,
        "primal_lagrangian": primal_lagrangian,
        "dual_lagrangian": dual_lagrangian,
        "cmp_state": state,
    })
