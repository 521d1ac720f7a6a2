"""Turn constraint measurements into primal terms and dual signals.

``group_contribution``, the one per-group entry point, applies a group's
formulation and returns a checked ContributionPair: the scalar added to the
primal Lagrangian (differentiable in x through the violation), the
per-constraint signal the dual optimizer ascends on, and the weights that
multiply the constraint Jacobian rows in the primal gradient. ``_terms``
holds each formula once; the rolls call it unchecked through ``assemble``.

Formulas per group, with violation v, multiplier m, penalty c > 0:

- Lagrangian: primal term <m, v>; weights m; dual signal v (or the strict
  violation when present, the proxy rule).
- Augmented Lagrangian, inequality (Powell-Hestenes-Rockafellar):
  primal term sum_i (c_i/2) * (max(0, v_i + m_i/c_i)^2 - (m_i/c_i)^2);
  weights max(0, c_i v_i + m_i); dual signal c * v, so a unit dual learning
  rate recovers the classical multiplier update m <- [m + c v]_+ while the
  dual learning rate remains a free extra factor.
- Augmented Lagrangian, equality: primal term <m, v> + sum_j (c_j/2) v_j^2;
  weights m + c v; dual signal c * v.
- Quadratic penalty: primal term sum (c/2) max(0, v)^2 (inequality) or
  sum (c/2) v^2 (equality); weights c*max(0, v) or c*v; no dual variables.

At a kink (the argument of max(0, .) exactly zero) the weight takes the
max(0, .) value, i.e. the subgradient-0 side, a deterministic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import ConstraintGroup, ConstraintState, ConstraintType, EvaluationError, Formulation
from .core import _all_finite
from .multipliers import Multiplier, multiplier_values_for

__all__ = [
    "PenaltyCoefficient",
    "PenaltyScheduler",
    "ContributionPair",
    "group_contribution",
    "schedule_penalty",
    "assemble_lagrangian",
]


class PenaltyCoefficient:
    """Strictly positive penalty strength c, scalar or per-constraint vector.

    Immutable (a vector value is stored read-only); scheduling returns a new
    coefficient. Scalars broadcast over the group size.
    """

    def __init__(self, value: Union[float, np.ndarray]):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            if not np.isfinite(arr) or arr <= 0.0:
                raise ValueError(f"penalty must be finite and > 0, got {float(arr)}")
            self._value: Union[float, np.ndarray] = float(arr)
        elif arr.ndim == 1:
            if arr.size == 0:
                raise ValueError("vector penalty must be non-empty")
            if not _all_finite(arr) or arr.min() <= 0.0:
                raise ValueError("penalty entries must be finite and > 0")
            self._value = arr.copy()
            self._value.flags.writeable = False
        else:
            raise ValueError(f"penalty must be scalar or 1-d, got shape {arr.shape}")
        self._full_cache: dict = {}

    @property
    def value(self) -> Union[float, np.ndarray]:
        return self._value

    @property
    def is_scalar(self) -> bool:
        return isinstance(self._value, float)

    def expand(self, size: int) -> np.ndarray:
        """Full per-constraint vector of length ``size`` (a fresh copy)."""
        return self._full(size).copy()

    def _full(self, size: int) -> np.ndarray:
        """The read-only full vector of length ``size``, built once per size."""
        if size not in self._full_cache:
            full = np.full(size, self._value) if self.is_scalar else self._value
            if full.size != size:
                raise ValueError(f"vector penalty length {full.size} != group size {size}")
            full.flags.writeable = False
            self._full_cache[size] = full
        return self._full_cache[size]

    def __repr__(self):
        return f"PenaltyCoefficient({self._value!r})"


@dataclass(frozen=True)
class PenaltyScheduler:
    """Grow the penalty when the violation norm fails to shrink enough.

    The coefficient is multiplied by ``growth_factor`` whenever the current
    violation norm exceeds ``required_decrease_ratio`` times the previous one,
    capped at ``max_value``. Never decreases the coefficient.
    """

    growth_factor: float = 10.0
    required_decrease_ratio: float = 0.25
    max_value: float = 1e8

    def __post_init__(self):
        if not (1.0 < self.growth_factor < np.inf):
            raise ValueError(f"growth_factor must be finite and > 1, got {self.growth_factor}")
        if not (0.0 < self.required_decrease_ratio < 1.0):
            raise ValueError(
                f"required_decrease_ratio must be in (0, 1), got "
                f"{self.required_decrease_ratio}"
            )
        if not (0.0 < self.max_value < np.inf):
            raise ValueError(f"max_value must be finite and > 0, got {self.max_value}")


@dataclass(frozen=True)
class ContributionPair:
    """One group's contribution to the primal Lagrangian and the dual signal.

    ``primal_weights`` holds d(primal_term)/d(violation), the coefficients of
    the constraint Jacobian rows in the primal gradient.
    """

    group_id: str
    primal_term: float
    dual_signal: np.ndarray
    primal_weights: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.primal_term):
            raise EvaluationError(
                f"non-finite primal term for group {self.group_id!r}",
                group_id=self.group_id,
            )
        if not _all_finite(np.asarray(self.dual_signal)):
            raise EvaluationError(
                f"non-finite dual signal for group {self.group_id!r}",
                group_id=self.group_id,
            )
        if not _all_finite(np.asarray(self.primal_weights)):
            raise EvaluationError(
                f"non-finite primal weights for group {self.group_id!r}",
                group_id=self.group_id,
            )


def _gathered_multiplier(
    group: ConstraintGroup, state: ConstraintState, values
) -> np.ndarray:
    if isinstance(values, Multiplier):
        gathered = multiplier_values_for(state, values)
    else:
        full = np.asarray(values, dtype=np.float64)
        if full.shape != (group.size,):
            raise ValueError(
                f"group {group.name!r}: multiplier values shape {full.shape} "
                f"!= ({group.size},)"
            )
        if state.observed_indices is None:
            gathered = full.copy()
        else:
            gathered = full[state.observed_indices]
    if gathered.size != state.violation.size:
        raise ValueError(
            f"group {group.name!r}: multiplier size {gathered.size} != "
            f"violation length {state.violation.size}"
        )
    return gathered


def _gathered_penalty(
    group: ConstraintGroup, state: ConstraintState, penalty: PenaltyCoefficient
) -> np.ndarray:
    if penalty is None:
        raise ValueError(f"group {group.name!r}: this formulation needs a penalty")
    if not isinstance(penalty, PenaltyCoefficient):
        penalty = PenaltyCoefficient(penalty)
    full = penalty._full(group.size)
    if state.observed_indices is None:
        return full
    return full[state.observed_indices]


def _terms(group: ConstraintGroup, state: ConstraintState, values, penalty):
    """Unchecked (primal term, dual signal, primal weights, gathered multiplier).

    The one copy of each formula, under the group's formulation. The
    gathered multiplier is None for quadratic penalty. ``assemble`` checks
    what these derive once per step; ``group_contribution`` checks it
    through ``ContributionPair``.
    """
    v = state.violation
    formulation = group.formulation
    if formulation is Formulation.QUADRATIC_PENALTY:
        if group.multiplier is not None:
            raise ValueError(
                f"group {group.name!r}: quadratic penalty groups have no multiplier"
            )
        c = _gathered_penalty(group, state, penalty)
        if group.constraint_type is ConstraintType.INEQUALITY:
            v = np.maximum(v, 0.0)
        return 0.5 * np.sum(c * v * v), np.empty(0), c * v, None
    if values is None:
        raise ValueError(f"group {group.name!r}: {formulation.value} needs a multiplier")
    m = _gathered_multiplier(group, state, values)
    if formulation is Formulation.LAGRANGIAN:
        return np.dot(m, v), state.dual_violation, m, m
    c = _gathered_penalty(group, state, penalty)
    if group.constraint_type is ConstraintType.INEQUALITY:
        ratio = m / c
        active = np.maximum(v + ratio, 0.0)
        primal = 0.5 * np.sum(c * (active * active - ratio * ratio))
    else:
        primal = np.dot(m, v) + 0.5 * np.sum(c * v * v)
    return primal, c * state.dual_violation, _weights(group, state, m, c), m


def _weights(group: ConstraintGroup, state: ConstraintState, m: np.ndarray, c=None) -> np.ndarray:
    """The primal weights of a multiplier group at the gathered multiplier ``m``.

    ``c`` is the gathered penalty, the group's own when omitted; the rolls
    call this alone for a gradient at other multipliers than the terms.
    """
    if group.formulation is Formulation.LAGRANGIAN:
        return m
    if c is None:
        c = _gathered_penalty(group, state, group.penalty)
    if group.constraint_type is ConstraintType.INEQUALITY:
        return np.maximum(c * state.violation + m, 0.0)
    return m + c * state.violation


def group_contribution(
    group: ConstraintGroup,
    state: ConstraintState,
    multiplier_values=None,
    penalty: Optional[PenaltyCoefficient] = None,
) -> ContributionPair:
    """The group's checked contribution under its own formulation.

    ``multiplier_values`` (an array of the group's size, or a Multiplier)
    overrides the group's own multiplier, e.g. to take the contribution at
    not-yet-committed dual values; ``penalty`` overrides the group's penalty.
    A missing multiplier or penalty raises ValueError.
    """
    penalty = penalty if penalty is not None else group.penalty
    values = multiplier_values if multiplier_values is not None else group.multiplier
    primal, signal, weights, _ = _terms(group, state, values, penalty)
    return ContributionPair(group.name, float(primal), signal, weights)


def schedule_penalty(
    penalty: PenaltyCoefficient,
    scheduler: PenaltyScheduler,
    violation_norm_now: float,
    violation_norm_prev: float,
) -> PenaltyCoefficient:
    """Apply the growth policy; returns the (possibly unchanged) coefficient."""
    now = float(violation_norm_now)
    prev = float(violation_norm_prev)
    if now < 0 or prev < 0:
        raise ValueError("violation norms must be >= 0")
    if not (now > scheduler.required_decrease_ratio * prev):
        return penalty
    value = penalty.value
    grown = np.minimum(scheduler.growth_factor * np.asarray(value), scheduler.max_value)
    grown = np.maximum(grown, value)  # the cap never shrinks an existing coefficient
    if penalty.is_scalar:
        return PenaltyCoefficient(float(grown))
    return PenaltyCoefficient(grown)


def assemble_lagrangian(loss: float, contributions) -> tuple[float, dict[str, np.ndarray]]:
    """Sum the primal terms onto the loss and collect per-group dual signals.

    Returns ``(primal_lagrangian, dual_signals)`` with signals keyed by group
    id, in the order the contributions were given.
    """
    loss = float(loss)
    if not np.isfinite(loss):
        raise EvaluationError(f"non-finite loss {loss}")
    primal = loss
    signals: dict[str, np.ndarray] = {}
    for pair in contributions:
        if pair.group_id in signals:
            raise ValueError(f"duplicate contribution for group {pair.group_id!r}")
        primal += pair.primal_term
        signals[pair.group_id] = pair.dual_signal
    if not np.isfinite(primal):
        raise EvaluationError(f"non-finite primal Lagrangian {primal}")
    return primal, signals
