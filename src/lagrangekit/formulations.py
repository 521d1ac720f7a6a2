"""Turn constraint measurements into primal terms and dual signals.

Each formulation produces a ContributionPair: the scalar added to the primal
Lagrangian (differentiable in x through the violation), the per-constraint
signal the dual optimizer ascends on, and the weights that multiply the
constraint Jacobian rows in the primal gradient.

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
from .multipliers import Multiplier, multiplier_values_for

__all__ = [
    "PenaltyCoefficient",
    "PenaltyScheduler",
    "ContributionPair",
    "lagrangian_contribution",
    "augmented_lagrangian_contribution",
    "quadratic_penalty_contribution",
    "group_contribution",
    "schedule_penalty",
    "assemble_lagrangian",
]


class PenaltyCoefficient:
    """Strictly positive penalty strength c, scalar or per-constraint vector.

    Immutable; scheduling returns a new coefficient. Scalars broadcast over
    the group size.
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
            if not np.isfinite(arr).all() or arr.min() <= 0.0:
                raise ValueError("penalty entries must be finite and > 0")
            self._value = arr.copy()
        else:
            raise ValueError(f"penalty must be scalar or 1-d, got shape {arr.shape}")

    @property
    def value(self) -> Union[float, np.ndarray]:
        return self._value

    @property
    def is_scalar(self) -> bool:
        return isinstance(self._value, float)

    def expand(self, size: int) -> np.ndarray:
        """Full per-constraint vector of length ``size``."""
        if self.is_scalar:
            return np.full(size, self._value, dtype=np.float64)
        if self._value.size != size:
            raise ValueError(
                f"vector penalty length {self._value.size} != group size {size}"
            )
        return self._value.copy()

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
        if not (self.growth_factor > 1.0):
            raise ValueError(f"growth_factor must be > 1, got {self.growth_factor}")
        if not (0.0 < self.required_decrease_ratio < 1.0):
            raise ValueError(
                f"required_decrease_ratio must be in (0, 1), got "
                f"{self.required_decrease_ratio}"
            )
        if not (self.max_value > 0.0):
            raise ValueError(f"max_value must be > 0, got {self.max_value}")


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
        if not np.isfinite(self.dual_signal).all():
            raise EvaluationError(
                f"non-finite dual signal for group {self.group_id!r}",
                group_id=self.group_id,
            )
        if not np.isfinite(self.primal_weights).all():
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
    if not isinstance(penalty, PenaltyCoefficient):
        penalty = PenaltyCoefficient(penalty)
    full = penalty.expand(group.size)
    if state.observed_indices is None:
        return full
    return full[state.observed_indices]


def lagrangian_contribution(
    group: ConstraintGroup, state: ConstraintState, multiplier
) -> ContributionPair:
    """Plain Lagrangian term <multiplier, violation>.

    The multiplier is treated as a constant with respect to x, so the primal
    weights are the multiplier values themselves. The dual signal is the
    strict violation when present (proxy rule), else the violation.
    """
    if multiplier is None:
        raise ValueError(f"group {group.name!r}: Lagrangian formulation needs a multiplier")
    gathered = _gathered_multiplier(group, state, multiplier)
    primal = np.dot(gathered, state.violation)
    return ContributionPair(group.name, float(primal), state.dual_violation, gathered)


def augmented_lagrangian_contribution(
    group: ConstraintGroup,
    state: ConstraintState,
    multiplier,
    penalty: PenaltyCoefficient,
) -> ContributionPair:
    """Augmented Lagrangian term (PHR form for inequalities).

    The dual signal is c * (strict violation or violation); combined with the
    standard projection this makes a unit-learning-rate dual step the
    classical multiplier update.
    """
    if multiplier is None:
        raise ValueError(
            f"group {group.name!r}: augmented Lagrangian needs a multiplier"
        )
    if penalty is None:
        raise ValueError(f"group {group.name!r}: augmented Lagrangian needs a penalty")
    m = _gathered_multiplier(group, state, multiplier)
    c = _gathered_penalty(group, state, penalty)
    v = state.violation
    if group.constraint_type is ConstraintType.INEQUALITY:
        active = np.maximum(v + m / c, 0.0)
        primal = 0.5 * np.sum(c * (active * active - (m / c) ** 2))
        weights = np.maximum(c * v + m, 0.0)
    else:
        primal = np.dot(m, v) + 0.5 * np.sum(c * v * v)
        weights = m + c * v
    signal = c * state.dual_violation
    return ContributionPair(group.name, float(primal), signal, weights)


def quadratic_penalty_contribution(
    group: ConstraintGroup, state: ConstraintState, penalty: PenaltyCoefficient
) -> ContributionPair:
    """Multiplier-free quadratic penalty term; the dual signal is empty."""
    if group.multiplier is not None:
        raise ValueError(
            f"group {group.name!r}: quadratic penalty groups have no multiplier"
        )
    if penalty is None:
        raise ValueError(f"group {group.name!r}: quadratic penalty needs a penalty")
    c = _gathered_penalty(group, state, penalty)
    v = state.violation
    if group.constraint_type is ConstraintType.INEQUALITY:
        v = np.maximum(v, 0.0)
    primal = 0.5 * np.sum(c * v * v)
    return ContributionPair(group.name, float(primal), np.empty(0), c * v)


def group_contribution(
    group: ConstraintGroup,
    state: ConstraintState,
    multiplier_values=None,
    penalty: Optional[PenaltyCoefficient] = None,
) -> ContributionPair:
    """Dispatch on the group's formulation.

    ``multiplier_values`` overrides the group's own multiplier (used by
    schemes that need the contribution at not-yet-committed dual values);
    ``penalty`` overrides the group's penalty.
    """
    penalty = penalty if penalty is not None else group.penalty
    if group.formulation is Formulation.QUADRATIC_PENALTY:
        return quadratic_penalty_contribution(group, state, penalty)
    values = multiplier_values if multiplier_values is not None else group.multiplier
    if group.formulation is Formulation.LAGRANGIAN:
        return lagrangian_contribution(group, state, values)
    return augmented_lagrangian_contribution(group, state, values, penalty)


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
