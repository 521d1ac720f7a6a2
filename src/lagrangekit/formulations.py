"""Turn constraint measurements into primal terms and dual signals.

``group_contribution``, the one per-group entry point, applies a group's
formulation and returns a checked ContributionPair: the scalar added to the
primal Lagrangian (differentiable in x through the violation), the
per-constraint signal the dual optimizer ascends on, and the weights that
multiply the constraint Jacobian rows in the primal gradient. ``_terms``
holds each term and signal formula once and returns the multiplier and penalty
entries it gathered, which ``_weights``, the one copy of each weight formula,
takes. The rolls call both unchecked, ``_weights`` only where they compose.

``_terms`` re-checks nothing it reads; each piece is checked once where it
enters: a group's multiplier and penalty by the group, a state's fit by the
roll's block pass, a caller's overrides by ``group_contribution`` and
``assemble``.

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
from .core import _ZERO, _all_finite, _check_real
from .multipliers import Multiplier

__all__ = [
    "PenaltyCoefficient",
    "ContributionPair",
    "group_contribution",
    "assemble_lagrangian",
]


class PenaltyCoefficient:
    """Strictly positive penalty strength c, scalar or per-constraint vector.

    Immutable (a vector value is stored read-only): to change a group's
    penalty, assign it a new coefficient. Scalars broadcast over the group
    size.
    """

    def __init__(self, value: Union[float, np.ndarray]):
        _check_real(value, "penalty")
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


@dataclass(frozen=True, eq=False)
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
        for name in ("primal_term", "dual_signal", "primal_weights"):
            if not _all_finite(np.asarray(getattr(self, name))):
                gid = self.group_id
                raise EvaluationError(f"non-finite {name.replace('_', ' ')} for group {gid!r}", gid)


def _gathered(full: np.ndarray, state: ConstraintState) -> np.ndarray:
    """The entries of a group-length vector that ``state`` observes, in its order.

    ``full`` itself when the state observes the whole group.
    """
    idx = state.observed_indices
    return full if idx is None else full[idx]


def _checked_values(group: ConstraintGroup, values) -> np.ndarray:
    """Multiplier values a caller passes in for ``group`` (an array or a Multiplier), checked."""
    if isinstance(values, Multiplier):
        values = values.values
    _check_real(values, f"group {group.name!r}: multiplier values")
    full = np.asarray(values, dtype=np.float64)
    if full.shape != (group.size,):
        raise ValueError(
            f"group {group.name!r}: multiplier values shape {full.shape} != ({group.size},)"
        )
    return full


def _terms(group: ConstraintGroup, state: ConstraintState, values, penalty):
    """Unchecked (primal term, dual signal, gathered multiplier, gathered penalty).

    The one copy of each term and signal formula, over what the group and
    the callers have checked: ``state`` fits the group, ``values`` is a float
    vector of the group's size and ``penalty`` a coefficient that fits it.
    Quadratic penalty gathers no multiplier, the Lagrangian no penalty (None
    in their place); ``_weights`` takes both. ``assemble`` checks what these
    derive once per step; ``group_contribution`` through ``ContributionPair``.
    """
    v = state.violation
    formulation = group.formulation
    if formulation is Formulation.LAGRANGIAN:
        m = _gathered(values, state)
        return m.dot(v), state.dual_violation, m, None
    c = _gathered(penalty._full(group.size), state)
    if formulation is Formulation.QUADRATIC_PENALTY:
        if group.constraint_type is ConstraintType.INEQUALITY:
            v = np.maximum(v, _ZERO)
        return 0.5 * np.add.reduce(c * v * v), np.empty(0), None, c
    m = _gathered(values, state)
    if group.constraint_type is ConstraintType.INEQUALITY:
        ratio = m / c
        active = np.maximum(v + ratio, _ZERO)
        primal = 0.5 * np.add.reduce(c * (active * active - ratio * ratio))
    else:
        primal = m.dot(v) + 0.5 * np.add.reduce(c * v * v)
    return primal, c * state.dual_violation, m, c


def _weights(group: ConstraintGroup, state: ConstraintState, m, c) -> np.ndarray:
    """The primal weights at the gathered multiplier ``m`` and penalty ``c``.

    The rolls take a Lagrangian group's ``m`` itself, without this call.
    """
    v = state.violation
    if group.formulation is Formulation.LAGRANGIAN:
        return m
    if group.constraint_type is ConstraintType.INEQUALITY:
        return c * np.maximum(v, _ZERO) if m is None else np.maximum(c * v + m, _ZERO)
    return c * v if m is None else m + c * v


def group_contribution(
    group: ConstraintGroup,
    state: ConstraintState,
    multiplier_values=None,
    penalty: Optional[PenaltyCoefficient] = None,
) -> ContributionPair:
    """The group's checked contribution under its own formulation.

    ``multiplier_values`` (an array of the group's size, or a Multiplier)
    overrides the group's own multiplier, e.g. to take the contribution at
    not-yet-committed dual values; ``penalty`` overrides the group's penalty
    (a Lagrangian group ignores it). Both, and the fit of ``state`` to the
    group, are checked here; a bad one raises ValueError.
    """
    group._check_fit(state)
    if penalty is None or group.formulation is Formulation.LAGRANGIAN:
        penalty = group.penalty
    else:
        penalty = group._checked_penalty(penalty)
    values = None
    if group.multiplier is not None:
        if multiplier_values is None:
            multiplier_values = group.multiplier
        # a copy: the pair's weights never share a caller's or the multiplier's array
        values = _checked_values(group, multiplier_values).copy()
    primal, signal, m, c = _terms(group, state, values, penalty)
    return ContributionPair(group.name, float(primal), signal, _weights(group, state, m, c))


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
