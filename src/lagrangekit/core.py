"""Constrained minimization problem abstraction and evaluation-state types.

A problem is an objective f(x) minimized subject to named groups of
constraints. Inequality groups use the convention g(x) <= 0, so a positive
violation value means "infeasible"; equality groups use h(x) = 0. Each group
carries its own multiplier vector and formulation choice, which lets one
problem mix plain Lagrangian, augmented Lagrangian, and quadratic penalty
treatment across groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping, Optional

import numpy as np

__all__ = [
    "EvaluationError",
    "ConstraintType",
    "Formulation",
    "ConstraintState",
    "ConstraintGroup",
    "CMPState",
    "Evaluation",
    "ConstrainedMinimizationProblem",
]

_GROUP_NAME_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
)


class EvaluationError(RuntimeError):
    """Non-finite value produced by an evaluation or an update.

    ``group_id`` names the offending constraint group when the failure can be
    attributed to one; it is None for objective or primal-point failures.
    """

    def __init__(self, message: str, group_id: Optional[str] = None):
        super().__init__(message)
        self.group_id = group_id


def _constant(value: float) -> np.ndarray:
    """``value`` as a read-only float64 0-d array: a ufunc operand numpy need not convert."""
    arr = np.array(value, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class ConstraintType(Enum):
    """Constraint sign convention: g(x) <= 0 for INEQUALITY, h(x) = 0 for EQUALITY."""

    INEQUALITY = "inequality"
    EQUALITY = "equality"


class Formulation(Enum):
    """How a group's violations enter the primal objective and the dual signal."""

    LAGRANGIAN = "lagrangian"
    AUGMENTED_LAGRANGIAN = "augmented_lagrangian"
    QUADRATIC_PENALTY = "quadratic_penalty"


# Below this many entries a Python loop beats numpy's fixed cost: crossover at 32-48
# entries against np.isfinite, 12-16 against _all_finite's self-dot (2-vCPU Xeon).
_SMALL = 32

_NO_MISC: Mapping[str, Any] = MappingProxyType({})
_ZERO = _constant(0.0)  # the clamps' and projections' bound
_TWO = _constant(2.0)  # the factor in the factories' Jacobians of squared norms


def _all_finite(arr: np.ndarray) -> bool:
    """``np.isfinite(arr).all()`` for a float64 array, without numpy's Python helpers.

    From ``_SMALL`` entries a C-contiguous array is read once: its BLAS self-dot is finite
    only if every entry is. Another layout, or a miss (squares overflow above ~1.3e154),
    takes the exact scan. Squares of ~2e-162 to 1.5e-154 are subnormal: the dot is then
    slow (about 20x the scan at 25 600 entries), not wrong.
    """
    if arr.size < _SMALL:
        return all(map(math.isfinite, arr.ravel().tolist()))
    if arr.flags.c_contiguous and math.isfinite(np.vdot(arr, arr)):
        return True
    return bool(np.logical_and.reduce(np.isfinite(arr), axis=None))


def _max_abs(arr: np.ndarray) -> float:
    """``float(np.max(np.abs(arr)))`` for a non-empty numeric array, cheaper when small."""
    if arr.size < _SMALL:
        values = arr.ravel().tolist()
        if not math.isnan(sum(values)):  # no NaN, and no inf beside -inf
            return float(max(map(abs, values)))
    return float(np.max(np.abs(arr)))


def _record(cls, fields: dict):
    """An instance of frozen dataclass ``cls`` over ``fields``, one entry per field.

    Skips the generated ``__init__``; the record takes over ``fields``, which
    must be a fresh dict. Equality, repr and frozenness stay the dataclass's.
    """
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", fields)
    return record


def _as_size(value, what: str) -> int:
    """``value``, a Python or NumPy integer but not a bool, as an int; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_real(value, what: str) -> None:
    """Raise ValueError if ``value`` holds a bool or text (numpy's too): a coefficient is real."""
    if np.asarray(value).dtype.kind in "bUS":
        raise ValueError(f"{what} must be a real number, got {value!r}")


def _as_indices(indices, what: str) -> np.ndarray:
    """``indices`` as a 1-d int64 array; a non-empty list must hold integers."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":  # bools and floats are not indices
        raise ValueError(f"{what} must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.ndim != 1:
        raise ValueError(f"{what} must be a 1-d index list")
    return idx


def _index_scan(idx: np.ndarray) -> tuple[bool, int, int]:
    """(any duplicate, lowest, highest) of a non-empty int64 index list, from one sort."""
    ordered = idx.copy()
    ordered.sort()
    return bool(np.count_nonzero(ordered[1:] == ordered[:-1])), int(ordered[0]), int(ordered[-1])


@dataclass(frozen=True, eq=False)
class ConstraintState:
    """One measurement of a constraint group.

    Parameters
    ----------
    violation : array_like
        Raw constraint values g(x) or h(x); no clamping is applied at report
        time (dual updates need the signed value).
    strict_violation : array_like, optional
        A possibly non-differentiable measurement used only for dual updates
        (the proxy rule). Same length as ``violation``.
    observed_indices : array_like of int, optional
        Indices into the group's constraint set that this state observes.
        When present its length matches ``violation`` and all indices are
        pairwise distinct.
    """

    violation: np.ndarray
    strict_violation: Optional[np.ndarray] = None
    observed_indices: Optional[np.ndarray] = None

    def __post_init__(self):
        strict, idx = self.strict_violation, self.observed_indices
        strict = None if strict is None else np.asarray(strict, dtype=np.float64)
        idx = None if idx is None else _as_indices(idx, "observed_indices")
        self._set_fields(np.asarray(self.violation, dtype=np.float64), strict, idx)
        if idx is not None and idx.size:
            duplicates, lowest, _ = _index_scan(idx)
            if duplicates:
                raise ValueError("observed_indices contains duplicates")
            if lowest < 0:
                raise ValueError("observed_indices contains negative indices")

    @classmethod
    def _trusted(cls, violation, strict, indices) -> "ConstraintState":
        """A state over float64 arrays the library built, with distinct indices >= 0.

        Skips the conversions and the index scan, not the checks of oracle output.
        """
        state = object.__new__(cls)
        state._set_fields(violation, strict, indices)
        return state

    def _set_fields(self, violation, strict, idx) -> None:
        if violation.ndim != 1:
            raise ValueError(f"violation must be a 1-d vector, got shape {violation.shape}")
        if not _all_finite(violation):
            raise EvaluationError("non-finite constraint violation")
        if strict is not None:
            if strict.ndim != 1:
                raise ValueError(
                    f"strict_violation must be a 1-d vector, got shape {strict.shape}"
                )
            if strict.shape != violation.shape:
                raise ValueError(
                    "strict_violation length "
                    f"{strict.size} != violation length {violation.size}"
                )
            if not _all_finite(strict):
                raise EvaluationError("non-finite strict violation")
        if idx is not None and idx.size != violation.size:
            raise ValueError(
                f"observed_indices length {idx.size} != violation length {violation.size}"
            )
        object.__setattr__(self, "violation", violation)
        object.__setattr__(self, "strict_violation", strict)
        object.__setattr__(self, "observed_indices", idx)

    @property
    def dual_violation(self) -> np.ndarray:
        """The measurement that feeds dual updates: strict if present, else violation."""
        if self.strict_violation is not None:
            return self.strict_violation
        return self.violation


class ConstraintGroup:
    """A named block of scalar constraints sharing one multiplier and formulation.

    The group owns its invariants: it builds its own multiplier, and
    ``penalty`` is the one attribute that can be reassigned. An assignment
    runs the constructor's check of the penalty; assigning any other
    attribute raises AttributeError.

    Parameters
    ----------
    name : str
        Unique group id (letters, digits, ``_`` and ``-`` only; the id appears
        in checkpoint keys).
    constraint_type : ConstraintType
    size : int
        Number of scalar constraints in the group.
    formulation : Formulation
    penalty : PenaltyCoefficient or float or array_like, optional
        Required for AUGMENTED_LAGRANGIAN and QUADRATIC_PENALTY, forbidden for
        LAGRANGIAN; scalar, or one entry per constraint. Stored as a
        PenaltyCoefficient.
    indexed : bool
        Build an IndexedMultiplier (per-index update counters) instead of a
        plain Multiplier.
    initial_multiplier : array_like, optional
        Initial multiplier values overriding the zero default.

    ``multiplier`` is None for QUADRATIC_PENALTY groups, which take neither
    ``indexed`` nor ``initial_multiplier``.
    """

    def __init__(
        self,
        name: str,
        constraint_type: ConstraintType,
        size: int,
        formulation: Formulation = Formulation.LAGRANGIAN,
        penalty=None,
        indexed: bool = False,
        initial_multiplier=None,
    ):
        if not isinstance(name, str) or not name:
            raise ValueError("group name must be a non-empty string")
        if not set(name) <= _GROUP_NAME_CHARS:
            raise ValueError(
                f"group name {name!r} may only contain letters, digits, '_' and '-'"
            )
        if not isinstance(constraint_type, ConstraintType):
            raise ValueError("constraint_type must be a ConstraintType")
        if not isinstance(formulation, Formulation):
            raise ValueError("formulation must be a Formulation")
        size = _as_size(size, "group size")
        if size <= 0:
            raise ValueError(f"group size must be positive, got {size}")

        if formulation is Formulation.QUADRATIC_PENALTY and (
            initial_multiplier is not None or indexed
        ):
            raise ValueError(f"group {name!r}: quadratic penalty groups have no multiplier")
        # through __dict__: __setattr__ admits only a penalty reassignment
        self.__dict__.update(
            name=name,
            constraint_type=constraint_type,
            size=size,
            formulation=formulation,
            indexed=bool(indexed),
        )
        penalty = self._checked_penalty(penalty)
        multiplier = None
        if formulation is not Formulation.QUADRATIC_PENALTY:
            from .multipliers import IndexedMultiplier, Multiplier

            cls = IndexedMultiplier if indexed else Multiplier
            multiplier = cls(size, constraint_type, values=initial_multiplier)
        self.__dict__.update(penalty=penalty, multiplier=multiplier)

    def _checked_penalty(self, penalty):
        """``penalty`` as a PenaltyCoefficient that fits this group, or None on a Lagrangian one."""
        if self.formulation is Formulation.LAGRANGIAN:
            if penalty is not None:
                raise ValueError(f"group {self.name!r}: Lagrangian groups have no penalty")
            return None
        if penalty is None:
            raise ValueError(
                f"group {self.name!r}: {self.formulation.value} requires a penalty coefficient"
            )
        from .formulations import PenaltyCoefficient

        if not isinstance(penalty, PenaltyCoefficient):
            penalty = PenaltyCoefficient(penalty)
        penalty._full(self.size)  # vector penalties must match the group size; scalars broadcast
        return penalty

    def _check_fit(self, cstate: ConstraintState) -> None:
        """Raise unless ``cstate`` measures this group: all of it, or entries in range."""
        if cstate.observed_indices is None:
            if cstate.violation.size != self.size:
                raise ValueError(
                    f"group {self.name!r}: violation length {cstate.violation.size} "
                    f"!= group size {self.size}"
                )
        else:
            idx = cstate.observed_indices
            if idx.size and np.maximum.reduce(idx) >= self.size:
                raise ValueError(
                    f"group {self.name!r}: observed index {int(np.maximum.reduce(idx))} out of "
                    f"range for size {self.size}"
                )

    def __setattr__(self, name, value):
        if name != "penalty":
            raise AttributeError(f"group {self.name!r}: only the penalty can be reassigned")
        object.__setattr__(self, name, self._checked_penalty(value))

    def __repr__(self):
        return (
            f"ConstraintGroup(name={self.name!r}, "
            f"constraint_type={self.constraint_type.value}, size={self.size}, "
            f"formulation={self.formulation.value})"
        )


@dataclass(frozen=True)
class CMPState:
    """One evaluation of the problem: loss plus per-group constraint measurements."""

    loss: float
    observed_constraints: Mapping[str, ConstraintState] = field(default_factory=dict)
    misc: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        loss = float(self.loss)
        if not math.isfinite(loss):
            raise EvaluationError(f"non-finite loss {loss}")
        object.__setattr__(self, "loss", loss)
        constraints = dict(self.observed_constraints)
        for gid, state in constraints.items():
            if not isinstance(state, ConstraintState):
                raise ValueError(f"group {gid!r}: expected a ConstraintState")
        object.__setattr__(self, "observed_constraints", MappingProxyType(constraints))
        object.__setattr__(self, "misc", MappingProxyType(dict(self.misc)))

    @classmethod
    def _trusted(cls, loss: float, observed: dict) -> "CMPState":
        """A state over a fresh dict of ConstraintStates the library built; no misc."""
        if not math.isfinite(loss):
            raise EvaluationError(f"non-finite loss {loss}")
        state = object.__new__(cls)
        object.__setattr__(state, "loss", loss)
        object.__setattr__(state, "observed_constraints", MappingProxyType(observed))
        object.__setattr__(state, "misc", _NO_MISC)
        return state


@dataclass(frozen=True, eq=False)
class Evaluation:
    """A CMPState bundled with the gradients needed for one primal-dual step.

    ``grad_f`` is the objective gradient at the evaluated point and
    ``jacobians`` maps each observed group id to the Jacobian of its observed
    violations, one row per constraint.
    """

    state: CMPState
    grad_f: np.ndarray
    jacobians: Mapping[str, np.ndarray]


class ConstrainedMinimizationProblem:
    """Base class: registered constraint groups plus a primal point x.

    Subclasses implement one evaluation hook, ``evaluate_with_gradients``.
    Group registration is open until the first evaluation, after which the
    group set is frozen. A problem instance is single-owner: one roll at a
    time.
    """

    def __init__(self, dim: int, x0=None):
        dim = _as_size(dim, "problem dimension")
        if dim < 1:
            raise ValueError(f"problem dimension must be >= 1, got {dim}")
        self._dim = dim
        self._groups: dict[str, ConstraintGroup] = {}
        self._frozen = False
        # (state, (max inequality violation clamped at 0, max |equality violation|)) of
        # the last KKT residual (``problems._kkt_pieces``); a trace row reads it
        self._maxima = self._x = None
        self._adopt(np.zeros(dim) if x0 is None else self._check_point(x0).copy())

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def x(self) -> np.ndarray:
        """Current primal point, a read-only array; update via set_x."""
        return self._x

    def set_x(self, x) -> None:
        self._adopt(self._check_point(x).copy())

    def _adopt(self, x: np.ndarray) -> None:
        """Commit checked x that nothing else holds, read-only, so evaluations may trust it.

        Touches no cache: a problem's caches are keyed by what they were
        computed from (an evaluation, a state), never by x.
        """
        x.setflags(write=False)
        self._x = x

    def _check_point(self, x) -> np.ndarray:
        """``x`` as a checked float vector of shape (dim,), or the committed x itself."""
        if x is self._x:  # read-only and checked when committed; None only while x0 is checked
            return x
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != (self._dim,):
            raise ValueError(f"x must have shape ({self._dim},), got {arr.shape}")
        if not _all_finite(arr):
            raise EvaluationError("non-finite primal point")
        return arr

    # -- group registry -----------------------------------------------------

    def register_group(self, group: ConstraintGroup) -> str:
        """Register a constraint group, which brings its own multiplier.

        Returns the group id. Raises on duplicate ids and after registration
        has been frozen by the first evaluation.
        """
        if self._frozen:
            raise ValueError("group registration is frozen after the first evaluation")
        if not isinstance(group, ConstraintGroup):
            raise ValueError("expected a ConstraintGroup")
        if group.name in self._groups:
            raise ValueError(f"duplicate group id {group.name!r}")
        self._groups[group.name] = group
        return group.name

    def freeze_registration(self) -> None:
        self._frozen = True

    def group(self, group_id: str) -> ConstraintGroup:
        try:
            return self._groups[group_id]
        except KeyError:
            raise ValueError(f"unknown group id {group_id!r}") from None

    @property
    def groups(self) -> Mapping[str, ConstraintGroup]:
        """Read-only view of the registered groups, in registration order."""
        return MappingProxyType(self._groups)

    # -- evaluation ----------------------------------------------------------

    def evaluate_with_gradients(self, x) -> Evaluation:
        """State plus objective gradient and per-group Jacobians at x. Pure; must be overridden."""
        raise NotImplementedError

    def _checked_group(self, gid: str, cstate: ConstraintState) -> ConstraintGroup:
        """Group ``gid``, once ``cstate`` fits it; the rolls' block pass asks for each group."""
        group = self.group(gid)
        group._check_fit(cstate)
        return group
