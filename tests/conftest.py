"""Shared fixtures: the import path for subprocess tests, and a one-time warm-up
so timed tests measure steady state."""

import os
from pathlib import Path

import numpy as np
import pytest

import lagrangekit as lk


def _spin(problem, primal, dual_factory, scheme, steps=2):
    optimizers = lk.PrimalDualOptimizers(
        primal=primal, duals=lk.make_dual_optimizers(problem, dual_factory)
    )
    for _ in range(steps):
        lk.roll(problem, optimizers, scheme)


@pytest.fixture(scope="session", autouse=True)
def subprocess_imports_this_package():
    """Let `python -m lagrangekit` subprocesses import the package under test.

    Needed when the suite runs from a checkout that is not installed.
    """
    paths = [str(Path(lk.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run every scheme, formulation and optimizer once before any timed assertions."""
    a = np.array([3.0, 4.0])
    for formulation in ("lagrangian", "augmented_lagrangian", "quadratic_penalty"):
        _spin(
            lk.problem_projection_ball(a, formulation=formulation),
            lk.GradientDescent(0.05),
            lambda: lk.GradientAscent(0.05),
            "simultaneous",
        )
    _spin(
        lk.problem_projection_ball(a),
        lk.Momentum(0.05),
        lambda: lk.NuPI(0.05),
        "extragradient",
    )
    _spin(
        lk.problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]),
            formulation="augmented_lagrangian",
        ),
        lk.GradientDescent(0.1),
        lambda: lk.GradientAscent(1.0),
        "alt-pd",
    )
    _spin(
        lk.problem_norm_constrained_logreg(0, 1.0),
        lk.AdamLike(1e-3),
        lambda: lk.GradientAscent(1e-2),
        "alt-dp",
    )
