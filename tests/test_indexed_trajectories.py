"""Bitwise trajectories of indexed multiplier groups under every scheme.

``golden_traces.json`` covers only dense groups. Here a problem with two
indexed groups (one inequality, one equality) observes a window of rows that
moves with the bits of x, so successive evaluations, the x_hat evaluation of
extragradient and the x_{t+1} evaluation of alt-pd included, observe
different and overlapping index sets, in unsorted order. Each case pins the
sha256 of the final x, multiplier values, update counts, primal and dual
optimizer buffers (NuPI ``ema``/``seen``) and the step count.

The property test checks bit-exact resume: k steps, a checkpoint, a load into
fresh objects and n - k more steps equal n uninterrupted steps.
"""

import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagrangekit as lk
from lagrangekit import checkpoint
from numeric_environment import mismatch_note

DIM = 5
STEPS = 25
# group id -> (constraint type, size, observed rows per evaluation, seed)
GROUPS = {
    "ineq": (lk.ConstraintType.INEQUALITY, 9, 4, 11),
    "eq": (lk.ConstraintType.EQUALITY, 7, 3, 12),
}
FORMULATIONS = {
    "lagrangian": lk.Formulation.LAGRANGIAN,
    "augmented_lagrangian": lk.Formulation.AUGMENTED_LAGRANGIAN,
}
DUALS = {
    "gradient_ascent": lambda: lk.GradientAscent(0.1),
    "nupi": lambda: lk.NuPI(0.1, kappa_p=0.5, nu=0.8),
}


class WindowProblem(lk.ConstrainedMinimizationProblem):
    """min 0.5 ||x - target||^2 s.t. A_g x - b_g <= 0 (ineq) and = 0 (eq), row-sampled.

    Each evaluation observes ``width`` consecutive rows (mod the group size)
    of each group, starting at a row picked from the bits of x: the oracle is
    a pure function of x, so a checkpoint of the library state is enough to
    resume it.
    """

    def __init__(self, formulation: lk.Formulation):
        super().__init__(DIM)
        self.rows = {}
        for gid, (ctype, size, width, seed) in GROUPS.items():
            penalty = None
            if formulation is lk.Formulation.AUGMENTED_LAGRANGIAN:
                # one vector penalty, one scalar: both gather paths
                inequality = ctype is lk.ConstraintType.INEQUALITY
                penalty = 1.0 + np.arange(size) / size if inequality else 2.0
            self.register_group(lk.ConstraintGroup(
                name=gid, constraint_type=ctype, size=size, formulation=formulation,
                penalty=penalty, indexed=True,
            ))
            A = lk.normal_stream(seed, size * DIM).reshape(size, DIM)
            b = 0.1 * np.abs(lk.normal_stream(seed + 100, size))
            self.rows[gid] = (A, b, width)
        self.target = 2.0 * lk.normal_stream(7, DIM)
        self.freeze_registration()
        self.set_x(self.target.copy())

    def evaluate_with_gradients(self, x):
        x = np.asarray(x, dtype=np.float64)
        bits = int(np.bitwise_xor.reduce(x.view(np.uint64)) >> np.uint64(11))
        observed, jacobians = {}, {}
        for gid, (A, b, width) in self.rows.items():
            size = b.size
            idx = (bits % size + np.arange(width)) % size
            observed[gid] = lk.ConstraintState(violation=A[idx] @ x - b[idx], observed_indices=idx)
            jacobians[gid] = A[idx]
        diff = x - self.target
        state = lk.CMPState(loss=float(0.5 * diff @ diff), observed_constraints=observed)
        return lk.Evaluation(state=state, grad_f=diff, jacobians=jacobians)


def build(formulation: str, dual: str):
    problem = WindowProblem(FORMULATIONS[formulation])
    optimizers = lk.PrimalDualOptimizers(
        primal=lk.Momentum(0.05, beta=0.5),
        duals=lk.make_dual_optimizers(problem, DUALS[dual]),
    )
    return problem, optimizers


def _feed(h, label: str, value) -> None:
    h.update(label.encode() + b"=")
    if value is None:
        h.update(b"absent;")
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str}{arr.shape};".encode() + arr.tobytes())


def state_digest(problem, optimizers) -> str:
    """sha256 of the step count, x, multiplier values, update counts and all buffers."""
    h = hashlib.sha256()
    h.update(f"step={optimizers.step};".encode())
    _feed(h, "x", problem.x)
    for gid, group in problem.groups.items():
        _feed(h, f"{gid}.values", group.multiplier.values)
        _feed(h, f"{gid}.update_count", group.multiplier.update_count)
    for name, value in sorted(optimizers.primal.buffer_state().items()):
        _feed(h, f"primal.{name}", value)
    for gid, dual in optimizers.duals.items():
        for name, value in sorted(dual.buffer_state().items()):
            _feed(h, f"dual.{gid}.{name}", value)
    return h.hexdigest()


def run(problem, optimizers, scheme: str, steps: int) -> None:
    for _ in range(steps):
        lk.roll(problem, optimizers, scheme)


# recorded from the code before the two-pass assembly and in-place indexed commits
PINS = {
    ('simultaneous', 'gradient_ascent', 'lagrangian'):
        "ea33f613100e47826cfea10eafd2d9f81b6f49ca86c78b4e227eaf9d05224bfc",
    ('simultaneous', 'gradient_ascent', 'augmented_lagrangian'):
        "30544e3877bd6efcabdd8e1af14608b39127bdce709c85a5c564d639ddb4844f",
    ('simultaneous', 'nupi', 'lagrangian'):
        "f5844b399e45534894b0ad48070321dbe3308b4a3044b84a5112a3451940967a",
    ('simultaneous', 'nupi', 'augmented_lagrangian'):
        "63d4e799b0301b58bc9b45263e3e85874cd06657fb6648861bbfb4b39ede56d9",
    ('alt-pd', 'gradient_ascent', 'lagrangian'):
        "99fa6555faa45a24324cd90022cd79de8864fce2f159be08485f63b1b8361a1a",
    ('alt-pd', 'gradient_ascent', 'augmented_lagrangian'):
        "be2693d49510262a4cccab833bf2a0dc5ef5f344228d531de26a17900954dddc",
    ('alt-pd', 'nupi', 'lagrangian'):
        "b3dba11b608a590f7071225c6073211905df8e7ad309711f33cb3e43f8db717f",
    ('alt-pd', 'nupi', 'augmented_lagrangian'):
        "978da266c66d5e220e313364c53402067db15911bd724bea9f6b2268d0098396",
    ('alt-dp', 'gradient_ascent', 'lagrangian'):
        "c1fae6c38cff0c5288835b943fb9e0a68ca38ca5bd4e8b835eb7953acd2cca97",
    ('alt-dp', 'gradient_ascent', 'augmented_lagrangian'):
        "34576c1626dc7979f7ace28212ae34b8c86898697005d85078c0f1f953e6b9d6",
    ('alt-dp', 'nupi', 'lagrangian'):
        "111877bc88c8589ad13fad6abe7659c1d3824afc399199024d856858a31300e0",
    ('alt-dp', 'nupi', 'augmented_lagrangian'):
        "e8095e5ee213e85ea4b923a6a0b325d078be261f453a07f1652ff50f3ec5e4f2",
    ('extragradient', 'gradient_ascent', 'lagrangian'):
        "1298a5841eb959f68a24fd02d3861f1c47c5c78417a890b5422eec81b570531d",
    ('extragradient', 'gradient_ascent', 'augmented_lagrangian'):
        "09799e7d5bce3873d42b725a2553c02ab42093d7c74656bc8d5744fe45373997",
    ('extragradient', 'nupi', 'lagrangian'):
        "212f41d8baa4c71c2fb87c86923e51686697e21594199e2b52f9a9e95ee9008f",
    ('extragradient', 'nupi', 'augmented_lagrangian'):
        "18cc5ceb1bede48f529b170481b691f28c5a8c35e69e040b7732828a9b5e44c4",
}

CASES = [
    (scheme, dual, formulation)
    for scheme in lk.SCHEMES
    for dual in DUALS
    for formulation in FORMULATIONS
]


@pytest.mark.parametrize("scheme,dual,formulation", CASES)
def test_indexed_trajectory_is_pinned(scheme, dual, formulation):
    problem, optimizers = build(formulation, dual)
    run(problem, optimizers, scheme, STEPS)
    assert optimizers.step == STEPS
    for gid, group in problem.groups.items():
        # every row was observed at some step, and some row more than once
        assert group.multiplier.update_count.min() >= 1, gid
        assert group.multiplier.update_count.max() > 1, gid
    assert state_digest(problem, optimizers) == PINS[(scheme, dual, formulation)], mismatch_note()


@pytest.mark.parametrize("dual", sorted(DUALS))
@pytest.mark.parametrize("scheme", lk.SCHEMES)
@settings(derandomize=True, max_examples=6, database=None, deadline=None)
@given(formulation=st.sampled_from(sorted(FORMULATIONS)), n=st.integers(1, 8), data=st.data())
def test_indexed_resume_is_bit_exact(scheme, dual, formulation, n, data):
    """Property (iii) on indexed groups: k steps, save, load fresh, n - k steps == n steps."""
    k = data.draw(st.integers(0, n), label="k")
    straight = build(formulation, dual)
    run(*straight, scheme, n)

    first = build(formulation, dual)
    run(*first, scheme, k)
    resumed = build(formulation, dual)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.ckpt")
        checkpoint.save(*first, path)
        assert checkpoint.load(path, *resumed) == k
    run(*resumed, scheme, n - k)
    assert state_digest(*resumed) == state_digest(*straight)
