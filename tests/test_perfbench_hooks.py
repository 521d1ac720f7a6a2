"""The names ``perfbench/tracing.py`` wraps still exist and are still looked up.

The benchmark's per-layer split wraps module attributes of ``optim`` and
``cli`` and methods of the problem, multipliers and optimizers a workload
builds. A renamed or removed hook makes ``patch_modules`` or the
instrumentation fail here, not only in a ``--trace 1`` benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lagrangekit as lk
from lagrangekit import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _indexed_problem():
    problem = lk.ConstrainedMinimizationProblem(2)
    problem.register_group(lk.ConstraintGroup(
        name="g", constraint_type=lk.ConstraintType.INEQUALITY, size=3, indexed=True
    ))
    cstate = lk.ConstraintState(violation=[0.5, -0.5], observed_indices=[2, 0])
    state = lk.CMPState(loss=0.0, observed_constraints={"g": cstate})
    ev = lk.Evaluation(state=state, grad_f=np.ones(2), jacobians={"g": np.eye(2)})
    return problem, lambda x: ev


@pytest.mark.parametrize("scheme", lk.SCHEMES)
def test_patch_instrument_and_restore(tracing, scheme):
    spans = tracing.Spans()
    saved = spans.patch_modules()
    try:
        problem, evaluate = _indexed_problem()
        optimizers = lk.PrimalDualOptimizers(
            primal=lk.Momentum(0.1), duals=lk.make_dual_optimizers(problem, lambda: lk.NuPI(0.1))
        )
        spans.instrument_problem(problem)
        spans.instrument_optimizers(optimizers)
        for _ in range(2):
            lk.roll(problem, optimizers, scheme, evaluate=evaluate)
        problem.group("g").multiplier.preview_delta(np.ones(1), indices=[1])
        optimizers.primal.step(problem.x, np.ones(2))
        optimizers.duals["g"].step(np.ones(1), [1], 3)
    finally:
        tracing.restore(saved)
    spans.fold()
    assert optimizers.step == 2
    assert {"optim.primal_update", "optim.dual_update", "multipliers.update"} <= set(spans.calls)
    if scheme in ("simultaneous", "extragradient"):
        assert spans.calls["optim.assemble"] == 2 * (1 + (scheme == "extragradient"))
    assert all(getattr(module, attr) is original for module, attr, original in saved)


def test_cli_hooks_record_a_traced_run(tracing, tmp_path, capsys):
    spans = tracing.Spans()
    saved = spans.patch_modules()
    try:
        code = cli.main([
            "run", "--problem", "norm_logreg", "--scheme", "alt-pd", "--steps", "3",
            "--dual-optimizer", "nupi", "--trace", str(tmp_path / "trace.csv"),
            "--checkpoint-out", str(tmp_path / "state.ckpt"), "--checkpoint-every", "2",
        ])
    finally:
        tracing.restore(saved)
    capsys.readouterr()
    spans.fold()
    assert code == 0
    assert {"optim.roll", "optim.assemble", "problems.kkt", "problems.evaluate",
            "optim.primal_update", "optim.dual_update", "checkpoint.save"} <= set(spans.calls)
    assert all(getattr(module, attr) is original for module, attr, original in saved)
