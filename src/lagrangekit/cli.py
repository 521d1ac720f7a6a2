"""Command-line runner: configure a problem, roll it, and emit traces.

Subcommands: ``run`` (optimize and write a CSV trace), ``check-grad``
(finite-difference verification of the problem oracles), ``list`` (names of
available problems, schemes, formulations, and optimizers).

Exit codes: 0 success, 1 configuration error (unknown names, bad flags,
unreadable files), 2 numerical failure (non-finite state mid-run).

Flags override values from an optional JSON config file (same field names as
RunConfig); flags win on conflict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import checkpoint as ckpt
from .core import EvaluationError, Formulation
from .optim import (
    SCHEMES,
    AdamLike,
    GradientAscent,
    GradientDescent,
    Momentum,
    NuPI,
    PrimalDualOptimizers,
    assemble,
    make_dual_optimizers,
    roll,
)
from .problems import (
    PROBLEM_NAMES,
    current_kkt_residual,
    problem_bilinear_game,
    problem_equality_qp,
    problem_norm_constrained_logreg,
    problem_projection_ball,
)

__all__ = ["RunConfig", "cmd_run", "cmd_check_grad", "cmd_list", "main", "entry"]

TRACE_HEADER = (
    "step,loss,primal_lagrangian,dual_lagrangian,max_ineq_violation,"
    "max_eq_violation,multiplier_linf,kkt_stationarity,kkt_complementarity"
)

FORMULATIONS = tuple(f.value for f in Formulation)
PRIMAL_OPTIMIZERS = ("gd", "momentum", "adam")
DUAL_OPTIMIZERS = ("gradient_ascent", "nupi")


@dataclass
class RunConfig:
    """Fully resolved run settings; defaults < config file < explicit flags."""

    problem: str = "projection_ball"
    a: str = "3,4"
    threshold: float = 1.0
    scheme: str = "simultaneous"
    formulation: str = "lagrangian"
    penalty: Optional[float] = None
    primal_optimizer: str = "gd"
    lr_primal: float = 0.01
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    dual_optimizer: str = "gradient_ascent"
    lr_dual: float = 0.01
    kappa_p: float = 1.0
    nu: float = 0.9
    steps: int = 100
    seed: int = 0
    trace: Optional[str] = None
    checkpoint_in: Optional[str] = None
    checkpoint_out: Optional[str] = None
    checkpoint_every: Optional[int] = None
    reuse_primal_eval: bool = False


class _ConfigError(ValueError):
    pass


def _parse_vector(text) -> np.ndarray:
    if isinstance(text, (list, tuple)):
        return np.asarray([float(v) for v in text], dtype=np.float64)
    try:
        parts = [tok for tok in str(text).replace(",", " ").split() if tok]
        return np.asarray([float(tok) for tok in parts], dtype=np.float64)
    except ValueError:
        raise _ConfigError(f"cannot parse vector from {text!r}") from None


def _build_problem(config: RunConfig, formulation=None):
    name = config.problem
    if name not in PROBLEM_NAMES:
        raise _ConfigError(
            f"unknown problem {name!r}; valid problems: {', '.join(PROBLEM_NAMES)}"
        )
    if formulation is None:
        if config.formulation not in FORMULATIONS:
            raise _ConfigError(
                f"unknown formulation {config.formulation!r}; "
                f"valid formulations: {', '.join(FORMULATIONS)}"
            )
        formulation = config.formulation
    kwargs = {"formulation": formulation, "penalty": config.penalty}
    if formulation == "lagrangian":
        kwargs["penalty"] = None
    if name == "projection_ball":
        a = _parse_vector(config.a)
        if a.size < 1:
            raise _ConfigError("--a must contain at least one coordinate")
        return problem_projection_ball(a, **kwargs)
    if name == "equality_qp":
        # canonical instance: min 0.5 ||x||^2 subject to x1 + x2 = 2
        return problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]), **kwargs
        )
    if name == "norm_logreg":
        return problem_norm_constrained_logreg(
            config.seed, config.threshold, **kwargs
        )
    return problem_bilinear_game(**kwargs)


def _build_optimizers(config: RunConfig, problem) -> PrimalDualOptimizers:
    kind = config.primal_optimizer
    if kind not in PRIMAL_OPTIMIZERS:
        raise _ConfigError(
            f"unknown primal optimizer {kind!r}; "
            f"valid primal optimizers: {', '.join(PRIMAL_OPTIMIZERS)}"
        )
    if kind == "gd":
        primal = GradientDescent(config.lr_primal)
    elif kind == "momentum":
        primal = Momentum(config.lr_primal, beta=config.momentum)
    else:
        primal = AdamLike(
            config.lr_primal, beta1=config.beta1, beta2=config.beta2, eps=config.eps
        )
    dual_kind = config.dual_optimizer
    if dual_kind not in DUAL_OPTIMIZERS:
        raise _ConfigError(
            f"unknown dual optimizer {dual_kind!r}; "
            f"valid dual optimizers: {', '.join(DUAL_OPTIMIZERS)}"
        )
    if dual_kind == "gradient_ascent":
        factory = lambda: GradientAscent(config.lr_dual)
    else:
        factory = lambda: NuPI(config.lr_dual, kappa_p=config.kappa_p, nu=config.nu)
    return PrimalDualOptimizers(primal=primal, duals=make_dual_optimizers(problem, factory))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _trace_row(problem, optimizers) -> tuple[str, dict]:
    """One post-update trace row plus the summary figures it was built from."""
    evaluation = problem.evaluate_with_gradients(problem.x)
    assembled = assemble(problem, evaluation)
    kkt = current_kkt_residual(problem, evaluation)
    max_ineq, max_eq = problem._violation_maxima(evaluation.state)
    mult_linf = 0.0
    for group in problem.groups.values():
        if group.multiplier is not None and group.multiplier.size:
            mult_linf = max(mult_linf, float(np.max(np.abs(group.multiplier.values))))
    figures = {
        "loss": evaluation.state.loss,
        "max_violation": max(max_ineq, max_eq),
        "kkt": kkt,
    }
    row = ",".join(
        [str(optimizers.step)]
        + [
            _fmt(v)
            for v in (
                evaluation.state.loss,
                assembled.primal_lagrangian,
                assembled.dual_lagrangian,
                max_ineq,
                max_eq,
                mult_linf,
                kkt.stationarity,
                kkt.complementarity,
            )
        ]
    )
    return row, figures


def cmd_run(config: RunConfig) -> int:
    """Execute rolls per config, writing a trace and a final summary line."""
    try:
        if config.steps < 1:
            raise _ConfigError(f"steps must be >= 1, got {config.steps}")
        if config.scheme not in SCHEMES:
            raise _ConfigError(
                f"unknown scheme {config.scheme!r}; valid schemes: {', '.join(SCHEMES)}"
            )
        if config.checkpoint_every is not None:
            if config.checkpoint_every < 1:
                raise _ConfigError("checkpoint-every must be >= 1")
            if config.checkpoint_out is None:
                raise _ConfigError("checkpoint-every requires checkpoint-out")
        problem = _build_problem(config)
        optimizers = _build_optimizers(config, problem)
        if config.checkpoint_in is not None:
            ckpt.load(config.checkpoint_in, problem, optimizers)
    except (_ConfigError, ValueError, ckpt.CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    trace_handle = None
    try:
        if config.trace is not None:
            trace_handle = open(config.trace, "w", newline="\n")
            trace_handle.write(TRACE_HEADER + "\n")
        for _ in range(config.steps):
            roll(
                problem,
                optimizers,
                scheme=config.scheme,
                reuse_primal_evaluation=config.reuse_primal_eval,
            )
            if trace_handle is not None:
                row, figures = _trace_row(problem, optimizers)
                trace_handle.write(row + "\n")
            if (
                config.checkpoint_every is not None
                and optimizers.step % config.checkpoint_every == 0
            ):
                ckpt.save(problem, optimizers, config.checkpoint_out)
        if trace_handle is None:
            # without a trace only the summary needs a row; a failure at x_{t+1}
            # shows here or in the next roll's evaluation
            _, figures = _trace_row(problem, optimizers)
        if config.checkpoint_out is not None:
            ckpt.save(problem, optimizers, config.checkpoint_out)
    except EvaluationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_handle is not None:
            trace_handle.close()
    kkt = figures["kkt"]
    print(
        "final:"
        f" loss={_fmt(figures['loss'])}"
        f" max_violation={_fmt(figures['max_violation'])}"
        f" kkt_stationarity={_fmt(kkt.stationarity)}"
        f" kkt_feasibility={_fmt(kkt.feasibility)}"
        f" kkt_complementarity={_fmt(kkt.complementarity)}"
    )
    return 0


def cmd_check_grad(config: RunConfig) -> int:
    """Verify analytic oracles against finite differences at seeded points."""
    from .gradients import check_gradients
    from .problems import normal_stream

    try:
        problem = _build_problem(config, formulation="lagrangian")
    except (_ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    oracles = problem.oracle_functions()
    n_points = 10
    points = normal_stream(config.seed, n_points * problem.dim).reshape(
        n_points, problem.dim
    )
    worst = {name: (0.0, True) for name in oracles}
    for x in points:
        report = check_gradients(oracles, x, rel_tol=1e-5, abs_tol=1e-8)
        for entry in report.entries:
            dev, ok = worst[entry.name]
            worst[entry.name] = (max(dev, entry.max_deviation), ok and entry.passed)
    all_passed = True
    for name in oracles:
        dev, ok = worst[name]
        all_passed = all_passed and ok
        status = "pass" if ok else "FAIL"
        print(f"{name}: max deviation {dev:.3e} over {n_points} points ({status})")
    return 0 if all_passed else 1


def cmd_list() -> int:
    """Print the addressable problems, schemes, formulations, and optimizers."""
    print("problems:", " ".join(PROBLEM_NAMES))
    print("schemes:", " ".join(SCHEMES))
    print("formulations:", " ".join(FORMULATIONS))
    print("primal optimizers:", " ".join(PRIMAL_OPTIMIZERS))
    print("dual optimizers:", " ".join(DUAL_OPTIMIZERS))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_problem_flags(parser):
    parser.add_argument("--problem", help="problem name (see `lagrangekit list`)")
    parser.add_argument("--a", help="projection_ball target, comma separated (e.g. 3,4)")
    parser.add_argument("--threshold", type=float, help="norm_logreg norm bound")
    parser.add_argument("--seed", type=int, help="seed for datasets and check points")
    parser.add_argument("--config", help="JSON file with RunConfig fields")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrangekit",
        description="Lagrangian-based constrained optimization runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="roll a problem and write a CSV trace")
    _add_problem_flags(run)
    run.add_argument("--scheme", help="update scheme (see `lagrangekit list`)")
    run.add_argument("--formulation", help="lagrangian, augmented_lagrangian, quadratic_penalty")
    run.add_argument("--penalty", type=float, help="initial penalty coefficient")
    run.add_argument("--primal-optimizer", dest="primal_optimizer", help="gd, momentum, adam")
    run.add_argument("--lr-primal", dest="lr_primal", type=float, help="primal learning rate")
    run.add_argument("--momentum", type=float, help="momentum beta")
    run.add_argument("--beta1", type=float, help="adam beta1")
    run.add_argument("--beta2", type=float, help="adam beta2")
    run.add_argument("--eps", type=float, help="adam epsilon")
    run.add_argument(
        "--dual-optimizer", dest="dual_optimizer", help="gradient_ascent, nupi"
    )
    run.add_argument("--lr-dual", dest="lr_dual", type=float, help="dual learning rate")
    run.add_argument("--kappa-p", dest="kappa_p", type=float, help="nupi proportional gain")
    run.add_argument("--nu", type=float, help="nupi EMA coefficient")
    run.add_argument("--steps", type=int, help="number of rolls")
    run.add_argument("--trace", help="CSV trace output path")
    run.add_argument("--checkpoint-in", dest="checkpoint_in", help="resume from this file")
    run.add_argument("--checkpoint-out", dest="checkpoint_out", help="save state to this file")
    run.add_argument(
        "--checkpoint-every",
        dest="checkpoint_every",
        type=int,
        help="save a rolling checkpoint every N steps",
    )
    run.add_argument(
        "--reuse-primal-eval",
        dest="reuse_primal_eval",
        action="store_const",
        const=True,
        help="alt-pd: reuse the pre-step evaluation for the dual update",
    )

    check = sub.add_parser("check-grad", help="finite-difference oracle verification")
    _add_problem_flags(check)

    sub.add_parser("list", help="list problems, schemes, formulations, optimizers")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    path = getattr(args, "config", None)
    if path is not None:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigError(f"cannot read config {path!r}: {exc}") from None
        if not isinstance(data, dict):
            raise _ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise _ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
        config = replace(config, **data)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    config = replace(config, **overrides)
    for rate_name in ("lr_primal", "lr_dual"):
        rate = getattr(config, rate_name)
        if not rate > 0:
            raise _ConfigError(f"{rate_name} must be > 0, got {rate}")
    seed = config.seed
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise _ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    try:
        config = _resolve_config(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "run":
        return cmd_run(config)
    return cmd_check_grad(config)


def entry() -> None:
    sys.exit(main())
