"""Command-line runner: configure a problem, roll it, and emit traces.

Subcommands: ``run`` (optimize and write a CSV trace), ``check-grad``
(finite-difference verification of the problem oracles), ``list`` (names of
available problems, schemes, formulations, and optimizers).

Exit codes: 0 success (``-h`` included); 1 configuration error: an unknown
name, a flag argparse rejects, a config value of the wrong type, or an
unreadable file; 2 numerical failure (non-finite state mid-run). Both write
one line of at most 200 bytes to stderr (``_report``); a failed ``check-grad``
exits 1 with its verdict on stdout.

Flags override values from an optional JSON config file (same field names as
RunConfig, each value of its field's type); flags win on conflict.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import checkpoint as ckpt
from .core import EvaluationError, Formulation, _max_abs
from .optim import (
    SCHEMES,
    AdamLike,
    GradientAscent,
    GradientDescent,
    Momentum,
    NuPI,
    PrimalDualOptimizers,
    _observe,
    assemble,  # noqa: F401  (perfbench/tracing.py wraps ``cli.assemble``)
    make_dual_optimizers,
    roll,
)
from .problems import (
    PROBLEM_NAMES,
    KKTResidual,
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


_FIELD_TYPES = get_type_hints(RunConfig)
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", type(None): "null"}


class _ConfigError(ValueError):
    pass


def _cut(text: str, limit: int = 60) -> str:
    """``text`` cut to ``limit`` characters, ending in ``...``, so that it cannot flood a line."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


# control characters and line separators, printed as their Python escapes
_ESCAPES = {c: ascii(chr(c))[1:-1] for c in (*range(32), *range(127, 160), 0x2028, 0x2029)}


def _report(prefix: str, message) -> None:
    """Print ``prefix: message`` to stderr as one line of at most 200 UTF-8 bytes.

    An escaped message stays one line; a longer line is cut to end in ``...``.
    """
    line = f"{prefix}: {message}".translate(_ESCAPES).encode("utf-8", "backslashreplace")
    if len(line) > 199:  # the newline is the 200th byte
        line = line[:196] + b"..."
    print(line.decode("utf-8", "ignore"), file=sys.stderr)  # drops a cut multibyte character


def _check_name(what: str, name, valid: tuple) -> None:
    if name not in valid:
        raise _ConfigError(
            f"unknown {what} {_cut(ascii(name))}; valid {what}s: {', '.join(valid)}"
        )


def _check_config_types(data: dict) -> None:
    """Reject a JSON config value whose type does not fit its RunConfig field.

    A bool is not an integer, an integer within the float64 range is a valid
    number, null fits only an Optional field, and ``a`` also takes a list of
    numbers.
    """
    for name, value in data.items():
        kinds = get_args(_FIELD_TYPES[name]) or (_FIELD_TYPES[name],)
        if type(value) in kinds:
            continue
        if type(value) is int and float in kinds:
            if abs(value) <= sys.float_info.max:
                continue
            raise _ConfigError(f"config field {name!r} is beyond the float64 range, got {value}")
        if name == "a" and type(value) is list and all(type(v) in (int, float) for v in value):
            continue
        expected = [_TYPE_NAMES[kind] for kind in kinds]
        if name == "a":
            expected.append("a list of numbers")
        raise _ConfigError(
            f"config field {name!r} must be {' or '.join(expected)}, got {json.dumps(value)}"
        )


def _parse_vector(text) -> np.ndarray:
    try:
        if isinstance(text, (list, tuple)):
            return np.asarray([float(v) for v in text], dtype=np.float64)
        parts = [tok for tok in str(text).replace(",", " ").split() if tok]
        return np.asarray([float(tok) for tok in parts], dtype=np.float64)
    except (ValueError, OverflowError):  # OverflowError: an integer beyond float64
        raise _ConfigError(f"cannot parse vector from {_cut(ascii(text))}") from None


def _build_problem(config: RunConfig, formulation=None):
    name = config.problem
    _check_name("problem", name, PROBLEM_NAMES)
    if formulation is None:
        _check_name("formulation", config.formulation, FORMULATIONS)
        formulation = config.formulation
    kwargs = {"formulation": formulation, "penalty": config.penalty}
    if formulation == "lagrangian":
        kwargs["penalty"] = None
    try:
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
    except EvaluationError as exc:
        # a factory checks its certificate while it builds: the configured problem failed
        raise _ConfigError(f"cannot build problem {name!r}: {exc}") from None


def _build_optimizers(config: RunConfig, problem) -> PrimalDualOptimizers:
    kind = config.primal_optimizer
    _check_name("primal optimizer", kind, PRIMAL_OPTIMIZERS)
    if kind == "gd":
        primal = GradientDescent(config.lr_primal)
    elif kind == "momentum":
        primal = Momentum(config.lr_primal, beta=config.momentum)
    else:
        primal = AdamLike(
            config.lr_primal, beta1=config.beta1, beta2=config.beta2, eps=config.eps
        )
    dual_kind = config.dual_optimizer
    _check_name("dual optimizer", dual_kind, DUAL_OPTIMIZERS)
    if dual_kind == "gradient_ascent":
        factory = lambda: GradientAscent(config.lr_dual)
    else:
        factory = lambda: NuPI(config.lr_dual, kappa_p=config.kappa_p, nu=config.nu)
    return PrimalDualOptimizers(primal=primal, duals=make_dual_optimizers(problem, factory))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# a trace row in one call: "%.17g" and ``_fmt`` both print through
# PyOS_double_to_string with 'g' and precision 17, so the bytes are the same
_ROW = "%d," + ",".join(["%.17g"] * 8)


def _evaluator(problem):
    """An ``evaluate`` that serves the committed x's evaluation from one slot.

    A hit needs the very array last evaluated to be the committed x: a roll
    replaces that read-only array and never mutates it, and the CLI's
    oracles are pure, so its evaluation stays valid while it is committed.
    """
    last_x = last = None

    def evaluate(x):
        nonlocal last_x, last
        if x is last_x and x is problem.x:
            return last
        last = problem.evaluate_with_gradients(x)
        last_x = x
        return last

    return evaluate


def _trace_row(problem, optimizers, evaluation, assembled) -> tuple[str, KKTResidual]:
    """A roll observer's record at (x_t, m_t) as a trace row, plus the row's KKT residual.

    ``current_kkt_residual`` reads the blocks and the record from the slot and
    leaves the violation maxima in ``problem._maxima``, where the row reads them;
    the multiplier ∞-norm reads each group's stored values.
    """
    kkt = current_kkt_residual(problem, evaluation)
    max_ineq, max_eq = problem._maxima[1]
    mult_linf = 0.0
    for group in problem._groups.values():
        if group.multiplier is not None:  # a group, so its multiplier, has >= 1 entry
            mult_linf = max(mult_linf, _max_abs(group.multiplier._values))
    row = _ROW % (
        optimizers.step,
        evaluation.state.loss,
        assembled.primal_lagrangian,
        assembled.dual_lagrangian,
        max_ineq,
        max_eq,
        mult_linf,
        kkt.stationarity,
        kkt.complementarity,
    )
    return row, kkt


def cmd_run(config: RunConfig) -> int:
    """Execute rolls per config, writing a trace and a final summary line.

    Each post-update point is evaluated and assembled once: the rolls share
    one ``_evaluator`` (alt-pd's x_{t+1} is the next roll's x_t), and row t is
    roll t+1's opening record, handed to its observer; one more assembly gives
    the last row. A resumed run evaluates its loaded point afresh.
    """
    try:
        if config.steps < 1:
            raise _ConfigError(f"steps must be >= 1, got {config.steps}")
        _check_name("scheme", config.scheme, SCHEMES)
        if config.checkpoint_every is not None:
            if config.checkpoint_every < 1:
                raise _ConfigError("checkpoint-every must be >= 1")
            if config.checkpoint_out is None:
                raise _ConfigError("checkpoint-every requires checkpoint-out")
        for flag, path in (("trace", config.trace), ("checkpoint-out", config.checkpoint_out)):
            if path is not None and "\0" in str(path):  # open would reject it only mid-run
                raise _ConfigError(f"{flag} path contains a null byte")
        out = config.checkpoint_out  # checked now: a first save that fails names its temp file
        if out is not None:
            with contextlib.suppress(FileNotFoundError):  # any other error (too long) propagates
                os.stat(out)
            if os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out))):
                raise _ConfigError(f"checkpoint-out {out!r} is not a file in an existing directory")
        problem = _build_problem(config)
        optimizers = _build_optimizers(config, problem)
        if config.checkpoint_in is not None:
            ckpt.load(config.checkpoint_in, problem, optimizers)
    except (_ConfigError, ValueError, EvaluationError, ckpt.CheckpointError, OSError) as exc:
        _report("error", exc)
        return 1

    evaluate = _evaluator(problem)
    every = config.checkpoint_every
    trace_handle = kkt = None

    def due():
        return every is not None and optimizers.step % every == 0

    def on_record(evaluation, assembled):
        # at (x_t, m_t), before any preview: the residual, then row t and checkpoint t
        nonlocal kkt
        row, kkt = _trace_row(problem, optimizers, evaluation, assembled)
        if trace_handle is not None:
            trace_handle.write(row + "\n")
            if due():
                ckpt.save(problem, optimizers, config.checkpoint_out)

    try:
        if config.trace is not None:
            trace_handle = open(config.trace, "w", newline="\n")
            trace_handle.write(TRACE_HEADER + "\n")
        for step in range(config.steps):
            # the first roll opens at the initial or loaded point, which has no row
            observer = on_record if trace_handle is not None and step else None
            roll(problem, optimizers, scheme=config.scheme, evaluate=evaluate, observer=observer)
            if trace_handle is None and due():
                ckpt.save(problem, optimizers, config.checkpoint_out)
        # the last row, at x_N; without a trace only the summary needs it
        last = evaluate(problem.x)
        _observe(problem, last, on_record)
        if config.checkpoint_out is not None and not due():  # else the last step's save holds it
            ckpt.save(problem, optimizers, config.checkpoint_out)
    except EvaluationError as exc:
        _report("numerical failure", exc)
        return 2
    except OSError as exc:
        _report("error", exc)
        return 1
    finally:
        if trace_handle is not None:
            trace_handle.close()
    print(  # max_violation is the last row's KKT feasibility
        "final:"
        f" loss={_fmt(last.state.loss)}"
        f" max_violation={_fmt(kkt.feasibility)}"
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
    except (_ConfigError, ValueError, EvaluationError) as exc:
        _report("error", exc)
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any configuration error: one line, exit 1."""

    def error(self, message):
        raise _ConfigError(message)


@functools.cache  # once per process: a parse leaves no state in the parser, and errors raise
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or JSON
            raise _ConfigError(f"cannot read config {path!r}: {exc}") from None
        if not isinstance(data, dict):
            raise _ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            names = ", ".join(map(ascii, sorted(unknown)))
            raise _ConfigError(f"{len(unknown)} unknown config field(s): {names}")
        _check_config_types(data)
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
    if not 0 <= config.seed < 2**64:
        raise _ConfigError(f"seed must be an integer in [0, 2**64), got {config.seed!r}")
    return config


def _attach_vector_values(argv: list) -> list:
    """``--a VALUE`` as ``--a=VALUE`` when VALUE starts with a negative number.

    argparse reads a value such as ``-1,2`` or ``-1.5,2`` as a flag, so a
    target whose first coordinate is negative could only be given as ``--a=``.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--a" and token.startswith("-"):
            head = token.replace(",", " ").split()
            try:
                float(head[0])
            except (IndexError, ValueError):
                pass
            else:
                out[-1] = "--a=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = _attach_vector_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "list":
            return cmd_list()
        config = _resolve_config(args)
    except _ConfigError as exc:
        _report("error", exc)
        return 1
    # a non-finite value is reported once, as the exit-2 line, not as numpy warnings
    with np.errstate(all="ignore"):
        if args.command == "run":
            return cmd_run(config)
        return cmd_check_grad(config)


def entry() -> None:
    sys.exit(main())
