"""Deterministic text checkpoints with exact (bit-level) resume.

File layout: a magic first line ``LAGRANGEKIT-CKPT v1`` followed by one
``key=tag payload`` line per field, keys in sorted order. Floats are encoded
as lowercase hexadecimal literals (``float.hex``), so a save/load/save cycle
is byte-identical. Tags:

- ``i``  integer scalar
- ``f``  float scalar (hex)
- ``v``  float vector: count then hex entries
- ``iv`` integer vector: count then decimal entries (booleans as 0/1)
- ``s``  verbatim string
- ``absent`` a lazily uncreated buffer or inapplicable field

Field names: ``version``, ``signature``, ``step``, ``x``,
``groups.<id>.multiplier``, ``groups.<id>.penalty`` (plus
``groups.<id>.update_count`` for indexed multipliers), ``opt.primal.<buffer>``
and ``opt.dual.<id>.<buffer>``.

Saving is atomic (temp file + rename). Loading parses and validates the whole
file before mutating anything, so a corrupt file leaves the target state
untouched.
"""

from __future__ import annotations

import os
import re
import tempfile
from contextlib import contextmanager
from typing import Optional

import numpy as np

from .core import EvaluationError
from .multipliers import IndexedMultiplier
from .optim import _BadBuffer

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointError",
    "problem_signature",
    "save",
    "load",
]

MAGIC = "LAGRANGEKIT-CKPT v1"
FORMAT_VERSION = 1
# the characters ``save`` writes integers with: int() rejects a malformed token of them
# itself, but also takes "+3", "0_3", " 3" and "\u0663"
_DECIMAL = re.compile(r"[0-9 -]*")  # a class, not a group: a long line needs no stack


class CheckpointError(ValueError):
    """Raised for unreadable, mismatched, or corrupt checkpoint files."""


def problem_signature(problem) -> str:
    """Structural fingerprint: dimension plus each group's id, type, size, formulation."""
    parts = sorted(
        f"{gid}:{group.constraint_type.value}:{group.size}:{group.formulation.value}"
        for gid, group in problem.groups.items()
    )
    return ";".join([f"dim={problem.dim}"] + parts)


# ---------------------------------------------------------------------------
# encoding


def _encode_value(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return f"i {int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"f {float(value).hex()}"
    if isinstance(value, str):
        return f"s {value}"
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise CheckpointError(f"cannot encode array of shape {arr.shape}")
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        body = " ".join(str(int(v)) for v in arr)
        return f"iv {arr.size} {body}".rstrip()
    body = " ".join(float(v).hex() for v in arr.astype(np.float64))
    return f"v {arr.size} {body}".rstrip()


def _decode(key: str, rest: str):
    tokens = rest.split(" ")
    tag = tokens[0]
    try:
        if tag == "absent":
            if len(tokens) != 1:
                raise ValueError("trailing payload")
            return None
        if tag == "i":
            if len(tokens) != 2 or not _DECIMAL.fullmatch(tokens[1]):
                raise ValueError("expected one integer")
            return int(tokens[1])
        if tag == "f":
            if len(tokens) != 2:
                raise ValueError("expected one float")
            return float.fromhex(tokens[1])
        if tag in ("v", "iv"):
            if len(tokens) < 2:
                raise ValueError("missing count")
            if not (_DECIMAL.fullmatch(rest, 3) if tag == "iv" else _DECIMAL.fullmatch(tokens[1])):
                raise ValueError("expected decimal integers")
            n = int(tokens[1])
            if len(tokens) != 2 + n:
                raise ValueError(f"expected {n} entries")
            if tag == "v":
                return np.array([float.fromhex(t) for t in tokens[2:]], dtype=np.float64)
            return np.array([int(t) for t in tokens[2:]], dtype=np.int64)
        if tag == "s":
            return rest[2:]
        raise ValueError(f"unknown tag {tag!r}")
    except (ValueError, OverflowError) as exc:  # a float or integer beyond 64 bits
        raise CheckpointError(f"corrupt section {key!r}: {exc}") from None


def _raw_fields(problem, optimizers) -> dict:
    """The one key schema: every field a checkpoint holds, by key, before encoding.

    ``save`` encodes these values; ``load`` expects exactly these keys.
    """
    fields = {
        "version": FORMAT_VERSION,
        "signature": problem_signature(problem),
        "step": int(optimizers.step),
        "x": problem.x,
    }
    for gid, group in problem.groups.items():
        mult = group.multiplier
        fields[f"groups.{gid}.multiplier"] = None if mult is None else mult.values
        penalty = group.penalty
        fields[f"groups.{gid}.penalty"] = None if penalty is None else penalty.value
        if isinstance(mult, IndexedMultiplier):
            fields[f"groups.{gid}.update_count"] = mult.update_count
    for name, value in optimizers.primal.buffer_state().items():
        fields[f"opt.primal.{name}"] = value
    for gid, dual in optimizers.duals.items():
        for name, value in dual.buffer_state().items():
            fields[f"opt.dual.{gid}.{name}"] = value
    return fields


# ---------------------------------------------------------------------------
# save


def save(problem, optimizers, path) -> None:
    """Atomically write the full optimization state to ``path``."""
    fields = _raw_fields(problem, optimizers)
    lines = [MAGIC] + [f"{key}={_encode_value(fields[key])}" for key in sorted(fields)]
    payload = "\n".join(lines) + "\n"

    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".ckpt-", dir=directory, text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# load


def _signature_mismatch(expected: str, found: str) -> str:
    exp_parts = expected.split(";")
    got_parts = found.split(";")
    exp_groups = {p.split(":")[0]: p for p in exp_parts[1:]}
    got_groups = {p.split(":")[0]: p for p in got_parts[1:]}
    if exp_parts[0] != (got_parts[0] if got_parts else ""):
        return f"dimension differs: expected {exp_parts[0]}, found {got_parts[0]!r}"
    for gid in sorted(set(exp_groups) | set(got_groups)):
        a, b = exp_groups.get(gid), got_groups.get(gid)
        if a != b:
            return f"group {gid!r} differs: expected {a!r}, found {b!r}"
    return "signatures differ"


@contextmanager
def _section(key: str):
    """Report an owner's validation failure as a corrupt section named ``key``."""
    try:
        yield
    except (ValueError, EvaluationError) as exc:
        if isinstance(exc, _BadBuffer):
            key = f"{key}.{exc.buffer}"
        raise CheckpointError(f"corrupt section {key!r}: {exc}") from None


def _stage_group(gid: str, group, entries: dict):
    """Validate one group's fields through their owners; return what to adopt."""
    mult_key, pen_key = f"groups.{gid}.multiplier", f"groups.{gid}.penalty"
    mult = group.multiplier
    values = penalty = counts = None
    if mult is None:
        if entries[mult_key] is not None:
            raise CheckpointError(f"corrupt section {mult_key!r}: group has no multiplier")
    else:
        with _section(mult_key):
            values = mult._checked(entries[mult_key])
    with _section(pen_key):
        penalty = group._checked_penalty(entries[pen_key])
    if isinstance(mult, IndexedMultiplier):
        cnt_key = f"groups.{gid}.update_count"
        with _section(cnt_key):
            counts = mult._checked_counts(entries[cnt_key])
    return group, values, penalty, counts


def _stage_buffers(scope: str, optimizer, entries: dict, size: Optional[int]):
    """Validate one optimizer's buffers; return the staged update its ``commit`` adopts."""
    values = {name: entries[f"{scope}.{name}"] for name in optimizer.buffer_state()}
    for name, value in values.items():
        # the one rule no owner knows: how long the problem says a buffer is
        if isinstance(value, np.ndarray) and size is not None and value.size != size:
            raise CheckpointError(
                f"corrupt section '{scope}.{name}': length {value.size} != {size}"
            )
    with _section(scope):
        return optimizer._staged_buffers(values)


def load(path, problem, optimizers) -> int:
    """Restore state saved by ``save`` into problem and optimizers; return the step.

    Validates the magic line, format version, problem signature (naming the
    differing group on mismatch), and the exact field set before mutating
    anything; corrupt or truncated files raise CheckpointError and leave the
    target objects untouched.
    """
    try:
        with open(os.fspath(path), "r", newline="") as handle:
            raw = handle.read()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"not a text checkpoint: {exc}") from None
    lines = raw.split("\n")
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"bad magic line: expected {MAGIC!r}")
    if lines[-1] == "":
        lines = lines[:-1]
    entries: dict[str, object] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if "=" not in line:
            raise CheckpointError(f"corrupt line {lineno}: missing '='")
        key, rest = line.split("=", 1)
        if key in entries:
            raise CheckpointError(f"corrupt section {key!r}: duplicate key")
        entries[key] = _decode(key, rest)

    for required in ("version", "signature"):
        if required not in entries:
            raise CheckpointError(f"corrupt section {required!r}: missing")
    version = entries["version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version!r}")
    expected_sig = problem_signature(problem)
    found_sig = entries["signature"]
    if not isinstance(found_sig, str) or found_sig != expected_sig:
        raise CheckpointError(
            "signature mismatch: " + _signature_mismatch(expected_sig, str(found_sig))
        )
    expected_keys = set(_raw_fields(problem, optimizers))
    missing = expected_keys - set(entries)
    extra = set(entries) - expected_keys
    if missing:
        raise CheckpointError(f"corrupt section {sorted(missing)[0]!r}: missing")
    if extra:
        raise CheckpointError(f"corrupt section {sorted(extra)[0]!r}: unexpected")

    step = entries["step"]
    if not isinstance(step, int) or step < 0:
        raise CheckpointError("corrupt section 'step': expected integer >= 0")
    x = entries["x"]
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        raise CheckpointError("corrupt section 'x': expected a float vector")
    with _section("x"):
        x = problem._check_point(x)
    staged_groups = [_stage_group(gid, group, entries) for gid, group in problem.groups.items()]
    staged_primal = _stage_buffers("opt.primal", optimizers.primal, entries, problem.dim)
    staged_duals = []
    for gid, dual in optimizers.duals.items():
        size = problem.groups[gid].size if gid in problem.groups else None
        staged_duals.append((dual, _stage_buffers(f"opt.dual.{gid}", dual, entries, size)))

    # everything validated; apply
    problem.set_x(x)
    for group, values, penalty, counts in staged_groups:
        if values is not None:
            group.multiplier.load_values(values)
        if penalty is not None:
            group.penalty = penalty
        if counts is not None:
            group.multiplier.load_update_count(counts)
    optimizers.primal.commit(staged_primal)
    for dual, staged in staged_duals:
        dual.commit(staged)
    optimizers.step = step
    return step
