"""Golden CLI traces: every problem x scheme x formulation x optimizer pair.

Each case runs ``lagrangekit run`` in-process for 50 steps at seed 3 and
hashes the CSV trace bytes followed by stdout (the final summary line). The
digests in ``golden_traces.json`` pin the library's numerics bit for bit; a
refactor that changes any float anywhere in a run changes a digest. They hold in
the numeric environment of ``golden_environment.json``, which a failure names.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

import pytest

from lagrangekit import PROBLEM_NAMES, SCHEMES, cli
from numeric_environment import RECORDED, current, mismatch_note

GOLDEN = json.loads(Path(__file__).with_name("golden_traces.json").read_text())

CASES = [
    "/".join(combo)
    for combo in itertools.product(
        PROBLEM_NAMES, SCHEMES, cli.FORMULATIONS, cli.PRIMAL_OPTIMIZERS, cli.DUAL_OPTIMIZERS
    )
]


def trace_digest(case: str, trace_path: Path) -> str:
    problem, scheme, formulation, primal, dual = case.split("/")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([
            "run", "--problem", problem, "--scheme", scheme,
            "--formulation", formulation, "--primal-optimizer", primal,
            "--dual-optimizer", dual, "--steps", "50", "--seed", "3",
            "--trace", str(trace_path),
        ])
    assert code == 0, f"{case}: exit {code}"
    return hashlib.sha256(trace_path.read_bytes() + stdout.getvalue().encode()).hexdigest()


def test_golden_cases_cover_the_product():
    assert len(CASES) == 288
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden(case, tmp_path):
    assert trace_digest(case, tmp_path / "trace.csv") == GOLDEN[case], mismatch_note()


def test_golden_environment_is_recorded_field_for_field():
    assert sorted(RECORDED) == sorted([*current(), "description"])
    note = mismatch_note()
    assert str(current()) in note and repr(RECORDED["openblas_core"]) in note
