"""Command line interface: subcommands, exit codes, trace files, resume."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from lagrangekit import (
    BenchmarkProblem,
    ConstraintBlock,
    ConstraintGroup,
    ConstraintType,
    DifferentiableFunction,
    EvaluationError,
    cli,
)

INEQ = ConstraintType.INEQUALITY

TRACE_HEADER = (
    "step,loss,primal_lagrangian,dual_lagrangian,max_ineq_violation,"
    "max_eq_violation,multiplier_linf,kkt_stationarity,kkt_complementarity"
)


def run_cli(*argv):
    return cli.main(list(argv))


class TestRun:
    def test_projection_ball_converges(self, capsys):
        code = run_cli(
            "run", "--problem", "projection_ball", "--a", "3,4",
            "--lr-primal", "0.05", "--lr-dual", "0.05", "--steps", "5000",
        )
        assert code == 0
        out = capsys.readouterr().out
        final = out.strip().splitlines()[-1]
        assert final.startswith("final:")
        figures = dict(
            part.split("=") for part in final.removeprefix("final: ").split()
        )
        assert float(figures["kkt_stationarity"]) <= 1e-3
        assert float(figures["max_violation"]) <= 1e-3
        assert float(figures["kkt_complementarity"]) <= 1e-3

    def test_bilinear_first_trace_row_exact(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--problem", "bilinear", "--steps", "1",
            "--lr-primal", "0.1", "--lr-dual", "0.1", "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert lines[1] == (
            "1,0,0.9900000000000001,0.9900000000000001,0,"
            "0.90000000000000002,1.1000000000000001,1.1000000000000001,0"
        )

    def test_trace_is_deterministic(self, tmp_path):
        traces = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code = run_cli(
                "run", "--problem", "norm_logreg", "--seed", "3",
                "--steps", "50", "--trace", str(path),
                "--scheme", "extragradient",
            )
            assert code == 0
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

    def test_header_column_order_fixed(self, tmp_path):
        path = tmp_path / "t.csv"
        run_cli("run", "--steps", "1", "--trace", str(path))
        assert path.read_text().splitlines()[0] == TRACE_HEADER

    def test_unknown_problem_lists_valid_names(self, capsys):
        code = run_cli("run", "--problem", "nosuch")
        assert code == 1
        err = capsys.readouterr().err
        for name in ("projection_ball", "equality_qp", "norm_logreg", "bilinear"):
            assert name in err

    def test_unknown_scheme_exits_one(self, capsys):
        assert run_cli("run", "--scheme", "nosuch") == 1
        assert "simultaneous" in capsys.readouterr().err

    def test_unknown_formulation_exits_one(self, capsys):
        assert run_cli("run", "--formulation", "nosuch") == 1
        assert "augmented_lagrangian" in capsys.readouterr().err

    def test_unknown_optimizer_exits_one(self, capsys):
        assert run_cli("run", "--primal-optimizer", "bfgs") == 1
        assert "momentum" in capsys.readouterr().err
        assert run_cli("run", "--dual-optimizer", "nosuch") == 1
        assert "nupi" in capsys.readouterr().err

    def test_nonpositive_learning_rate_exits_one(self, capsys):
        assert run_cli("run", "--lr-primal", "0") == 1
        assert "lr_primal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--dual-optimizer", "nupi", "--kappa-p", "nan"),
            ("--dual-optimizer", "nupi", "--kappa-p", "inf"),
            ("--primal-optimizer", "adam", "--eps", "inf"),
            ("--primal-optimizer", "adam", "--eps", "nan"),
            ("--formulation", "quadratic_penalty", "--dual-optimizer", "nupi", "--kappa-p", "nan"),
        ],
    )
    def test_non_finite_hyperparameter_exits_one(self, flags, capsys):
        assert run_cli("run", "--steps", "3", *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_infinite_threshold_exits_one_at_build(self, capsys):
        assert run_cli("run", "--problem", "norm_logreg", "--threshold", "inf") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threshold must be finite and > 0, got inf\n"

    @pytest.mark.parametrize("trace", [False, True])
    def test_trace_rows_built_only_when_written(self, trace, tmp_path, monkeypatch, capsys):
        calls = []
        original = cli._trace_row
        monkeypatch.setattr(
            cli, "_trace_row", lambda *args: calls.append(1) or original(*args)
        )
        flags = ["--trace", str(tmp_path / "t.csv")] if trace else []
        assert run_cli("run", "--steps", "5", *flags) == 0
        assert len(calls) == (5 if trace else 1)
        assert capsys.readouterr().out.startswith("final: ")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_numerical_failure_exits_two(self, capsys):
        # a huge quadratic penalty with a huge step size diverges to overflow
        code = run_cli(
            "run", "--problem", "bilinear", "--formulation", "quadratic_penalty",
            "--penalty", "1e8", "--lr-primal", "10", "--steps", "200",
        )
        assert code == 2
        assert capsys.readouterr().err.strip() != ""

    _DIVERGING = {
        "ball-lr": ["--a", "3,4", "--lr-primal", "1e300", "--steps", "5"],
        "bilinear-penalty": [
            "--problem", "bilinear", "--formulation", "quadratic_penalty",
            "--penalty", "1e8", "--lr-primal", "10", "--steps", "200",
        ],
        "logreg-augmented": [
            "--problem", "norm_logreg", "--formulation", "augmented_lagrangian",
            "--penalty", "1e3", "--lr-primal", "5", "--lr-dual", "50", "--steps", "300",
        ],
    }
    _VIOLATION = "numerical failure: non-finite constraint violation\n"
    _LAGRANGIAN = "numerical failure: non-finite primal Lagrangian inf\n"

    @pytest.mark.parametrize(
        "scheme, run, err, rows, digest",
        [
            ("simultaneous", "ball-lr", _VIOLATION, 0,
             "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566"),
            ("simultaneous", "bilinear-penalty", _LAGRANGIAN, 16,
             "1da969b5b33bdf5516b5c1fa839bcc97238bb817ebcfc2d376f7c5450ab84ade"),
            ("simultaneous", "logreg-augmented", _VIOLATION, 4,
             "7140c45aebbf928aee23da26bf3b3da3ea9fff5b9559caa0511d6edb052abe7b"),
            ("alt-pd", "ball-lr", _VIOLATION, 0,
             "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566"),
            ("alt-pd", "bilinear-penalty", _LAGRANGIAN, 16,
             "1da969b5b33bdf5516b5c1fa839bcc97238bb817ebcfc2d376f7c5450ab84ade"),
            ("alt-pd", "logreg-augmented", _LAGRANGIAN, 3,
             "18cd03fb9f4e2d249e9f86f15c9236d2c44b59a05c61c05d9f7e19c5c67d3299"),
            ("alt-dp", "ball-lr", _VIOLATION, 0,
             "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566"),
            ("alt-dp", "bilinear-penalty", _LAGRANGIAN, 16,
             "1da969b5b33bdf5516b5c1fa839bcc97238bb817ebcfc2d376f7c5450ab84ade"),
            ("alt-dp", "logreg-augmented", _LAGRANGIAN, 3,
             "3888ca2cca29f4b517918e870422d3690af6a0a5743ad599155aa2a2cba14583"),
            ("extragradient", "ball-lr", _VIOLATION, 0,
             "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566"),
            ("extragradient", "bilinear-penalty", _LAGRANGIAN, 8,
             "34b177e2593b68419951a4417b4c4c290f4178cf7726cc900b94fb4634e84b24"),
            ("extragradient", "logreg-augmented", _VIOLATION, 2,
             "153207c61b7deb9b180b28b2952ac0f650aafd69bd6ed7d0e3df7c81d9c3ce38"),
        ],
    )
    def test_diverging_run_exit_line_and_trace_pinned(
        self, scheme, run, err, rows, digest, tmp_path, capsys
    ):
        # the failing step's line and every row before it, per scheme
        trace = tmp_path / "t.csv"
        argv = ["run", *self._DIVERGING[run], "--scheme", scheme, "--trace", str(trace)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == err
        data = trace.read_bytes()
        assert data.count(b"\n") == 1 + rows
        assert hashlib.sha256(data).hexdigest() == digest

    # (scheme, run): the exit line, the checkpoint's sha256 with the trace off and
    # on (None: no checkpoint was written), and the trace's sha256
    _PARITY = {
        ("simultaneous", "ball-lr"): (
            _VIOLATION,
            "606041e0070899146d154a7c1814d895bdfc6a6137bd732f4c0bac44acd0ae86",
            None,
            "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566",
        ),
        ("simultaneous", "bilinear-penalty"): (
            _LAGRANGIAN,
            "bdebc497fe9afd50402b00104f7dde511f95fbffa03d3a66f7cab99554c81656",
            "b92a4df9b53f038f1fdd444aba2ec8573d8d0038aa3a7d6c2ec346258af64faf",
            "1da969b5b33bdf5516b5c1fa839bcc97238bb817ebcfc2d376f7c5450ab84ade",
        ),
        ("simultaneous", "logreg-augmented"): (
            _VIOLATION,
            "57ae43e147ad5a36928925b0ff8fc2e4fb75e5748fd160f1998d222242b93ac8",
            "56804dab22ebcd914b704305f726d30f6185e4d8a3e96ed2dbda24e5e8dd8260",
            "7140c45aebbf928aee23da26bf3b3da3ea9fff5b9559caa0511d6edb052abe7b",
        ),
        ("alt-pd", "ball-lr"): (
            _VIOLATION,
            None,
            None,
            "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566",
        ),
        ("alt-pd", "bilinear-penalty"): (
            _LAGRANGIAN,
            "b92a4df9b53f038f1fdd444aba2ec8573d8d0038aa3a7d6c2ec346258af64faf",
            "b92a4df9b53f038f1fdd444aba2ec8573d8d0038aa3a7d6c2ec346258af64faf",
            "1da969b5b33bdf5516b5c1fa839bcc97238bb817ebcfc2d376f7c5450ab84ade",
        ),
        ("alt-pd", "logreg-augmented"): (
            _LAGRANGIAN,
            "7b38c4a70d383b383a1b5309f3ef8eda219793c9e9b1a9a07e67be51d5d108de",
            "7b38c4a70d383b383a1b5309f3ef8eda219793c9e9b1a9a07e67be51d5d108de",
            "18cd03fb9f4e2d249e9f86f15c9236d2c44b59a05c61c05d9f7e19c5c67d3299",
        ),
        ("alt-dp", "ball-lr"): (
            _VIOLATION,
            "606041e0070899146d154a7c1814d895bdfc6a6137bd732f4c0bac44acd0ae86",
            None,
            "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566",
        ),
        ("alt-dp", "bilinear-penalty"): (
            _LAGRANGIAN,
            "bdebc497fe9afd50402b00104f7dde511f95fbffa03d3a66f7cab99554c81656",
            "b92a4df9b53f038f1fdd444aba2ec8573d8d0038aa3a7d6c2ec346258af64faf",
            "1da969b5b33bdf5516b5c1fa839bcc97238bb817ebcfc2d376f7c5450ab84ade",
        ),
        ("alt-dp", "logreg-augmented"): (
            _LAGRANGIAN,
            "c4f17240925fc34e137fae807349a47eb580444afe5886f0742b756b5bc2206c",
            "9b09b27961f26f650c27232d02626e529fa31eebd42a96b2a4e5aafd777c5d5f",
            "3888ca2cca29f4b517918e870422d3690af6a0a5743ad599155aa2a2cba14583",
        ),
        ("extragradient", "ball-lr"): (
            _VIOLATION,
            None,
            None,
            "a63e5809c7ecad21c79a5c19cad15f84367018d0aef8e32cca7e74831d873566",
        ),
        ("extragradient", "bilinear-penalty"): (
            _LAGRANGIAN,
            "9b21543b5c1b1917772515476ca804d97c00d4960f4d6e95f30308794ffe858f",
            "9b21543b5c1b1917772515476ca804d97c00d4960f4d6e95f30308794ffe858f",
            "34b177e2593b68419951a4417b4c4c290f4178cf7726cc900b94fb4634e84b24",
        ),
        ("extragradient", "logreg-augmented"): (
            _VIOLATION,
            "7bd6a0368c4c7576124a2c20a5be879fa7fe7b2130b87dc9e81a5eeed23f7568",
            "7bd6a0368c4c7576124a2c20a5be879fa7fe7b2130b87dc9e81a5eeed23f7568",
            "153207c61b7deb9b180b28b2952ac0f650aafd69bd6ed7d0e3df7c81d9c3ce38",
        ),
    }

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("scheme, run", list(_PARITY), ids=[f"{s}-{r}" for s, r in _PARITY])
    def test_diverging_run_checkpoint_pinned(self, scheme, run, trace, tmp_path, capsys):
        # a step's row error comes before that step's save, and both come before
        # the next roll's previews; untraced, the save comes before the next evaluation
        err, *checkpoints, trace_digest = self._PARITY[scheme, run]
        trace_path, state = tmp_path / "t.csv", tmp_path / "state.ckpt"
        argv = [
            "run", *self._DIVERGING[run], "--scheme", scheme,
            "--checkpoint-out", str(state), "--checkpoint-every", "1",
        ]
        if trace:
            argv += ["--trace", str(trace_path)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == err
        digest = hashlib.sha256(state.read_bytes()).hexdigest() if state.exists() else None
        assert digest == checkpoints[trace]
        assert trace_path.exists() == trace
        if trace:
            assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == trace_digest

    @pytest.mark.parametrize("command", ["run", "check-grad"])
    def test_problem_without_finite_certificate_exits_one(self, command, capsys):
        # the ball problem certifies its solution when built; at a = 1e308 the loss overflows
        assert run_cli(command, "--a", "1e308,1e308") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = "error: cannot build problem 'projection_ball': non-finite loss inf\n"
        assert captured.err == expected

    @pytest.mark.parametrize("value", ["-1,2", "-1.5,2", "-1 2", "-.5,-2"])
    def test_negative_first_coordinate_as_separate_value(self, value, tmp_path, capsys):
        # argparse would read "-1,2" as a flag; both spellings must run the same problem
        outputs = []
        for spelling in (["--a", value], ["--a=" + value]):
            trace = tmp_path / f"{len(outputs)}.csv"
            assert run_cli("run", *spelling, "--steps", "20", "--trace", str(trace)) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append((trace.read_bytes(), captured.out))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].startswith("final: ")

    def test_equality_qp_run(self, capsys):
        code = run_cli(
            "run", "--problem", "equality_qp", "--scheme", "alt-pd",
            "--lr-primal", "0.1", "--lr-dual", "0.1", "--steps", "2000",
        )
        assert code == 0
        final = capsys.readouterr().out.strip().splitlines()[-1]
        figures = dict(
            part.split("=") for part in final.removeprefix("final: ").split()
        )
        assert float(figures["max_violation"]) <= 1e-2
        # max_violation is the last row's KKT feasibility, max(max_ineq, max_eq)
        assert figures["max_violation"] == figures["kkt_feasibility"]


class TestConfigFile:
    def test_json_config_applies(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"problem": "bilinear", "steps": 1}))
        trace = tmp_path / "t.csv"
        code = run_cli("run", "--config", str(config), "--trace", str(trace))
        assert code == 0
        assert len(trace.read_text().splitlines()) == 2

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"problem": "bilinear", "steps": 7}))
        trace = tmp_path / "t.csv"
        code = run_cli(
            "run", "--config", str(config), "--steps", "2", "--trace", str(trace)
        )
        assert code == 0
        assert len(trace.read_text().splitlines()) == 3  # header + 2 rows

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"stepz": 5}))
        assert run_cli("run", "--config", str(config)) == 1
        assert "stepz" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, capsys):
        assert run_cli("run", "--config", "/nonexistent/run.json") == 1

    @staticmethod
    def rejected(config, capsys, monkeypatch):
        """The one stderr line of a run that exits 1 before its first roll."""
        rolls = []
        monkeypatch.setattr(cli, "roll", lambda *args, **kwargs: rolls.append(args))
        assert run_cli("run", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert rolls == []
        return captured.err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"steps": 1, "trace": "\xff"}')
        err = self.rejected(config, capsys, monkeypatch)
        assert err.startswith(f"error: cannot read config {str(config)!r}: 'utf-8' codec")

    def test_deeply_nested_config_exits_one(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.json"
        config.write_text('{"kappa_p": ' + "[" * 100_000 + "]" * 100_000 + "}")
        err = self.rejected(config, capsys, monkeypatch)
        assert err.startswith(f"error: cannot read config {str(config)!r}: maximum recursion")

    @pytest.mark.parametrize(
        "field, flag", [("trace", "trace"), ("checkpoint_out", "checkpoint-out")]
    )
    def test_null_byte_in_an_output_path_exits_one(
        self, field, flag, tmp_path, capsys, monkeypatch
    ):
        # open would raise ValueError: the trace's before the first roll, the
        # checkpoint's only after the last
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 2, field: str(tmp_path / "out\u0000.csv")}))
        err = self.rejected(config, capsys, monkeypatch)
        assert err == f"error: {flag} path contains a null byte\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "data",
        [
            {"steps": "10"},
            {"steps": 2.5},
            {"lr_primal": "0.1"},
            {"lr_dual": None},  # null fits only an Optional field
            {"checkpoint_every": "3"},
            {"kappa_p": [1]},
            {"steps": True},  # a bool is not an integer
            {"trace": 2},  # a path, never a file descriptor
        ],
        ids=json.dumps,
    )
    def test_mistyped_value_names_its_field(self, data, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(data))
        assert run_cli("run", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (field,) = data
        assert captured.err.startswith(f"error: config field {field!r} must be ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        ["[" + "0, " * 99_999 + "0]", "[" * 600 + "0" + "]" * 600],
        ids=["100000-entry-list", "600-deep-list"],
    )
    def test_mistyped_long_value_is_cut_in_its_error_line(
        self, text, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "run.json"
        config.write_text('{"kappa_p": ' + text + "}")
        err = self.rejected(config, capsys, monkeypatch)
        assert err.startswith("error: config field 'kappa_p' must be a number, got ")
        assert len(err.encode()) <= 200
        assert err.endswith("...\n")

    @pytest.mark.parametrize("field", ["threshold", "penalty", "lr_primal", "nu"])
    def test_integer_beyond_float64_names_its_field(self, field, tmp_path, capsys, monkeypatch):
        # float() of such an integer raises OverflowError, which no layer below expects
        config = tmp_path / "run.json"
        config.write_text(json.dumps({field: -(10**400)}))
        err = self.rejected(config, capsys, monkeypatch)
        assert err.startswith(f"error: config field {field!r} is beyond the float64 range, got -1000")
        assert len(err.encode()) <= 200 and err.endswith("...\n")

    def test_many_unknown_fields_are_counted_in_one_short_line(
        self, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({f"k{i}": 1 for i in range(100_000)}))
        err = self.rejected(config, capsys, monkeypatch)
        assert err.startswith("error: 100000 unknown config field(s): 'k0', 'k1', 'k10', ")
        assert len(err.encode()) <= 200 and err.endswith("...\n")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("problem", "unknown problem"),
            ("scheme", "unknown scheme"),
            ("formulation", "unknown formulation"),
            ("primal_optimizer", "unknown primal optimizer"),
            ("dual_optimizer", "unknown dual optimizer"),
            ("a", "cannot parse vector from"),
        ],
    )
    def test_long_unknown_name_is_cut_in_its_error_line(
        self, field, message, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({field: "x" * 100_000}))
        err = self.rejected(config, capsys, monkeypatch)
        assert err.startswith(f"error: {message} '{'x' * 56}...")
        assert len(err.encode()) <= 200 and "Traceback" not in err

    @pytest.mark.parametrize(
        "data",
        [{"lr_primal": 1}, {"a": [3, 4]}, {"a": "3,4"}, {"checkpoint_every": None}],
        ids=json.dumps,
    )
    def test_well_typed_values_accepted(self, data, tmp_path, capsys):
        # an integer is a valid number; `a` takes a list of numbers or a string
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 1, **data}))
        assert run_cli("run", "--config", str(config)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seed, code", [(-1, 1), (2**64, 1), (2**64 - 1, 0)])
    @pytest.mark.parametrize("command", ["run", "check-grad"])
    def test_seed_must_fit_uint64(self, command, seed, code, source, tmp_path, capsys):
        argv = [command, "--problem", "norm_logreg"]
        if command == "run":
            argv += ["--steps", "1"]
        if source == "flag":
            argv += ["--seed", str(seed)]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(config)]
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
        else:
            assert err == ""


class TestUsageErrors:
    """A flag argparse rejects is a configuration error: exit 1 and one line."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["run", "--steps", "abc"], "--steps"),
            (["run", "--bogus", "1"], "--bogus 1"),
            ([], "command"),
            (["run", "--reuse-primal-eval"], "--reuse-primal-eval"),  # a removed flag
            (["run", "--a", "--steps", "3"], "--a"),  # a flag is not a vector value
            (["run", "--a", "-h"], "--a"),
        ],
        ids=[
            "bad-value", "unknown-flag", "no-command", "removed-flag", "a-then-flag", "a-then-help"
        ],
    )
    def test_exits_one_with_one_line(self, argv, fragment, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    @pytest.mark.parametrize(
        "flag, fragment",
        [
            ("--scheme", "unknown scheme 'xxx"),
            ("--problem", "unknown problem 'xxx"),
            ("--steps", "argument --steps: invalid int value: 'xxx"),
            ("--bogus", "unrecognized arguments: --bogus xxx"),
        ],
    )
    def test_long_value_on_argv_is_cut_in_its_error_line(self, flag, fragment, capsys):
        assert cli.main(["run", flag, "x" * 100_000]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {fragment}") and "xxx..." in captured.err
        assert len(captured.err.encode()) <= 200 and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["-h"], ["run", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lagrangekit")


class TestBoundedErrorLines:
    """Every failure line is cut where it is printed: one line of <= 200 bytes."""

    @staticmethod
    def one_short_line(argv, capsys, start):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(start) and captured.err.endswith("...\n")
        assert len(captured.err.encode()) <= 200

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_huge_seed(self, source, tmp_path, capsys):
        seed = int("9" * 4000)
        if source == "flag":
            argv = ["run", "--seed", str(seed)]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seed": seed}))
            argv = ["run", "--config", str(config)]
        self.one_short_line(argv, capsys, "error: seed must be an integer in [0, 2**64), got 999")

    def test_huge_negative_steps(self, capsys):
        argv = ["run", "--steps", "-" + "9" * 4000]
        self.one_short_line(argv, capsys, "error: steps must be >= 1, got -999")

    def test_long_config_path(self, tmp_path, capsys):
        path = str(tmp_path / ("p" * 5000))
        self.one_short_line(["run", "--config", path], capsys, f"error: cannot read config '{path[:40]}")

    @pytest.mark.parametrize("flag", ["--trace", "--checkpoint-in", "--checkpoint-out"])
    def test_long_trace_or_checkpoint_path(self, flag, tmp_path, capsys):
        path = str(tmp_path / ("p" * 5000))
        self.one_short_line(["run", "--steps", "1", flag, path], capsys, "error: [Errno 36] ")

    @staticmethod
    def edited_checkpoint(tmp_path, capsys, edit) -> str:
        path = tmp_path / "state.ckpt"
        assert run_cli("run", "--steps", "1", "--checkpoint-out", str(path)) == 0
        capsys.readouterr()
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return str(path)

    def test_checkpoint_with_a_long_key(self, tmp_path, capsys):
        path = self.edited_checkpoint(tmp_path, capsys, lambda lines: [*lines, "k" * 100_000 + "=i 1"])
        self.one_short_line(["run", "--checkpoint-in", path], capsys, "error: corrupt section 'kkk")

    def test_checkpoint_with_a_long_signature(self, tmp_path, capsys):
        def edit(lines):
            return ["signature=s " + "z" * 100_000 if line.startswith("signature=") else line
                    for line in lines]
        path = self.edited_checkpoint(tmp_path, capsys, edit)
        start = "error: signature mismatch: dimension differs: expected dim=2, found 'zzz"
        self.one_short_line(["run", "--checkpoint-in", path], capsys, start)

    def test_checkpoint_with_a_long_version(self, tmp_path, capsys):
        def edit(lines):
            return ["version=i " + "9" * 4000 if line.startswith("version=") else line
                    for line in lines]
        path = self.edited_checkpoint(tmp_path, capsys, edit)
        self.one_short_line(
            ["run", "--checkpoint-in", path], capsys, "error: unsupported format version 999"
        )

    def test_control_characters_escaped_and_a_character_never_split(self, capsys):
        cli._report("error", "a\nb\r\x00\x85 " + "é" * 300)
        err = capsys.readouterr().err
        assert err.startswith("error: a\\nb\\r\\x00\\x85\\u2028éé")
        assert err.endswith("é...\n") and len(err.encode()) <= 200
        assert err.splitlines() == [err[:-1]]

    def test_short_line_printed_in_full(self, capsys):
        cli._report("numerical failure", "x" * 179)  # 199 bytes and the newline
        assert capsys.readouterr().err == "numerical failure: " + "x" * 179 + "\n"


class TestCheckpointFlags:
    def test_checkpoint_out_written(self, tmp_path):
        path = tmp_path / "state.ckpt"
        code = run_cli(
            "run", "--problem", "bilinear", "--steps", "3",
            "--checkpoint-out", str(path),
        )
        assert code == 0
        assert path.exists()
        assert path.read_text().splitlines()[0].startswith("LAGRANGEKIT-CKPT")

    @pytest.mark.parametrize("steps, saves", [(4, 2), (5, 3)])
    def test_rolling_checkpoint_of_the_last_step_is_the_final_one(
        self, tmp_path, monkeypatch, steps, saves
    ):
        # saved at steps 2 and 4, and at 5 when the last step is not a rolling one
        common = ["run", "--problem", "equality_qp", "--scheme", "alt-dp", "--steps", str(steps)]
        plain = tmp_path / "plain.ckpt"
        assert run_cli(*common, "--checkpoint-out", str(plain)) == 0
        save = cli.ckpt.save
        saved = []

        def counted_save(problem, optimizers, path):
            saved.append(optimizers.step)
            return save(problem, optimizers, path)

        monkeypatch.setattr(cli.ckpt, "save", counted_save)
        rolling = tmp_path / "rolling.ckpt"
        assert run_cli(*common, "--checkpoint-every", "2", "--checkpoint-out", str(rolling)) == 0
        assert len(saved) == saves and saved[-1] == steps
        assert rolling.read_bytes() == plain.read_bytes()
        config = cli.RunConfig(problem="equality_qp", scheme="alt-dp", steps=steps)
        states = []
        for path in (rolling, plain):
            problem = cli._build_problem(config)
            optimizers = cli._build_optimizers(config, problem)
            cli.ckpt.load(path, problem, optimizers)
            multipliers = [g.multiplier.values.tolist() for g in problem.groups.values()]
            states.append((optimizers.step, problem.x.tolist(), multipliers))
        assert states[0] == states[1] and states[0][0] == steps

    @pytest.mark.parametrize("where", ["nodir/c.ckpt", "."], ids=["missing-directory", "directory"])
    def test_unusable_checkpoint_out_fails_before_the_run(self, where, tmp_path, capsys):
        # checked with the configuration, before any row: not at the first save, 25 rows
        # in, with an error that names the save's temporary file
        path, trace = str(tmp_path / where), tmp_path / "t.csv"
        argv = ["run", "--steps", "50", "--trace", str(trace), "--checkpoint-out", path]
        assert run_cli(*argv, "--checkpoint-every", "25") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"checkpoint-out {path!r} is not a file in an existing directory"
        assert captured.err == f"error: {message}\n"
        assert not trace.exists()

    def test_checkpoint_every_requires_out(self, capsys):
        assert run_cli("run", "--steps", "2", "--checkpoint-every", "1") == 1
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--steps", "0"], "steps must be >= 1, got 0"),
            (["--checkpoint-every", "0"], "checkpoint-every must be >= 1"),
        ],
        ids=["steps", "checkpoint-every"],
    )
    def test_zero_count_exits_one_with_one_line(self, flags, message, tmp_path, capsys):
        path = tmp_path / "state.ckpt"
        assert run_cli("run", *flags, "--checkpoint-out", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not path.exists()

    def test_resume_reproduces_unbroken_trace(self, tmp_path):
        # one 40-step run against a 25-step leg checkpointed and resumed
        # for the remaining 15; the row streams must match byte for byte
        common = [
            "--problem", "projection_ball", "--a", "3,4",
            "--scheme", "extragradient",
            "--primal-optimizer", "momentum", "--momentum", "0.9",
            "--dual-optimizer", "nupi",
            "--lr-primal", "0.05", "--lr-dual", "0.05",
        ]
        full = tmp_path / "full.csv"
        assert run_cli("run", *common, "--steps", "40", "--trace", str(full)) == 0

        ckpt = tmp_path / "mid.ckpt"
        leg1 = tmp_path / "leg1.csv"
        assert (
            run_cli(
                "run", *common, "--steps", "25",
                "--trace", str(leg1), "--checkpoint-out", str(ckpt),
            )
            == 0
        )
        leg2 = tmp_path / "leg2.csv"
        assert (
            run_cli(
                "run", *common, "--steps", "15",
                "--trace", str(leg2), "--checkpoint-in", str(ckpt),
            )
            == 0
        )
        full_rows = full.read_text().splitlines()
        stitched = (
            leg1.read_text().splitlines()
            + leg2.read_text().splitlines()[1:]  # drop the second header
        )
        assert stitched == full_rows

    def test_missing_checkpoint_in_exits_one(self, capsys):
        assert run_cli("run", "--checkpoint-in", "/nonexistent.ckpt") == 1

    @pytest.mark.parametrize(
        "payload", ["v", "v 1 0x1p+99999", "iv 1 99999999999999999999999"]
    )
    def test_corrupt_checkpoint_in_exits_one_with_one_line(self, tmp_path, capsys, payload):
        path = tmp_path / "state.ckpt"
        assert run_cli("run", "--steps", "2", "--checkpoint-out", str(path)) == 0
        lines = [
            f"x={payload}" if line.startswith("x=") else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("run", "--steps", "2", "--checkpoint-in", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt section 'x': ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, payload",
        [("opt.primal.velocity", "v 6 nan inf 0 0 0 0"), ("opt.dual.norm.seen", "iv 1 5")],
        ids=["non-finite-velocity", "seen-not-0-or-1"],
    )
    def test_corrupt_optimizer_buffer_exits_one_with_one_line(
        self, tmp_path, capsys, key, payload
    ):
        flags = [
            "--problem", "norm_logreg", "--scheme", "alt-pd",
            "--primal-optimizer", "momentum", "--dual-optimizer", "nupi", "--steps", "2",
        ]
        path = tmp_path / "state.ckpt"
        assert run_cli("run", *flags, "--checkpoint-out", str(path)) == 0
        lines = path.read_text().splitlines()
        assert sum(line.startswith(key + "=") for line in lines) == 1
        path.write_text("\n".join(
            f"{key}={payload}" if line.startswith(key + "=") else line for line in lines
        ) + "\n")
        capsys.readouterr()
        assert run_cli("run", *flags, "--checkpoint-in", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: corrupt section '{key}': ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestEvaluateOnce:
    """`run` evaluates each committed point once (pure oracles, read-only x)."""

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize(
        "scheme, flags",
        [
            ("simultaneous", ()),
            ("alt-pd", ()),
            ("alt-dp", ()),
            ("extragradient", ()),
        ],
        ids=["simultaneous", "alt-pd", "alt-dp", "extragradient"],
    )
    def test_evaluations_per_run(self, scheme, flags, trace, tmp_path, monkeypatch, capsys):
        calls = []
        original = BenchmarkProblem.evaluate_with_gradients
        monkeypatch.setattr(
            BenchmarkProblem,
            "evaluate_with_gradients",
            lambda self, x: calls.append(1) or original(self, x),
        )
        steps = 10
        trace_flags = ["--trace", str(tmp_path / "t.csv")] if trace else []
        code = run_cli(
            "run", "--problem", "norm_logreg", "--steps", str(steps),
            "--scheme", scheme, *flags, *trace_flags,
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("final: ")
        # x_0 once, then each committed x_{t+1} once; extragradient adds its half-point
        per_step = 2 if scheme == "extragradient" else 1
        assert len(calls) == per_step * steps + 1

    @staticmethod
    def _counted_problem():
        # feasible below x = 1; the oracle reports a non-finite violation above it
        def cap(x):
            return np.array([np.inf if x[0] > 1.0 else x[0] - 1.0])

        block = ConstraintBlock(
            group=ConstraintGroup(name="cap", constraint_type=INEQ, size=1),
            function=DifferentiableFunction(
                eval=cap,
                val_jac=lambda x: (cap(x), np.ones((1, 1))),
                output_size=1,
                name="cap",
            ),
        )
        objective = DifferentiableFunction(
            eval=lambda x: np.array([0.5 * x[0] ** 2]),
            val_jac=lambda x: (np.array([0.5 * x[0] ** 2]), np.array([[x[0]]])),
            output_size=1,
            name="objective",
        )
        problem = BenchmarkProblem("capped", 1, objective, blocks=(block,))
        calls = []
        original = problem.evaluate_with_gradients
        problem.evaluate_with_gradients = lambda x: calls.append(1) or original(x)
        return problem, calls

    def test_committed_array_served_once(self):
        problem, calls = self._counted_problem()
        evaluate = cli._evaluator(problem)
        first = evaluate(problem.x)
        assert evaluate(problem.x) is first and len(calls) == 1

    def test_uncommitted_array_evaluated_each_time(self):
        problem, calls = self._counted_problem()
        evaluate = cli._evaluator(problem)
        x = np.array([0.5])
        first = evaluate(x)
        second = evaluate(x)
        assert second is not first and len(calls) == 2

    def test_set_x_copy_evaluated_again(self):
        problem, calls = self._counted_problem()
        evaluate = cli._evaluator(problem)
        first = evaluate(problem.x)
        problem.set_x(problem.x)  # stores a copy: a new committed object
        again = evaluate(problem.x)
        assert again is not first and len(calls) == 2
        assert again.state.loss == first.state.loss

    def test_failed_evaluation_not_stored(self):
        problem, calls = self._counted_problem()
        evaluate = cli._evaluator(problem)
        committed = evaluate(problem.x)
        x_next = np.array([2.0])
        with pytest.raises(EvaluationError):
            evaluate(x_next)
        assert len(calls) == 2
        # the failure left the slot as it was ...
        assert evaluate(problem.x) is committed and len(calls) == 2
        # ... and holds nothing for the failed point, even once it is committed
        problem._adopt(x_next)
        with pytest.raises(EvaluationError):
            evaluate(problem.x)
        assert len(calls) == 3


class TestParserOncePerProcess:
    def test_built_once_across_calls(self, capsys):
        cli._build_parser.cache_clear()
        for argv in (["list"], ["run", "--steps", "1"], ["run", "--nope"]):
            cli.main(argv)
        assert cli._build_parser.cache_info().misses == 1
        capsys.readouterr()

    def test_a_run_after_another_writes_what_it_writes_first(self, tmp_path, capsys):
        # nothing of an earlier parse, its flags or its values, reaches a later one
        outputs = []
        for name in ("first", "later"):
            cli._build_parser.cache_clear()
            if name == "later":
                assert run_cli("run", "--a=-1,2", "--scheme", "alt-dp", "--steps", "3") == 0
                capsys.readouterr()
            trace = tmp_path / f"{name}.csv"
            assert run_cli("run", "--steps", "20", "--trace", str(trace)) == 0
            outputs.append((capsys.readouterr(), trace.read_bytes()))
        assert outputs[0] == outputs[1]


class TestCheckGrad:
    def test_projection_ball_passes(self, capsys):
        assert run_cli("check-grad", "--problem", "projection_ball") == 0
        out = capsys.readouterr().out
        assert "objective:" in out and "ball:" in out
        assert "(pass)" in out and "FAIL" not in out

    def test_norm_logreg_passes(self, capsys):
        assert run_cli("check-grad", "--problem", "norm_logreg", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert out.count("(pass)") == 2

    def test_equality_qp_passes(self, capsys):
        assert run_cli("check-grad", "--problem", "equality_qp") == 0
        out = capsys.readouterr().out
        assert "objective:" in out and "linear:" in out
        assert "FAIL" not in out

    def test_broken_oracle_fails(self, capsys, monkeypatch):
        original = cli.problem_projection_ball

        def sabotage(a, **kw):
            problem = original(a, **kw)
            oracle = problem.oracle_functions()["objective"]
            broken = type(oracle)(
                eval=oracle.eval,
                val_jac=lambda x: (oracle.eval(x), -oracle.val_jac(x)[1]),  # wrong sign
                output_size=oracle.output_size,
                name=oracle.name,
            )
            problem.objective = broken
            return problem

        monkeypatch.setattr(cli, "problem_projection_ball", sabotage)
        code = run_cli("check-grad", "--problem", "projection_ball")
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_problem_exits_one(self, capsys):
        assert run_cli("check-grad", "--problem", "nosuch") == 1


class TestList:
    def test_contents(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        for token in (
            "projection_ball", "equality_qp", "norm_logreg", "bilinear",
            "simultaneous", "alt-pd", "alt-dp", "extragradient",
            "lagrangian", "augmented_lagrangian", "quadratic_penalty",
            "gd", "momentum", "adam", "gradient_ascent", "nupi",
        ):
            assert token in out


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        trace = tmp_path / "t.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "lagrangekit", "run",
                "--problem", "bilinear", "--steps", "1",
                "--lr-primal", "0.1", "--lr-dual", "0.1",
                "--trace", str(trace),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert trace.read_text().splitlines()[1].startswith("1,0,")

    def test_bad_flag_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lagrangekit", "run", "--steps", "abc"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_exit_code_propagates(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lagrangekit", "run", "--problem", "nosuch"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
