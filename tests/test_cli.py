"""Command line interface: subcommands, exit codes, trace files, resume."""

import json
import subprocess
import sys

import numpy as np
import pytest

from lagrangekit import cli

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
        ],
    )
    def test_non_finite_hyperparameter_exits_one(self, flags, capsys):
        assert run_cli("run", "--steps", "3", *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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

    def test_checkpoint_every_requires_out(self, capsys):
        assert run_cli("run", "--steps", "2", "--checkpoint-every", "1") == 1
        assert "checkpoint" in capsys.readouterr().err

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
                grad_row=lambda x, i: -oracle.grad_row(x, i),  # wrong sign
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

    def test_exit_code_propagates(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lagrangekit", "run", "--problem", "nosuch"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
