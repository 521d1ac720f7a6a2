"""Checkpoint round trips, resume equivalence, and corruption handling."""

import os
import tracemalloc

import numpy as np
import pytest

from lagrangekit import (
    AdamLike,
    Evaluation,
    GradientAscent,
    GradientDescent,
    Momentum,
    NuPI,
    PenaltyCoefficient,
    PrimalDualOptimizers,
    checkpoint,
    make_dual_optimizers,
    problem_equality_qp,
    problem_projection_ball,
    roll,
)
from lagrangekit.checkpoint import CheckpointError


def ball_setup(indexed=False, formulation="lagrangian", penalty=None):
    problem = problem_projection_ball(
        np.array([3.0, 4.0]),
        formulation=formulation,
        penalty=penalty,
        indexed=indexed,
    )
    optimizers = PrimalDualOptimizers(
        primal=Momentum(0.05, beta=0.9),
        duals=make_dual_optimizers(problem, lambda: NuPI(0.05)),
    )
    return problem, optimizers


class TestRoundTrip:
    def test_fresh_state_survives(self, tmp_path):
        path = tmp_path / "state.ckpt"
        problem, optimizers = ball_setup()
        checkpoint.save(problem, optimizers, path)

        other_problem, other_optimizers = ball_setup()
        other_problem.set_x(np.array([9.0, 9.0]))
        step = checkpoint.load(path, other_problem, other_optimizers)
        assert step == 0
        assert other_problem.x.tolist() == [0.0, 0.0]

    def test_save_is_deterministic(self, tmp_path):
        problem, optimizers = ball_setup()
        for _ in range(3):
            roll(problem, optimizers)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save(problem, optimizers, p1)
        checkpoint.save(problem, optimizers, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_bytes_identical(self, tmp_path):
        problem, optimizers = ball_setup()
        for _ in range(5):
            roll(problem, optimizers)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save(problem, optimizers, p1)

        fresh_problem, fresh_optimizers = ball_setup()
        checkpoint.load(p1, fresh_problem, fresh_optimizers)
        checkpoint.save(fresh_problem, fresh_optimizers, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_matches_uninterrupted_run_bitwise(self, tmp_path):
        path = tmp_path / "mid.ckpt"
        straight_problem, straight_optimizers = ball_setup()
        for _ in range(5):
            roll(straight_problem, straight_optimizers, scheme="extragradient")

        split_problem, split_optimizers = ball_setup()
        for _ in range(3):
            roll(split_problem, split_optimizers, scheme="extragradient")
        checkpoint.save(split_problem, split_optimizers, path)

        resumed_problem, resumed_optimizers = ball_setup()
        step = checkpoint.load(path, resumed_problem, resumed_optimizers)
        assert step == 3
        for _ in range(2):
            roll(resumed_problem, resumed_optimizers, scheme="extragradient")

        assert resumed_problem.x.tobytes() == straight_problem.x.tobytes()
        assert (
            resumed_problem.group("ball").multiplier.values.tobytes()
            == straight_problem.group("ball").multiplier.values.tobytes()
        )
        assert resumed_optimizers.step == straight_optimizers.step
        for key, value in straight_optimizers.primal.buffer_state().items():
            other = resumed_optimizers.primal.buffer_state()[key]
            assert np.asarray(other).tobytes() == np.asarray(value).tobytes(), key

    def test_adam_time_counter_round_trips(self, tmp_path):
        path = tmp_path / "adam.ckpt"
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        optimizers = PrimalDualOptimizers(
            primal=AdamLike(0.01),
            duals=make_dual_optimizers(problem, lambda: GradientAscent(0.01)),
        )
        for _ in range(4):
            roll(problem, optimizers)
        checkpoint.save(problem, optimizers, path)

        fresh_problem = problem_projection_ball(np.array([3.0, 4.0]))
        fresh_optimizers = PrimalDualOptimizers(
            primal=AdamLike(0.01),
            duals=make_dual_optimizers(fresh_problem, lambda: GradientAscent(0.01)),
        )
        checkpoint.load(path, fresh_problem, fresh_optimizers)
        assert fresh_optimizers.primal.buffer_state()["t"] == 4

    def test_adam_infinite_second_moment_resumes_bitwise(self, tmp_path):
        # a finite gradient entry above ~1.3e154 squares to inf: the roll commits
        # v = inf (its step there is 0, so x stays finite) and the file holds 'inf'
        def setup():
            problem = problem_projection_ball(np.array([3.0, 4.0]))
            optimizers = PrimalDualOptimizers(
                primal=AdamLike(0.01),
                duals=make_dual_optimizers(problem, lambda: GradientAscent(0.01)),
            )
            return problem, optimizers

        def huge_gradient(problem):
            def evaluate(x):
                ev = problem.evaluate_with_gradients(x)
                grad_f = np.array([1e160, ev.grad_f[1]])
                return Evaluation(state=ev.state, grad_f=grad_f, jacobians=ev.jacobians)
            return evaluate

        straight, straight_optimizers = setup()
        with np.errstate(over="ignore"):
            roll(straight, straight_optimizers, evaluate=huge_gradient(straight))
        assert straight_optimizers.primal.v[0] == np.inf
        path = tmp_path / "inf.ckpt"
        checkpoint.save(straight, straight_optimizers, path)
        assert "opt.primal.v=v 2 inf " in path.read_text()

        resumed, resumed_optimizers = setup()
        checkpoint.load(path, resumed, resumed_optimizers)
        assert _state_bytes(resumed, resumed_optimizers) == _state_bytes(
            straight, straight_optimizers
        )
        for problem, optimizers in ((straight, straight_optimizers), (resumed, resumed_optimizers)):
            for _ in range(3):
                roll(problem, optimizers)
        assert _state_bytes(resumed, resumed_optimizers) == _state_bytes(
            straight, straight_optimizers
        )

    def test_vector_penalty_round_trips(self, tmp_path):
        path = tmp_path / "pen.ckpt"
        problem, optimizers = ball_setup(
            formulation="augmented_lagrangian",
            penalty=PenaltyCoefficient(np.array([2.5])),
        )
        roll(problem, optimizers)
        checkpoint.save(problem, optimizers, path)

        fresh_problem, fresh_optimizers = ball_setup(
            formulation="augmented_lagrangian", penalty=PenaltyCoefficient(1.0)
        )
        checkpoint.load(path, fresh_problem, fresh_optimizers)
        pen = fresh_problem.group("ball").penalty
        assert not pen.is_scalar
        assert pen.value.tolist() == [2.5]

    def test_float_penalty_assigned_after_construction_round_trips(self, tmp_path):
        # the assignment stores a PenaltyCoefficient, so save can encode it
        path = tmp_path / "float-pen.ckpt"
        problem, optimizers = ball_setup(formulation="augmented_lagrangian", penalty=1.0)
        problem.group("ball").penalty = 2.0
        for _ in range(3):
            roll(problem, optimizers)
        checkpoint.save(problem, optimizers, path)
        assert f"groups.ball.penalty=f {(2.0).hex()}" in path.read_text()

        fresh_problem, fresh_optimizers = ball_setup(
            formulation="augmented_lagrangian", penalty=1.0
        )
        checkpoint.load(path, fresh_problem, fresh_optimizers)
        assert fresh_problem.group("ball").penalty.value == 2.0
        assert _state_bytes(fresh_problem, fresh_optimizers) == _state_bytes(problem, optimizers)
        for pair in ((problem, optimizers), (fresh_problem, fresh_optimizers)):
            for _ in range(3):
                roll(*pair)
        assert _state_bytes(fresh_problem, fresh_optimizers) == _state_bytes(problem, optimizers)

    def test_indexed_update_counters_round_trip(self, tmp_path):
        path = tmp_path / "idx.ckpt"
        problem, optimizers = ball_setup(indexed=True)
        for _ in range(3):
            roll(problem, optimizers)
        checkpoint.save(problem, optimizers, path)

        fresh_problem, fresh_optimizers = ball_setup(indexed=True)
        checkpoint.load(path, fresh_problem, fresh_optimizers)
        assert fresh_problem.group("ball").multiplier.update_count.tolist() == (
            problem.group("ball").multiplier.update_count.tolist()
        )


class TestFileFormat:
    def test_header_and_sorted_keys(self, tmp_path):
        path = tmp_path / "fmt.ckpt"
        problem, optimizers = ball_setup()
        checkpoint.save(problem, optimizers, path)
        lines = path.read_text().splitlines()
        assert lines[0] == checkpoint.MAGIC
        keys = [line.split("=", 1)[0] for line in lines[1:]]
        assert keys == sorted(keys)
        assert "step" in keys and "x" in keys
        assert "groups.ball.multiplier" in keys

    def test_signature_embeds_dim_and_groups(self):
        problem, _ = ball_setup()
        sig = checkpoint.problem_signature(problem)
        assert sig.startswith("dim=2;")
        assert "ball:inequality:1:lagrangian" in sig


class TestValidation:
    def make_file(self, tmp_path):
        path = tmp_path / "base.ckpt"
        problem, optimizers = ball_setup()
        for _ in range(2):
            roll(problem, optimizers)
        checkpoint.save(problem, optimizers, path)
        return path

    def test_signature_mismatch_names_difference(self, tmp_path):
        path = self.make_file(tmp_path)
        other = problem_equality_qp(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        optimizers = PrimalDualOptimizers(
            primal=Momentum(0.05, beta=0.9),
            duals=make_dual_optimizers(other, lambda: NuPI(0.05)),
        )
        with pytest.raises(CheckpointError, match="ball|linear"):
            checkpoint.load(path, other, optimizers)

    def test_group_size_mismatch_names_group(self, tmp_path):
        # same group id "linear" but two constraint rows instead of one
        def qp(rows):
            A = np.array([[1.0, 1.0]]) if rows == 1 else np.array(
                [[1.0, 1.0], [1.0, -1.0]]
            )
            c = np.array([2.0]) if rows == 1 else np.array([2.0, 0.0])
            problem = problem_equality_qp(np.eye(2), np.zeros(2), A, c)
            optimizers = PrimalDualOptimizers(
                primal=Momentum(0.05, beta=0.9),
                duals=make_dual_optimizers(problem, lambda: NuPI(0.05)),
            )
            return problem, optimizers

        path = tmp_path / "one.ckpt"
        problem, optimizers = qp(1)
        checkpoint.save(problem, optimizers, path)
        target, target_optimizers = qp(2)
        with pytest.raises(CheckpointError, match="linear"):
            checkpoint.load(path, target, target_optimizers)

    def test_dim_mismatch_named(self, tmp_path):
        path = tmp_path / "three.ckpt"
        problem = problem_projection_ball(np.array([1.0, 1.0, 1.0]))
        optimizers = PrimalDualOptimizers(
            primal=Momentum(0.05, beta=0.9),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.05)),
        )
        checkpoint.save(problem, optimizers, path)
        target, target_optimizers = ball_setup()
        with pytest.raises(CheckpointError, match="dim"):
            checkpoint.load(path, target, target_optimizers)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text().replace("version=i 1", "version=i 2")
        path.write_text(text)
        problem, optimizers = ball_setup()
        with pytest.raises(CheckpointError, match="version"):
            checkpoint.load(path, problem, optimizers)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("NOT-A-CHECKPOINT\n")
        problem, optimizers = ball_setup()
        with pytest.raises(CheckpointError):
            checkpoint.load(path, problem, optimizers)

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "binary.ckpt"
        path.write_bytes(b"LAGRANGEKIT-CKPT v1\nx=\xff\n")
        problem, optimizers = ball_setup()
        with pytest.raises(CheckpointError, match="not a text checkpoint"):
            checkpoint.load(path, problem, optimizers)

    def test_truncated_file_leaves_target_untouched(self, tmp_path):
        path = self.make_file(tmp_path)
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])
        problem, optimizers = ball_setup()
        x_before = problem.x.copy()
        with pytest.raises(CheckpointError):
            checkpoint.load(path, problem, optimizers)
        assert problem.x.tolist() == x_before.tolist()
        assert optimizers.step == 0

    def test_missing_key_named(self, tmp_path):
        path = self.make_file(tmp_path)
        lines = [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("groups.ball.multiplier=")
        ]
        path.write_text("\n".join(lines) + "\n")
        problem, optimizers = ball_setup()
        with pytest.raises(CheckpointError, match="groups.ball.multiplier"):
            checkpoint.load(path, problem, optimizers)

    def test_extra_key_named(self, tmp_path):
        path = self.make_file(tmp_path)
        with open(path, "a") as handle:
            handle.write("zzz.unknown=i 5\n")
        problem, optimizers = ball_setup()
        with pytest.raises(CheckpointError, match="zzz.unknown"):
            checkpoint.load(path, problem, optimizers)

    def test_negative_multiplier_rejected(self, tmp_path):
        path = self.make_file(tmp_path)
        lines = path.read_text().splitlines()
        out = []
        for line in lines:
            if line.startswith("groups.ball.multiplier="):
                out.append("groups.ball.multiplier=v " + (-1.0).hex())
            else:
                out.append(line)
        path.write_text("\n".join(out) + "\n")
        problem, optimizers = ball_setup()
        with pytest.raises(CheckpointError):
            checkpoint.load(path, problem, optimizers)

    def test_corrupt_payload_reports_section(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text().replace("step=i 2", "step=i banana")
        path.write_text(text)
        problem, optimizers = ball_setup()
        with pytest.raises(CheckpointError, match="step"):
            checkpoint.load(path, problem, optimizers)

    def test_optimizer_family_mismatch_rejected(self, tmp_path):
        path = self.make_file(tmp_path)  # momentum primal
        problem = problem_projection_ball(np.array([3.0, 4.0]))
        optimizers = PrimalDualOptimizers(
            primal=GradientDescent(0.05),
            duals=make_dual_optimizers(problem, lambda: NuPI(0.05)),
        )
        with pytest.raises(CheckpointError):
            checkpoint.load(path, problem, optimizers)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: lines + [next(line for line in lines if line.startswith("step="))],
                "corrupt section 'step': duplicate key",
            ),
            (
                lambda lines: [line for line in lines if not line.startswith("version=")],
                "corrupt section 'version': missing",
            ),
            (
                lambda lines: [line for line in lines if not line.startswith("signature=")],
                "corrupt section 'signature': missing",
            ),
            (
                lambda lines: [
                    "groups.ball.multiplier=v 1 0x0p+0"
                    if line == "groups.ball.multiplier=absent" else line
                    for line in lines
                ],
                "corrupt section 'groups.ball.multiplier': group has no multiplier",
            ),
        ],
        ids=["duplicate-key", "no-version", "no-signature", "multiplier-of-a-penalty-group"],
    )
    def test_malformed_file_rejected_with_state_untouched(self, tmp_path, edit, message):
        def setup():
            return ball_setup(formulation="quadratic_penalty", penalty=2.0)

        path = tmp_path / "state.ckpt"
        source, source_optimizers = setup()
        for _ in range(2):
            roll(source, source_optimizers)
        checkpoint.save(source, source_optimizers, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        target, target_optimizers = setup()
        roll(target, target_optimizers)
        before = _state_bytes(target, target_optimizers)
        with pytest.raises(CheckpointError) as info:
            checkpoint.load(path, target, target_optimizers)
        assert str(info.value) == message
        assert _state_bytes(target, target_optimizers) == before

    def test_failed_save_leaves_no_file(self, tmp_path):
        problem, optimizers = ball_setup()
        missing_dir = tmp_path / "not" / "there" / "state.ckpt"
        with pytest.raises(OSError):
            checkpoint.save(problem, optimizers, missing_dir)
        assert not missing_dir.exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "clean.ckpt"
        problem, optimizers = ball_setup()
        checkpoint.save(problem, optimizers, path)
        assert sorted(os.listdir(tmp_path)) == ["clean.ckpt"]


def _bytes(value):
    return None if value is None else np.asarray(value).tobytes()


def _state_bytes(problem, optimizers):
    """Every piece of state a load may touch, as bytes, for bitwise comparison."""
    snapshot = {"x": problem.x.tobytes(), "step": optimizers.step}
    for gid, group in problem.groups.items():
        mult = group.multiplier
        snapshot[f"{gid}.multiplier"] = _bytes(getattr(mult, "values", None))
        snapshot[f"{gid}.update_count"] = _bytes(getattr(mult, "update_count", None))
        snapshot[f"{gid}.penalty"] = _bytes(getattr(group.penalty, "value", None))
    for name, value in optimizers.primal.buffer_state().items():
        snapshot[f"primal.{name}"] = _bytes(value)
    for gid, dual in optimizers.duals.items():
        for name, value in dual.buffer_state().items():
            snapshot[f"dual.{gid}.{name}"] = _bytes(value)
    return snapshot


# (primal optimizer, key as written in the file, corrupt payload, key the error names)
CORRUPTIONS = [
    ("momentum", "x", "v 2 nan 0x0p+0", "x"),
    ("momentum", "x", "v 1 0x1p+0", "x"),
    ("momentum", "x", "iv 2 1 2", "x"),
    ("momentum", "groups.ball.multiplier", "v 1 nan", "groups.ball.multiplier"),
    ("momentum", "groups.ball.multiplier", "v 1 -0x1p+0", "groups.ball.multiplier"),
    ("momentum", "groups.ball.multiplier", "v 2 0x0p+0 0x0p+0", "groups.ball.multiplier"),
    ("momentum", "groups.ball.penalty", "f 0x0p+0", "groups.ball.penalty"),
    ("momentum", "groups.ball.penalty", "v 2 0x1p+0 0x1p+0", "groups.ball.penalty"),
    ("momentum", "groups.ball.update_count", "iv 1 -1", "groups.ball.update_count"),
    ("momentum", "groups.ball.update_count", "iv 2 1 1", "groups.ball.update_count"),
    ("momentum", "opt.primal.velocity", "v 1 0x1p+0", "opt.primal.velocity"),
    ("momentum", "opt.primal.velocity", "f 0x1p+0", "opt.primal.velocity"),
    ("momentum", "opt.primal.velocity", "v 2 nan inf", "opt.primal.velocity"),
    ("adam", "opt.primal.m", "v 2 0x0p+0 -inf", "opt.primal.m"),
    ("adam", "opt.primal.v", "v 2 nan 0x0p+0", "opt.primal.v"),
    ("adam", "opt.primal.v", "v 2 -inf 0x0p+0", "opt.primal.v"),
    ("adam", "opt.primal.v", "v 2 -0x1p+0 0x0p+0", "opt.primal.v"),
    ("momentum", "opt.dual.ball.ema", "v 1 nan", "opt.dual.ball.ema"),
    ("momentum", "opt.dual.ball.seen", "iv 1 5", "opt.dual.ball.seen"),
    ("momentum", "opt.dual.ball.seen", "iv 1 -1", "opt.dual.ball.seen"),
    ("adam", "opt.primal.t", "i -1", "opt.primal.t"),
    ("adam", "opt.primal.t", f"f {2.7.hex()}", "opt.primal.t"),
    ("adam", "opt.primal.v", "absent", "opt.primal"),  # m without v
    ("adam", "opt.primal.m", "absent", "opt.primal"),  # v without m
    ("adam", "opt.primal.t", "i 0", "opt.primal.t"),  # moments before the first step
    ("momentum", "x", "v", "x"),  # no count
    ("momentum", "x", "v 1 0x1p+99999", "x"),  # beyond float64
    (
        "momentum", "groups.ball.update_count", "iv 1 99999999999999999999999",
        "groups.ball.update_count",
    ),  # beyond int64
    ("momentum", "opt.dual.ball.ema", "absent", "opt.dual.ball"),
    # spellings int() takes that save never writes: only ASCII -?[0-9]+ is an integer
    ("momentum", "step", "i 0_3", "step"),
    ("momentum", "step", "i +3", "step"),
    ("momentum", "step", "i \u0663", "step"),  # an Arabic-Indic three
    ("momentum", "step", "i 3\t", "step"),
    ("momentum", "x", "v +2 0x0p+0 0x0p+0", "x"),
    ("momentum", "x", "v \u0662 0x0p+0 0x0p+0", "x"),
    ("momentum", "groups.ball.update_count", "iv 1 +1", "groups.ball.update_count"),
    ("momentum", "groups.ball.update_count", "iv 1 0_1", "groups.ball.update_count"),
    ("momentum", "groups.ball.update_count", "iv 1 \u0661", "groups.ball.update_count"),
    ("momentum", "groups.ball.update_count", "iv +1 1", "groups.ball.update_count"),
    ("momentum", "opt.dual.ball.seen", "iv 1 +1", "opt.dual.ball.seen"),
]


def test_integer_check_of_a_long_line_allocates_nothing():
    # one scan a line, by a character class: a regex group repeated per entry would
    # hold about 4 MB of backtracking state for a 20 000-entry line
    line = "iv 20000 " + " ".join(["12345"] * 20000)
    tracemalloc.start()
    try:
        assert checkpoint._DECIMAL.fullmatch(line, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "primal, key, payload, named",
    CORRUPTIONS,
    ids=[f"{key}={payload}" for _, key, payload, _ in CORRUPTIONS],
)
def test_corrupt_field_names_key_and_leaves_state_untouched(
    tmp_path, primal, key, payload, named
):
    def setup():
        problem = problem_projection_ball(
            np.array([3.0, 4.0]),
            formulation="augmented_lagrangian",
            penalty=PenaltyCoefficient(2.0),
            indexed=True,
        )
        optimizer = Momentum(0.05, beta=0.9) if primal == "momentum" else AdamLike(0.05)
        optimizers = PrimalDualOptimizers(
            primal=optimizer, duals=make_dual_optimizers(problem, lambda: NuPI(0.05))
        )
        return problem, optimizers

    path = tmp_path / "state.ckpt"
    source, source_optimizers = setup()
    for _ in range(2):
        roll(source, source_optimizers)
    checkpoint.save(source, source_optimizers, path)
    lines = path.read_text().splitlines()
    matching = [i for i, line in enumerate(lines) if line.startswith(key + "=")]
    assert len(matching) == 1
    lines[matching[0]] = f"{key}={payload}"
    path.write_text("\n".join(lines) + "\n")

    # the target has committed state of its own, distinct from the file's
    target, target_optimizers = setup()
    roll(target, target_optimizers)
    before = _state_bytes(target, target_optimizers)
    with pytest.raises(CheckpointError) as info:
        checkpoint.load(path, target, target_optimizers)
    assert repr(named) in str(info.value)
    assert _state_bytes(target, target_optimizers) == before


def test_adam_step_count_without_moments_is_corrupt(tmp_path):
    # m and v are absent only before the first step, so a later step count names the file corrupt
    def setup():
        problem, optimizers = ball_setup()
        return problem, PrimalDualOptimizers(primal=AdamLike(0.05), duals=optimizers.duals)

    path = tmp_path / "state.ckpt"
    source, source_optimizers = setup()
    for _ in range(2):
        roll(source, source_optimizers)
    checkpoint.save(source, source_optimizers, path)
    moments = ("opt.primal.m=", "opt.primal.v=")
    lines = [line.split("=")[0] + "=absent" if line.startswith(moments) else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    target, target_optimizers = setup()
    roll(target, target_optimizers)
    before = _state_bytes(target, target_optimizers)
    with pytest.raises(CheckpointError) as info:
        checkpoint.load(path, target, target_optimizers)
    assert str(info.value) == (
        "corrupt section 'opt.primal.t': adam: t must be 0 exactly when m and v are absent, got 2"
    )
    assert _state_bytes(target, target_optimizers) == before
