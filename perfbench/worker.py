"""One benchmark worker process; ``run.py`` starts these one at a time.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

Modes: ``setup`` (time from before ``import lagrangekit`` to a ready
workload), ``measure`` (end-to-end metrics), ``trace`` (per-layer metrics),
``golden`` (digests of every instance, for ``golden.json``) and
``selfcheck`` (shows that a wrong digest, a raised EvaluationError and a
failed CLI invocation count as failed operations). The result is one JSON
object on the last line of standard output.
"""

import json
import sys
import time

if __name__ == "__main__" and sys.argv[1] == "setup":
    _t0 = time.perf_counter()
    import lagrangekit  # noqa: F401  (timed: the import is part of set-up)

import os
import resource
import statistics

import numpy as np

import lagrangekit as lk
from lagrangekit import checkpoint, cli, optim

import tracing
import workloads as W

clock = time.perf_counter


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)
        return ok

    def gate(self, digest: str, expected: str) -> bool:
        return self.op(digest == expected, f"digest {digest[:40]} != golden {expected[:16]}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _expected(golden, name, instance):
    return golden["digests"][name][str(instance)]


def _calibration(golden):
    ref = golden["calibration"]
    return W.Calibration(ref["x"], ref["lam"])


# ---------------------------------------------------------------------------
# roll workloads (W1-W3)


def roll_episode(wl, tally, expected, ckpt, evaluate=None, times=None):
    """One gated episode, no calibration; appends per-roll wall times to ``times``."""
    wl.reset()
    problem, optimizers, scheme = wl.problem, wl.optimizers, wl.scheme
    done = 0
    try:
        for _ in range(wl.steps):
            t0 = clock()
            lk.roll(problem, optimizers, scheme, evaluate=evaluate)
            if times is not None:
                times.append(clock() - t0)
            done += 1
    except Exception as exc:  # any failure of a step is counted, then the run goes on
        tally.attempted += done
        tally.op(False, f"step {done + 1}: {exc!r}")
        tally.op(False, "episode aborted")
        return False
    tally.attempted += done
    try:
        digest, _ = wl.gate(ckpt, evaluate=evaluate)
    except Exception as exc:
        return tally.op(False, f"gate: {exc!r}")
    return tally.gate(digest, expected)


class Samples:
    """Per-step wall times in blocks, each paired with a calibration block.

    A shared machine can have slow phases of a second or more in which every
    thread runs slower. Times and throughput are therefore taken from the
    quiet blocks: the tenth of blocks whose calibration steps ran fastest,
    widened until they hold ``MIN_QUIET`` steps. The selection looks only at
    the calibration, never at the workload's own times. ``step_rel_p50``
    needs no selection, as each block's ratio cancels the phase: it is the
    median over every block.
    """

    QUIET_SHARE = 0.1
    MIN_QUIET = 1000
    MAX_RATE = 50_000  # buffer capacity in steps per second of run

    def __init__(self, seconds):
        # filled up front, so peak RSS does not grow with the number of samples
        self.buf = np.full(int(seconds * self.MAX_RATE) + 10_000, np.nan)
        self.n = 0
        self.blocks = []  # (start, end, calibration median, work seconds, steps, ratio)

    def full(self) -> bool:
        return self.n >= len(self.buf)

    def add(self, times, calib_times, work_s, steps) -> None:
        times = times[: len(self.buf) - self.n]
        if not len(times):
            return
        c = statistics.median(calib_times)
        self.buf[self.n : self.n + len(times)] = times
        ratio = statistics.median(times) / c
        self.blocks.append((self.n, self.n + len(times), c, work_s, steps, ratio))
        self.n += len(times)

    def summary(self) -> dict:
        ranked = sorted(self.blocks, key=lambda block: block[2])
        quiet, pooled = [], 0
        for block in ranked:
            if len(quiet) >= self.QUIET_SHARE * len(ranked) and pooled >= self.MIN_QUIET:
                break
            quiet.append(block)
            pooled += block[1] - block[0]
        times = np.concatenate([self.buf[start:end] for start, end, *_ in quiet])
        p50, p99 = np.percentile(times, [50, 99])
        return {
            "samples": self.n,
            "quiet_samples": len(times),
            "blocks": len(self.blocks),
            "quiet_blocks": len(quiet),
            "step_us_p50": p50 * 1e6,
            "step_us_p99": p99 * 1e6,
            "step_rel_p50": statistics.median(b[5] for b in self.blocks),
            "steps_per_s": statistics.median(b[4] / b[3] for b in quiet),
        }


def _close(tally, calib, samples, episodes) -> dict:
    tally.attempted += calib.checks
    tally.failed += calib.failures
    if calib.failures:
        tally.errors.append("calibration step differs from W1's final state")
    return {
        **tally.as_dict(),
        **samples.summary(),
        "episodes": episodes,
        "calibration_checks": calib.checks,
        "peak_rss_mb": _rss_mb(),
    }


def measure_rolls(wl, golden, seconds, ckpt):
    """Each roll is timed on its own and followed by timed calibration steps."""
    tally = Tally()
    expected = _expected(golden, wl.name, wl.instance)
    calib = _calibration(golden)
    roll_episode(wl, tally, expected, ckpt)  # warm-up, gated but not timed
    samples = Samples(seconds)
    episodes = 0
    deadline = clock() + seconds
    while episodes == 0 or (clock() < deadline and not samples.full()):
        episodes += 1
        wl.reset()
        problem, optimizers, scheme = wl.problem, wl.optimizers, wl.scheme
        block_r, block_c = [], []
        done, ok = 0, True
        for _ in range(wl.steps):
            t0 = clock()
            try:
                lk.roll(problem, optimizers, scheme)
            except Exception as exc:
                tally.op(False, f"step {done + 1}: {exc!r}")
                ok = False
                break
            t1 = clock()
            block_r.append(t1 - t0)
            for _ in range(wl.calib_per_step):
                calib.step()
                t2 = clock()
                block_c.append(t2 - t1)
                t1 = t2
            done += 1
            if len(block_r) == wl.block:
                samples.add(block_r, block_c, sum(block_r), len(block_r))
                block_r, block_c = [], []
        tally.attempted += done
        if not ok:
            tally.op(False, "episode aborted")
            continue
        try:
            digest, _ = wl.gate(ckpt)
        except Exception as exc:
            tally.op(False, f"gate: {exc!r}")
            continue
        tally.gate(digest, expected)
    return _close(tally, calib, samples, episodes)


def _strip(obj, names):
    for name in names:
        obj.__dict__.pop(name, None)


def trace_rolls(wl, golden, seconds, ckpt):
    tally = Tally()
    expected = _expected(golden, wl.name, wl.instance)
    roll_episode(wl, tally, expected, ckpt)  # warm-up

    counter = tracing.CallCounter()
    wl.reset()
    for _ in range(wl.steps):
        with counter:
            wl.roll()
    tally.attempted += wl.steps
    try:
        tally.gate(wl.gate(ckpt)[0], expected)
    except Exception as exc:
        tally.op(False, f"gate: {exc!r}")

    spans = tracing.Spans()
    plain, traced = [0.0, 0], [0.0, 0]  # roll seconds, rolls
    sizes = []
    deadline = clock() + seconds
    while traced[1] == 0 or clock() < deadline:
        times = []
        roll_episode(wl, tally, expected, ckpt, times=times)
        plain[0] += sum(times)
        plain[1] += len(times)

        wl.reset()
        saved = spans.patch_modules()
        spans.instrument_problem(wl.problem)
        spans.instrument_optimizers(wl.optimizers)
        evaluate = spans.wrap("problems.evaluate", wl.problem.evaluate_with_gradients)
        roll = spans.wrap("optim.roll", lk.roll)
        kkt = spans.wrap("problems.kkt", lk.current_kkt_residual)

        def episode():
            problem, optimizers, scheme = wl.problem, wl.optimizers, wl.scheme
            for _ in range(wl.steps):
                t0 = clock()
                roll(problem, optimizers, scheme, evaluate=evaluate)
                traced[0] += clock() - t0
                traced[1] += 1
            return wl.gate(ckpt, evaluate=evaluate, assemble=optim.assemble, kkt=kkt,
                           save=checkpoint.save, load=checkpoint.load)

        try:
            digest, size = spans.wrap("loop", episode)()
            sizes.append(size)
        except Exception as exc:
            digest = f"failed: {exc!r}"
        finally:
            tracing.restore(saved)
            _strip(wl.problem, ("set_x",))
            for group in wl.problem.groups.values():
                _strip(group.multiplier, ("preview_delta", "apply_dual_delta"))
        spans.fold()
        tally.attempted += wl.steps
        tally.gate(digest, expected)
    return _layer_result(tally, spans, counter, traced, plain, wl.steps, sizes, wl)


# ---------------------------------------------------------------------------
# CLI workload (W4)


def cli_episode(wl, tally, expected, main=cli.main, load=checkpoint.load, after_leg=None):
    outputs = []
    for argv in wl.argv_legs:
        t0 = clock()
        code, text = wl.invoke(argv, main)
        elapsed = clock() - t0
        if not tally.op(code == 0, f"exit {code}: {text.strip()[-200:]}"):
            return False
        outputs.append(text)
        if after_leg is not None:
            after_leg(elapsed)
    try:
        digest = wl.gate(outputs, load=load)
    except Exception as exc:
        return tally.op(False, f"gate: {exc!r}")
    return tally.gate(digest, expected)


def _cli_reference(wl, golden, tally):
    code, digest = wl.reference()
    tally.op(code == 0, f"reference run exit {code}")
    return tally.gate(digest, _expected(golden, "cli_resume.reference", wl.instance))


def measure_cli(wl, golden, seconds):
    """Each invocation is a block; one calibration step runs before each roll.

    A CLI step is the time from the end of that calibration step to the next
    call of ``roll`` inside ``main``: the roll, the trace row and any
    checkpoint save. Besides the calibration step, the hook on ``cli.roll``
    only records times.
    """
    tally = Tally()
    expected = _expected(golden, wl.name, wl.instance)
    calib = _calibration(golden)
    _cli_reference(wl, golden, tally)  # warm-up and uninterrupted reference
    samples = Samples(seconds)
    entries, exits, calib_times, legs = [], [], [], []
    roll = cli.roll

    def calibrated_roll(*args, **kwargs):
        t0 = clock()
        calib.step()
        t1 = clock()
        entries.append(t0)
        exits.append(t1)
        calib_times.append(t1 - t0)
        return roll(*args, **kwargs)

    def after_leg(elapsed):
        legs.append(elapsed)
        steps = np.subtract(entries[1:], exits[:-1])
        samples.add(steps, calib_times, elapsed - sum(calib_times), wl.leg_steps)
        for stamps in (entries, exits, calib_times):
            stamps.clear()

    episodes = 0
    deadline = clock() + seconds
    cli.roll = calibrated_roll
    try:
        while episodes == 0 or (clock() < deadline and not samples.full()):
            episodes += 1
            for stamps in (entries, exits, calib_times):
                stamps.clear()
            cli_episode(wl, tally, expected, after_leg=after_leg)
    finally:
        cli.roll = roll
    return {**_close(tally, calib, samples, episodes), "cli_run_s": statistics.median(legs)}


def trace_cli(wl, golden, seconds):
    tally = Tally()
    expected = _expected(golden, wl.name, wl.instance)
    _cli_reference(wl, golden, tally)

    counter = tracing.CallCounter()

    def counted_main(argv):
        with counter:
            return cli.main(argv)

    cli_episode(wl, tally, expected, main=counted_main)

    spans = tracing.Spans()
    plain, traced = [0.0, 0], [0.0, 0]
    deadline = clock() + seconds
    while traced[1] == 0 or clock() < deadline:
        legs = []
        cli_episode(wl, tally, expected, after_leg=legs.append)
        plain[0] += sum(legs)
        plain[1] += len(legs) * wl.leg_steps

        saved = spans.patch_modules()
        legs = []
        try:
            cli_episode(wl, tally, expected, main=spans.wrap("loop", cli.main),
                        load=checkpoint.load, after_leg=legs.append)
        finally:
            tracing.restore(saved)
        spans.fold()
        traced[0] += sum(legs)
        traced[1] += len(legs) * wl.leg_steps
    size = os.path.getsize(wl.paths["leg2.ckpt"])
    return _layer_result(tally, spans, counter, traced, plain, wl.steps, [size], wl)


# ---------------------------------------------------------------------------
# per-layer result


def _layer_result(tally, spans, counter, traced, plain, counted_steps, sizes, wl):
    steps = traced[1]
    metrics = dict.fromkeys(tracing.SPAN_LAYER.values(), 0.0)
    for span, seconds in spans.self_s.items():
        metrics[tracing.SPAN_LAYER[span]] += seconds * 1e6 / steps
    for span in tracing.PER_CALL_SPANS:
        times = spans.per_call[span]
        metrics[tracing.SPAN_LAYER[span]] = statistics.median(times) * 1e6 if times else 0.0
    metrics["problems.evaluate_calls"] = spans.calls["problems.evaluate"] / steps
    metrics["observe.row_us"] = spans.observe_s * 1e6 / max(spans.observations, 1)
    metrics["checkpoint.bytes"] = float(statistics.median(sizes)) if sizes else 0.0
    for layer in tracing.LAYERS + ("numpy_c", "numpy_py"):
        metrics[f"calls.{layer}"] = counter.counts[layer] / counted_steps
    bytes_read, flops = W.computed_cost(wl)
    metrics["problems.computed_bytes_per_eval"] = bytes_read
    metrics["problems.computed_flops_per_eval"] = flops
    plain_rate = plain[1] / plain[0]
    traced_rate = traced[1] / traced[0]
    metrics["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    return {**tally.as_dict(), "traced_steps": steps, "metrics": metrics}


# ---------------------------------------------------------------------------
# golden digests and self-check


def record_golden(name, workdir):
    ckpt = os.path.join(workdir, "golden.ckpt")
    digests, extra = {}, {}
    if name == "ball_quickstart":
        instances = [0]  # W1 takes no input from the seed
    else:
        instances = range(W.INSTANCES)
    for instance in instances:
        wl = W.make(name, instance, workdir)
        if name == "cli_resume":
            code, ref = wl.reference()
            if code != 0:
                raise RuntimeError(f"reference run of instance {instance} exited {code}")
            extra[str(instance)] = ref
            outputs = [wl.invoke(argv)[1] for argv in wl.argv_legs]
            digests[str(instance)] = wl.gate(outputs)
            continue
        for _ in range(wl.steps):
            wl.roll()
        digests[str(instance)] = wl.gate(ckpt)[0]
        if name == "ball_quickstart":
            extra = {
                "x": [float(v).hex() for v in wl.problem.x],
                "lam": [float(v).hex() for v in wl.problem.group("ball").multiplier.values],
            }
    return {"digests": digests, "extra": extra}


def selfcheck(golden, workdir):
    """A wrong digest, a raised EvaluationError and a bad CLI flag must each count."""
    ckpt = os.path.join(workdir, "selfcheck.ckpt")
    wl = W.make("ball_quickstart", 0, workdir)
    expected = _expected(golden, wl.name, 0)
    results = {}

    tally = Tally()
    roll_episode(wl, tally, expected, ckpt)
    results["golden episode"] = (tally.failed == 0 and tally.attempted == wl.steps + 1)

    tally = Tally()
    roll_episode(wl, tally, "0" * 64, ckpt)
    results["wrong digest"] = tally.failed == 1

    calls = [0]

    def failing(x):
        calls[0] += 1
        if calls[0] == 10:
            raise lk.EvaluationError("injected failure", group_id="ball")
        return wl.problem.evaluate_with_gradients(x)

    tally = Tally()
    roll_episode(wl, tally, expected, ckpt, evaluate=failing)
    results["EvaluationError"] = tally.failed == 2 and tally.attempted == 11

    cw = W.make("cli_resume", 0, workdir)
    cw.argv_legs = [cw.argv_legs[0] + ["--lr-primal", "-1"]]
    tally = Tally()
    cli_episode(cw, tally, "")
    results["nonzero CLI exit"] = tally.failed == 1

    calib = _calibration(golden)
    calib.golden_x = calib.golden_x + 1e-9
    for _ in range(W.Calibration.STEPS):
        calib.step()
    results["calibration mismatch"] = calib.failures == 1
    return {"checks": results, "ok": all(results.values())}


def main(argv):
    mode, name, seed, seconds, workdir = argv[1:6]
    instance = W.instance_of(int(seed))
    if mode == "setup":
        W.make(name, instance, workdir)
        return {"setup_s": time.perf_counter() - _t0}
    if mode == "golden":
        return record_golden(name, workdir)
    golden = W.load_golden()
    if mode == "selfcheck":
        return selfcheck(golden, workdir)
    wl = W.make(name, instance, workdir)
    seconds = float(seconds)
    if mode == "measure":
        if name == "cli_resume":
            return measure_cli(wl, golden, seconds)
        return measure_rolls(wl, golden, seconds, os.path.join(workdir, "gate.ckpt"))
    if name == "cli_resume":
        return trace_cli(wl, golden, seconds)
    return trace_rolls(wl, golden, seconds, os.path.join(workdir, "gate.ckpt"))


if __name__ == "__main__":
    src = os.path.join(os.getcwd(), "src", "lagrangekit")
    if os.path.dirname(os.path.abspath(lk.__file__)) != src:
        sys.exit(f"lagrangekit imported from {lk.__file__}, not from {src}")
    print(json.dumps(main(sys.argv)))
