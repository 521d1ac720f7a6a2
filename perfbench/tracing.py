"""Per-layer measurement from outside the library: spans and call counts.

``Spans`` wraps public entry points of lagrangekit (module attributes that
the library looks up at call time, and methods of the instances a workload
builds) and records one span per call in memory. Self time is a span's
duration minus the time covered by its child spans.

``CallCounter`` uses ``sys.setprofile`` to count Python-level ``call`` events
per lagrangekit module, Python-level calls of numpy functions, and ``c_call`` events
of numpy's C functions and ndarray methods. Calls of ufuncs (``np.isfinite``,
``np.maximum``) and of numpy's C array-function dispatchers (``np.dot``) raise
no profile event, so they are invisible to this count.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from lagrangekit import checkpoint, cli, optim

# modules with calls at step time (_backend only runs at import)
LAYERS = ("core", "problems", "formulations", "gradients", "multipliers", "optim",
          "_kernels", "checkpoint", "cli")

# span name -> per-layer metric it is accounted to
SPAN_LAYER = {
    "problems.evaluate": "problems.evaluate_us",
    "problems.kkt": "problems.kkt_us",
    "optim.assemble": "optim.assemble_us",
    "optim.roll": "optim.roll_self_us",
    "core.set_x": "core.set_x_us",
    "formulations.contribution": "formulations.contribution_us",
    "formulations.assemble_lagrangian": "formulations.contribution_us",
    "gradients.compose": "gradients.compose_us",
    "multipliers.update": "multipliers.update_us",
    "optim.primal_update": "optim.primal_update_us",
    "optim.dual_update": "optim.dual_update_us",
    "checkpoint.save": "checkpoint.save_us",
    "checkpoint.load": "checkpoint.load_us",
    "loop": "loop.self_us",
}
# inclusive time of these spans directly under the loop span is the observation row
OBSERVE_SPANS = ("problems.evaluate", "optim.assemble", "problems.kkt")
# file-system calls with rare long stalls: reported as the median per call
PER_CALL_SPANS = ("checkpoint.save", "checkpoint.load")


class Spans:
    """In-memory span recorder; ``fold`` turns an episode's spans into totals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.per_call = defaultdict(list)  # self seconds of each PER_CALL_SPANS call
        self.observe_s = 0.0
        self.observations = 0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.self_s[name] += end - start - child[i]
            self.calls[name] += 1
            if name in PER_CALL_SPANS:
                self.per_call[name].append(end - start - child[i])
            if parent >= 0 and spans[parent][0] == "loop" and name in OBSERVE_SPANS:
                self.observe_s += end - start
                self.observations += name == "problems.kkt"
        spans.clear()

    # -- instrumentation ----------------------------------------------------

    def instrument_problem(self, problem) -> None:
        problem.set_x = self.wrap("core.set_x", problem.set_x)
        for group in problem.groups.values():
            self.instrument_multiplier(group.multiplier)

    def instrument_multiplier(self, mult) -> None:
        if mult is not None:
            mult.preview_delta = self.wrap("multipliers.update", mult.preview_delta)
            mult.apply_dual_delta = self.wrap("multipliers.update", mult.apply_dual_delta)

    def instrument_optimizers(self, optimizers) -> None:
        primal = optimizers.primal
        primal.step = self.wrap("optim.primal_update", primal.step)
        primal.commit = self.wrap("optim.primal_update", primal.commit)
        for dual in optimizers.duals.values():
            dual.step = self.wrap("optim.dual_update", dual.step)
            dual.commit = self.wrap("optim.dual_update", dual.commit)

    def patch_modules(self) -> list:
        """Wrap module attributes; returns (module, name, original) to restore."""
        targets = [
            (optim, "assemble", "optim.assemble"),
            (optim, "group_contribution", "formulations.contribution"),
            (optim, "assemble_lagrangian", "formulations.assemble_lagrangian"),
            (optim, "compose_primal_gradient", "gradients.compose"),
            (optim, "multiplier_values_for", "multipliers.update"),
            (cli, "roll", "optim.roll"),
            (cli, "assemble", "optim.assemble"),
            (cli, "current_kkt_residual", "problems.kkt"),
            (checkpoint, "save", "checkpoint.save"),
            (checkpoint, "load", "checkpoint.load"),
        ]
        saved = []
        for module, attr, span in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        # the CLI builds its problem and optimizers itself: instrument them as built
        for attr, hook in (
            ("problem_norm_constrained_logreg", self._built_problem),
            ("PrimalDualOptimizers", self._built_optimizers),
        ):
            original = getattr(cli, attr)
            saved.append((cli, attr, original))
            setattr(cli, attr, hook(original))
        return saved

    def _built_problem(self, factory):
        def build(*args, **kwargs):
            problem = factory(*args, **kwargs)
            self.instrument_problem(problem)
            problem.evaluate_with_gradients = self.wrap(
                "problems.evaluate", problem.evaluate_with_gradients
            )
            return problem

        return build

    def _built_optimizers(self, cls):
        def build(*args, **kwargs):
            optimizers = cls(*args, **kwargs)
            self.instrument_optimizers(optimizers)
            return optimizers

        return build


def restore(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


class CallCounter:
    """Counts profile events per lagrangekit module and for numpy while active."""

    def __init__(self):
        self.counts = defaultdict(int)

    def _profile(self, frame, event, arg):
        if event == "call":
            # attributed by the frame's globals, so the __init__ that dataclasses
            # generate counts for the module that defines the class
            module = frame.f_globals.get("__name__", "")
            if module.startswith("lagrangekit."):
                self.counts[module[12:]] += 1
            elif module.startswith("numpy"):
                self.counts["numpy_py"] += 1
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or type(
                getattr(arg, "__self__", None)
            ).__module__
            if module.startswith("numpy"):
                self.counts["numpy_c"] += 1

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False
