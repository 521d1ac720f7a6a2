"""lagrangekit benchmark: closed-loop workloads, golden-state gate, per-layer split.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload ball_quickstart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5      # every workload
    python3 perfbench/run.py --self-check       # failures do count in error_rate
    python3 perfbench/run.py --record-golden    # rewrite perfbench/golden.json

With ``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it runs the per-layer measurement instead. Each measurement runs in a worker
process (``worker.py``), started one at a time, with ``src`` on the path and
BLAS pinned to one thread. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The metric
definitions are in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ball_quickstart", "logreg_wide", "partial_rows", "cli_resume")
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"

END_TO_END = {
    "step_us_p50": "us",
    "step_rel_p50": "ratio",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"checkpoint.bytes": "B", "problems.computed_bytes_per_eval": "B",
                   "problems.computed_flops_per_eval": "flop", "trace.overhead_pct": "%"}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_us"):
        return "us"
    return "count"


class BenchError(RuntimeError):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(root, env, mode, workload, seed, seconds, workdir) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
            str(seed), str(seconds), workdir]
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{mode} worker for {workload} printed no result") from None


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root: str) -> str:
    probe = ("import json, numpy, lagrangekit; "
             "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']; "
             "print(json.dumps([numpy.__version__, blas.get('name'), blas.get('version'), "
             "lagrangekit.BACKEND]))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=root, env=worker_env(root),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import lagrangekit from src:\n{proc.stderr.strip()[-2000:]}")
    numpy_v, blas, blas_v, backend = json.loads(proc.stdout)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"env: python {platform.python_version()}  numpy {numpy_v}  {blas} {blas_v}  "
            f"blas_threads {BLAS_THREADS}  nproc {nproc}  backend {backend}  "
            f"commit {git_commit(root)}")


def measure(root, env, workload, seed, seconds, trace, workdir) -> dict:
    if trace:
        result = run_worker(root, env, "trace", workload, seed, seconds, workdir)
        metrics = result["metrics"]
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        setups = [run_worker(root, env, "setup", workload, seed, 0, workdir)["setup_s"]
                  for _ in range(SETUP_RUNS)]
        result = run_worker(root, env, "measure", workload, seed, seconds, workdir)
        metrics = {name: result[name] for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    return result


def print_table(workload, result, trace) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}  attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g}")
    if trace:
        print(f"   traced steps {result['traced_steps']}")
    else:
        print(f"   steps timed {result['samples']} (quiet {result['quiet_samples']})  "
              f"block pairs {result['blocks']} (quiet {result['quiet_blocks']})  "
              f"episodes {result['episodes']}  calibration checks {result['calibration_checks']}")
    for name, entry in result["metrics"].items():
        print(f"   {name:34s} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        # printed without a bound: too noisy here, or W4 only (README.md)
        print(f"   {'step_us_p99':34s} {result['step_us_p99']:.6g} us")
        if "cli_run_s" in result:
            print(f"   {'cli_run_s':34s} {result['cli_run_s']:.6g} s")
    for error in result["errors"]:
        print(f"   failure: {error}")


def record_golden(root, env, workdir) -> None:
    golden = {"calibration": {}, "digests": {}}
    for workload in WORKLOADS:
        result = run_worker(root, env, "golden", workload, 0, 0, workdir)
        golden["digests"][workload] = result["digests"]
        if workload == "ball_quickstart":
            golden["calibration"] = result["extra"]
        elif workload == "cli_resume":
            golden["digests"]["cli_resume.reference"] = result["extra"]
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote", os.path.join(HERE, "golden.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lagrangekit", "__init__.py")):
        print("error: run from the root of a lagrangekit checkout (no src/lagrangekit here)",
              file=sys.stderr)
        return 2
    scratch_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch_root)
    env = worker_env(root)
    try:
        if args.record_golden:
            record_golden(root, env, workdir)
            return 0
        if args.self_check:
            result = run_worker(root, env, "selfcheck", "ball_quickstart", 0, 0, workdir)
            for name, ok in result["checks"].items():
                print(f"self-check {name}: {'counted' if ok else 'NOT COUNTED'}")
            return 0 if result["ok"] else 1
        print(environment(root))
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in chosen:
            results[workload] = measure(root, env, workload, args.seed, args.seconds,
                                        args.trace, workdir)
            print_table(workload, results[workload], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": entry for w, r in results.items()
                   for name, entry in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
