"""Closed-loop benchmark of the swda training workbench.

    python3 perfbench/run.py --workload single_shift --seed 0 --seconds 30 --trace 0

One client, one training run at a time: each run starts only after the
previous one has ended, as long as it is expected to end within
``--seconds`` (at least one run). Inputs are made
from ``--seed``; the program only ever sees the generated data.

Workloads (see perfbench/README.md for why each was chosen):
  single_shift      in-process train_single_target, 3000 iterations
  multi_between_j2  in-process train_multi_target, 3000 iterations, jobs=2
  cli_large_target  ``swda train-single`` as a subprocess, 1000 iterations
                    on 3600 + 3600 CSV rows

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced runs on the same inputs and reports the
per-layer metrics (see spans.py) and the tracing overhead. Human-readable
lines come first; the last line of standard output is one JSON object.
The program is run from ``src/`` of the checkout the script sits in; BLAS
threads are left at the library's default.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 9  # timed set-ups per run, after one untimed warm-up
CHILD_TIMEOUT_S = 170.0

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "final_accuracy": "frac",
}

CLI_MAIN = "import sys; from swda.cli import main; sys.exit(main(sys.argv[1:]))"


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, **kwargs
    )


def check_curves(metrics) -> float:
    """Loss curves finite and accuracy in [0, 1]; returns the accuracy."""
    for curve in (metrics.loss_ce, metrics.loss_im, metrics.loss_all, metrics.loss_sw):
        if len(curve) == 0 or not all(math.isfinite(v) for v in curve):
            raise CheckFailed("loss curve empty or not finite")
    acc = metrics.final_accuracy
    if acc is None or not 0.0 <= acc <= 1.0:
        raise CheckFailed(f"final accuracy {acc!r} outside [0, 1]")
    return acc


@dataclass
class Run:
    run_s: float
    cpu_s: float
    accuracy: float


# --- workloads ---------------------------------------------------------------


class InProcess:
    """A trainer called in this process on generated domains."""

    setup_code = ""  # imports swda and generates the inputs for seed argv[1]

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup_once(self) -> float:
        """Import plus data generation in a fresh interpreter, timed inside it."""
        code = (
            "import sys, time\nt0 = time.perf_counter()\n"
            + self.setup_code
            + "\nprint(time.perf_counter() - t0)\n"
        )
        proc = run_child([sys.executable, "-c", code, str(self.seed)])
        if proc.returncode != 0:
            raise CheckFailed(f"set-up failed: {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def run(self, tracer=None, **kwargs) -> Run:
        c0, t0 = self.cpu_s(), time.perf_counter()
        if tracer is None:
            acc = self.train(**kwargs)
        else:
            with spans.installed(tracer):
                acc = self.train(**kwargs)
        run_s = time.perf_counter() - t0
        return Run(run_s, self.cpu_s() - c0, acc)

    def cpu_s(self) -> float:
        return self_cpu_s()


class SingleShift(InProcess):
    setup_code = (
        "from swda.datasets import generate, standard_shift_spec\n"
        "import swda.pipeline\n"
        "generate(standard_shift_spec(int(sys.argv[1])))"
    )

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        from swda.config import ExperimentConfig
        from swda.datasets import generate, standard_shift_spec
        from swda.network import NetworkConfig

        self.source, self.target = generate(standard_shift_spec(seed))
        self.config = ExperimentConfig(network=NetworkConfig(8, 6), seed=seed, max_iterations=3000)

    def train(self) -> float:
        from swda import pipeline

        _, metrics, _ = pipeline.train_single_target(self.config, self.source, self.target)
        return check_curves(metrics)


class MultiBetween(InProcess):
    setup_code = (
        "from swda.datasets import make_between_geometry, standard_between_spec\n"
        "import swda.pipeline\n"
        "make_between_geometry(standard_between_spec(int(sys.argv[1])))"
    )

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        from swda.config import ExperimentConfig
        from swda.datasets import make_between_geometry, standard_between_spec
        from swda.network import NetworkConfig

        self.source, mid, far = make_between_geometry(standard_between_spec(seed))
        self.targets = [mid, far]
        self.config = ExperimentConfig(network=NetworkConfig(8, 6), seed=seed, max_iterations=3000)

    def cpu_s(self) -> float:
        return self_cpu_s() + spans.children_cpu_s()

    def peak_rss_mb(self) -> float:
        return max(peak_rss_mb(resource.RUSAGE_SELF), peak_rss_mb(resource.RUSAGE_CHILDREN))

    def train(self, jobs: int = 2) -> float:
        from swda import pipeline

        result = pipeline.train_multi_target(self.config, self.source, self.targets, jobs=jobs)
        return sum(check_curves(m) for _, m in result.per_target) / len(result.per_target)


class CliLargeTarget:
    """``swda train-single`` as a subprocess on CSVs written by ``swda generate``."""

    SAMPLES_PER_CLASS = 600
    ITERATIONS = 1000

    def __init__(self, seed: int, work: Path):
        from swda.datasets import load_csv, standard_shift_spec

        self.work = work
        shift = standard_shift_spec(seed)
        spec = {
            "num_classes": shift.num_classes,
            "input_dim": shift.input_dim,
            "samples_per_class": self.SAMPLES_PER_CLASS,
            "seed": seed,
            "transforms": [
                {
                    "rotation_deg": t.rotation_deg,
                    "translation": [float(v) for v in t.translation],
                    "noise_scale": t.noise_scale,
                    "class_skew": [float(v) for v in t.class_skew],
                }
                for t in shift.transforms
            ],
        }
        (work / "spec.json").write_text(json.dumps(spec))
        (work / "config.json").write_text(json.dumps({"max_iterations": self.ITERATIONS, "seed": seed}))
        data = work / "data"
        proc = run_child(
            [sys.executable, "-c", CLI_MAIN, "generate", "--spec", str(work / "spec.json"), "--out", str(data)]
        )
        if proc.returncode != 0:
            raise CheckFailed(f"swda generate exited {proc.returncode}: {proc.stderr.strip()}")
        self.source_csv, self.target_csv = data / "source.csv", data / "target1.csv"
        self.target = load_csv(self.target_csv)
        self.runs = 0

    def setup_once(self) -> float:
        """Interpreter start-up, import and load_csv of both files, timed from outside."""
        code = "import sys; from swda.cli import load_csv; load_csv(sys.argv[1]); load_csv(sys.argv[2])"
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", code, str(self.source_csv), str(self.target_csv)])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckFailed(f"set-up failed: {proc.stderr.strip()}")
        return elapsed

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def run(self, tracer=None) -> Run:
        self.runs += 1
        out = self.work / f"out{self.runs}"
        args = ["train-single", "--config", str(self.work / "config.json"),
                "--source", str(self.source_csv), "--target", str(self.target_csv), "--out", str(out)]
        trace_path = self.work / f"trace{self.runs}.json"
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            cmd = [sys.executable, str(Path(spans.__file__).resolve()), str(trace_path), *args]
        c0, t0 = spans.children_cpu_s(), time.perf_counter()
        proc = run_child(cmd)
        run_s = time.perf_counter() - t0
        cpu_s = spans.children_cpu_s() - c0
        try:
            if proc.returncode != 0:
                raise CheckFailed(f"swda train-single exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            acc = self.check_outputs(out, proc.stdout)
            if tracer is not None:
                doc = json.loads(trace_path.read_text())
                tracer.merge(doc)
                tracer.counts["cli.import_s"] += doc["import_s"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
            trace_path.unlink(missing_ok=True)
        return Run(run_s, cpu_s, acc)

    def check_outputs(self, out: Path, stdout: str) -> float:
        from swda.checkpoint import load_params
        from swda.pipeline import evaluate

        prefix = "final target accuracy: "
        printed = [line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix)]
        if len(printed) != 1:
            raise CheckFailed("no final accuracy line on stdout")
        acc = float(printed[0])
        try:
            doc = json.loads((out / "metrics.json").read_text())
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"metrics.json does not parse: {exc}")
        for key in ("loss_ce", "loss_im", "loss_all", "loss_sw"):
            if not doc[key] or not all(math.isfinite(v) for v in doc[key]):
                raise CheckFailed(f"metrics.json {key} empty or not finite")
        if doc["final_accuracy"] != acc or not 0.0 <= acc <= 1.0:
            raise CheckFailed(f"metrics.json accuracy {doc['final_accuracy']!r} vs printed {acc!r}")
        reloaded = evaluate(load_params(out / "checkpoint.txt"), self.target)
        if reloaded != acc:
            raise CheckFailed(f"checkpoint evaluates to {reloaded!r}, printed {acc!r}")
        return acc


WORKLOADS = {
    "single_shift": SingleShift,
    "multi_between_j2": MultiBetween,
    "cli_large_target": CliLargeTarget,
}


# --- environment ---------------------------------------------------------------


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_revision": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True,
        )
        if rev.returncode == 0:
            env["git_revision"] = rev.stdout.strip()
            env["git_dirty"] = bool(dirty.stdout.strip())
    return env


# --- measurement ---------------------------------------------------------------


def measure_setup(workload) -> list:
    workload.setup_once()  # fills the bytecode and file caches
    return [workload.setup_once() for _ in range(SETUP_REPEATS)]


def closed_loop(seconds: float, step) -> tuple:
    """Call ``step()`` back to back, at least once, while the next call is
    expected to end within ``seconds``; returns (attempted, failed). A step
    that raises counts as failed."""
    attempted, failed = 0, 0
    start = time.perf_counter()
    while True:
        attempted += 1
        try:
            step()
        except Exception:  # the loop must go on to count every failure
            failed += 1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if elapsed * (attempted + 1) / attempted > seconds:
            return attempted, failed


def same_accuracy(runs: list) -> None:
    """The same inputs must give the same final accuracy, traced or not."""
    accuracies = sorted({r.accuracy for r in runs})
    if len(accuracies) > 1:
        raise CheckFailed(f"final accuracy differs between runs on the same inputs: {accuracies}")


def end_to_end(workload, seconds: float) -> tuple:
    setups = measure_setup(workload)
    runs = []

    def step():
        run = workload.run()
        same_accuracy(runs[:1] + [run])
        runs.append(run)

    attempted, failed = closed_loop(seconds, step)
    if not runs:
        raise CheckFailed("no run succeeded")
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.run_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": workload.peak_rss_mb(),
        "final_accuracy": runs[0].accuracy,
    }
    print(f"set-up samples (s): {[round(s, 4) for s in setups]}")
    print(f"run_s samples: {[round(r.run_s, 4) for r in runs]}")
    print(f"cpu_s samples: {[round(r.cpu_s, 4) for r in runs]}")
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, attempted, failed


def traced(workload, seconds: float) -> tuple:
    """Untraced and traced runs back to back on the same inputs.

    For multi_between_j2 the pool phases are traced in the parent of a
    jobs=2 run; worker spans are lost with the workers, so the inner layers
    come from a traced jobs=1 run on the same inputs."""
    multi = isinstance(workload, MultiBetween)
    tracer, inner = spans.Tracer(), spans.Tracer()
    plain, traced_runs, inner_runs = [], [], []

    def step():
        plain.append(workload.run())
        traced_runs.append(workload.run(tracer))
        if multi:
            inner_runs.append(workload.run(inner, jobs=1))
        same_accuracy(plain + traced_runs + inner_runs)

    attempted, failed = closed_loop(seconds, step)
    runs = len(traced_runs)
    if failed:  # a failed step leaves partial spans behind
        raise CheckFailed(f"{failed} of {attempted} traced steps failed")

    traced_s = sum(r.run_s for r in traced_runs) / runs
    plain_s = sum(r.run_s for r in plain) / runs
    import_s = tracer.counts["cli.import_s"] / runs
    other_s = traced_s - import_s - tracer.covered_s() / runs
    if other_s < -1e-6:
        raise CheckFailed(f"spans cover more than the run: other_s={other_s}")
    metrics = spans.layer_metrics(inner if multi else tracer, runs)
    metrics.update({
        "pipeline.part1_s": (spans.phase_s(tracer, "pipeline.part1", runs), "s"),
        "pipeline.part3_s": (spans.phase_s(tracer, "pipeline.part3", runs), "s"),
        "pipeline.pool.busy_frac": (spans.ratio(tracer, "pipeline.pool.busy_frac"), "frac"),
        "pipeline.other_s": (other_s, "s"),
        "cli.import_s": (import_s, "s"),
        "trace.run_s": (traced_s, "s"),
        "trace.untraced_run_s": (plain_s, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    })
    if multi:
        print("inner-layer metrics come from a traced jobs=1 run on the same inputs; "
              "pipeline.part*_s, pool.busy_frac, other_s and trace.* from the jobs=2 run")
    return metrics, attempted * (3 if multi else 2), failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        measure = traced if trace else end_to_end
        try:
            metrics, attempted, failed = measure(workload, seconds)
        except CheckFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    stats.check_metric_names(metrics)
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {name} seed {seed}: {attempted} runs, {failed} failed, "
          f"failed_frac = {failed / attempted:.4f}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn, each ending with its own JSON line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swda" / "__init__.py").is_file():
        print(f"error: no swda sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swda

    if Path(swda.__file__).resolve().parent != (SRC / "swda").resolve():
        print(f"error: imported swda from {swda.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":  # one process per workload keeps peak RSS and rusage apart
        return max(
            subprocess.call([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)])
            for name in WORKLOADS
        )
    # a terminated benchmark still cleans up and joins its pool workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
