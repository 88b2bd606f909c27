"""Per-layer tracing of swda from outside the package.

The tracer replaces public functions of the swda modules with timing
wrappers for the duration of a ``with installed(tracer):`` block. Modules
bind these names with from-imports, so each function is replaced in every
swda module that holds a reference to it (``forward`` lives in ``network``
but is also bound in ``pipeline``, ``scaffolding``, ``cli`` and the package
itself). Nothing inside ``src/`` knows about tracing.

Every wrapped call is a span. A span's busy time is its wall time; its self
time is busy time minus the part covered by spans it encloses, so the self
times of all spans plus the uncovered remainder add up to the run's wall time.

Run as a script, this module is the traced form of the ``swda`` command:

    python3 perfbench/spans.py TRACE_JSON swda-args...

It imports ``swda.cli`` (timing the import), runs ``main(swda-args)`` with
every layer traced, writes the spans to TRACE_JSON and exits with main's
exit code.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from collections import Counter

# (module, function) pairs wrapped in every module that binds them
LAYERS = (
    ("network", "forward"),
    ("network", "backward"),
    ("network", "sgd_step"),
    ("network", "add_trees"),
    ("losses", "cross_entropy"),
    ("losses", "info_max_loss"),
    ("losses", "adversarial_logit_loss"),
    ("losses", "strong_weak_loss"),
    ("repsets", "update_strong_set"),
    ("repsets", "compute_centroids"),
    ("repsets", "assign_pseudo_labels"),
    ("repsets", "update_weak_set"),
    ("repsets", "fuse"),
    ("repsets", "select_sw_batch"),
    ("repsets", "harvest_pseudo_strong"),
    ("scaffolding", "train_source_only"),
    ("scaffolding", "centroids_for_domains"),
    ("scaffolding", "build_distance_graph"),
    ("scaffolding", "replace_with_peers"),
    ("pipeline", "evaluate"),
    ("datasets", "load_csv"),
    ("checkpoint", "save_arrays"),
    ("cli", "_write_run_outputs"),
)

# the two process-pool phases of train_multi_target, keyed by task function
PHASES = {"_part1_task": "pipeline.part1", "_part3_task": "pipeline.part3"}

# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "losses.adversarial_logit_loss.gate_frac": ("gate.hits", "gate.rows"),
    "repsets.select_sw_batch.kept_frac": ("sw.kept", "sw.asked"),
    "repsets.update_weak_set.fill_frac": ("weak.filled", "weak.slots"),
    "scaffolding.replace_with_peers.swap_frac": ("peers.swapped", "peers.slots"),
    "pipeline.pool.busy_frac": ("pool.child_cpu_s", "pool.slot_s"),
}

# per-run totals of counters: metric -> (counter, unit)
TOTALS = {
    "network.forward.rows": ("forward.rows", "count"),
    "datasets.load_csv.rows": ("load_csv.rows", "count"),
    "checkpoint.save_arrays.bytes": ("save_arrays.bytes", "bytes"),
}


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _forward(counts, args, result):
    counts["forward.rows"] += result.probs.shape[0]


def _adversarial(counts, args, result):
    grad = result.grad_wrt_logits
    counts["gate.hits"] += int((grad != 0).sum())
    counts["gate.rows"] += grad.shape[0]


def _select(counts, args, result):
    counts["sw.kept"] += result.inputs.shape[0]
    counts["sw.asked"] += len(args[1])


def _weak(counts, args, result):
    counts["weak.filled"] += sum(e is not None for e in result.entries)
    counts["weak.slots"] += len(result.entries)


def _peers(counts, args, result):
    own = args[0].entries
    counts["peers.swapped"] += sum(a is not b for a, b in zip(own, result.entries))
    counts["peers.slots"] += len(own)


def _load_csv(counts, args, result):
    counts["load_csv.rows"] += result.n


def _save_arrays(counts, args, result):
    counts["save_arrays.bytes"] += os.path.getsize(args[0])


HOOKS = {
    "network.forward": _forward,
    "losses.adversarial_logit_loss": _adversarial,
    "repsets.select_sw_batch": _select,
    "repsets.update_weak_set": _weak,
    "scaffolding.replace_with_peers": _peers,
    "datasets.load_csv": _load_csv,
    "checkpoint.save_arrays": _save_arrays,
}


class Tracer:
    """Span totals per name: ``spans[name] = [calls, busy_s, self_s]``, plus
    event counters filled by per-function hooks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict = {}
        self.counts: Counter = Counter()
        self._open: list = []  # time covered by children of each open span

    def call(self, name, fn, args, kwargs):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        self._open.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            covered = self._open.pop()
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - covered
            if self._open:
                self._open[-1] += dt

    def wrap(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def covered_s(self) -> float:
        """Wall time covered by spans: the sum of every span's self time."""
        return sum(stat[2] for stat in self.spans.values())

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, doc: dict) -> None:
        for name, (calls, busy, self_s) in doc["spans"].items():
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += busy
            stat[2] += self_s
        self.counts.update(doc["counts"])


def _wrap_run_tasks(tracer: Tracer, run_tasks):
    """Time each pool phase in the calling process and record the CPU its
    workers used; worker-side spans die with the workers."""

    def wrapper(fn, tasks, jobs):
        c0, t0 = children_cpu_s(), tracer.clock()
        result = tracer.call(PHASES[fn.__name__], run_tasks, (fn, tasks, jobs), {})
        if jobs > 1 and len(tasks) > 1:
            tracer.counts["pool.child_cpu_s"] += children_cpu_s() - c0
            tracer.counts["pool.slot_s"] += jobs * (tracer.clock() - t0)
        return result

    wrapper.__wrapped__ = run_tasks
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every function in LAYERS plus the pool phases while the block runs."""
    import swda.cli  # noqa: F401  (loads every layer module)

    modules = [m for n, m in list(sys.modules.items()) if n == "swda" or n.startswith("swda.")]
    replaced = []

    def patch(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))

    try:
        for module, func in LAYERS:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"swda.{module}"], func)
            patch(original, tracer.wrap(name, original, HOOKS.get(name)))
        run_tasks = sys.modules["swda.pipeline"]._run_tasks
        patch(run_tasks, _wrap_run_tasks(tracer, run_tasks))
        yield tracer
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, runs: int) -> dict:
    """Per-run span and counter metrics, ``{name: (value, unit)}``, for every
    function in LAYERS, every ratio and every total; absent spans read 0."""
    out = {}
    for module, func in LAYERS:
        name = f"{module}.{func}"
        calls, busy, self_s = tracer.spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / runs, "count")
        out[f"{name}.busy_s"] = (busy / runs, "s")
        out[f"{name}.self_s"] = (self_s / runs, "s")
        out[f"{name}.us_per_call"] = (1e6 * busy / calls if calls else 0.0, "us")
    for name in RATIOS:
        out[name] = (ratio(tracer, name), "frac")
    for name, (counter, unit) in TOTALS.items():
        out[name] = (tracer.counts[counter] / runs, unit)
    return out


def ratio(tracer: Tracer, name: str) -> float:
    num, den = RATIOS[name]
    total = tracer.counts[den]
    return tracer.counts[num] / total if total else 0.0


def phase_s(tracer: Tracer, phase: str, runs: int) -> float:
    return tracer.spans.get(phase, (0, 0.0, 0.0))[1] / runs


def _traced_cli(trace_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    from swda.cli import main

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    try:
        with installed(tracer):
            return main(argv)
    finally:
        doc = tracer.to_json()
        doc["import_s"] = import_s
        with open(trace_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
