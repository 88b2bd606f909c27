"""Reference runs that tier-1 repeats, and the command that regenerates them.

    PYTHONPATH=src python tests/reference/make.py

Two CLI runs, made in-process through ``swda.cli.main`` from generated CSVs:

  single  ``train-single``, seed 0, 400 iterations, strong refresh every
          100, on ``standard_shift_spec(0)``;
  multi   ``train-multi --jobs 2``, seed 0, 150 iterations, strong refresh
          every 50, on ``make_between_geometry(standard_between_spec(0))``.

The script rewrites what ``tests/test_reference.py`` compares against: the
text outputs in KEPT byte for byte under ``single/`` and ``multi/``, and
``reference.json`` with a sha256 of each file in DIGESTED, the calls of
each function in COUNTED during the single run, and the numpy and OpenBLAS
build that made them. Run it, and commit what it writes, only in a change
that moves the numbers on purpose.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from swda import cli, mathutils, network  # noqa: E402
from swda.datasets import (  # noqa: E402
    generate,
    make_between_geometry,
    save_csv,
    standard_between_spec,
    standard_shift_spec,
)

REFERENCE = HERE / "reference.json"

# run name -> (CLI command, config document)
RUNS = {
    "single": (["train-single"], {"seed": 0, "max_iterations": 400, "strong_refresh_period": 100}),
    "multi": (["train-multi", "--jobs", "2"], {"seed": 0, "max_iterations": 150, "strong_refresh_period": 50}),
}
KEPT = ("loss_curves.csv", "metrics.json", "distance_graph.txt")  # kept byte for byte
DIGESTED = ("checkpoint.txt", "source_checkpoint.txt", "pseudo_strong.txt")  # kept as sha256
COUNTED = ("forward", "backward", "add_trees")  # network functions counted in the single run


def _domains(name: str) -> list:
    if name == "single":
        return generate(standard_shift_spec(0))
    return list(make_between_geometry(standard_between_spec(0)))


def _run(name: str, work: Path) -> Path:
    command, config = RUNS[name]
    data, out = work / name / "data", work / name / "out"
    data.mkdir(parents=True)
    paths = []
    for dom in _domains(name):
        paths.append(str(data / f"{dom.name}.csv"))
        save_csv(dom, paths[-1])
    (data / "config.json").write_text(json.dumps(config))
    source, *targets = paths
    where = ["--target", targets[0]] if name == "single" else ["--targets", *targets]
    argv = [*command, "--config", str(data / "config.json"), "--source", source, *where, "--out", str(out)]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"reference run {name} exited {code}")
    return out


@contextlib.contextmanager
def counting(calls: Counter):
    """Count the calls of each COUNTED function of ``swda.network`` in every
    swda module that binds it, while the block runs."""
    modules = [m for n, m in list(sys.modules.items()) if n == "swda" or n.startswith("swda.")]
    replaced = []
    for name in COUNTED:
        original = getattr(network, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, counted)
                    replaced.append((module, attr, original))
    try:
        yield calls
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def produce(work: Path) -> tuple:
    """Run both reference runs under ``work``. Returns (kept: relative path
    -> bytes, digests: relative path -> sha256, calls: Counter of COUNTED
    in the single run)."""
    kept, digests, calls = {}, {}, Counter({name: 0 for name in COUNTED})
    for name in RUNS:
        with counting(calls) if name == "single" else contextlib.nullcontext():
            out = _run(name, work)
        for path in sorted(out.rglob("*")):
            rel = f"{name}/{path.relative_to(out).as_posix()}"
            if path.name in KEPT:
                kept[rel] = path.read_bytes()
            elif path.name in DIGESTED:
                digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return kept, digests, calls


def blas_build() -> dict:
    """numpy version plus the configuration string and core name of the
    OpenBLAS mapped into this process (None for both without one)."""
    build = {"numpy": np.__version__, "openblas": None, "core": None}
    for lib in mathutils._mapped_openblas():
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config, core = f"{prefix}_get_config{suffix}", f"{prefix}_get_corename{suffix}"
                if hasattr(lib, config) and hasattr(lib, core):
                    for fn in (getattr(lib, config), getattr(lib, core)):
                        fn.argtypes, fn.restype = [], ctypes.c_char_p
                    build["openblas"] = getattr(lib, config)().decode()
                    build["core"] = getattr(lib, core)().decode()
                    return build
    return build


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        kept, digests, calls = produce(Path(tmp))
    for name in RUNS:
        shutil.rmtree(HERE / name, ignore_errors=True)
    for rel, data in kept.items():
        (HERE / rel).parent.mkdir(parents=True, exist_ok=True)
        (HERE / rel).write_bytes(data)
    doc = {"blas": blas_build(), "digests": digests, "calls": dict(calls)}
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(kept)} files and {REFERENCE.name}; single-run calls: {dict(calls)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
