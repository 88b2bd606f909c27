"""Config-driven command line front end.

Commands: generate, train-single, train-multi, distance-graph, report.
Hyper-parameters come from one flat JSON config file rather than flags so
the exact configuration is echoed into every metrics document. Exit
codes: 0 success, 2 configuration or input error, 3 numerical failure.
Every command names its outputs and inputs to _check_outputs before it
reads any input, so an output that cannot be written, or would replace
an input, exits 2 before any work rather than after it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .config import ExperimentConfig
from .datasets import (
    Domain,
    DomainTransform,
    SyntheticSpec,
    generate,
    load_csv,
    names_its_file,
    read_utf8,
    save_csv,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    EmptyClassError,
    InvalidDatasetError,
    InvalidInputError,
    NotInitializedError,
    ParseError,
    SwdaError,
)
from .losses import LossWeights
from .network import NetworkConfig, forward  # noqa: F401  (perfbench's tracing test expects cli to bind forward)
from .pipeline import (
    loss_curves_csv,
    metrics_to_json,
    train_multi_target,
    train_single_target,
)
from .scaffolding import (
    build_distance_graph,
    centroids_for_domains,
    check_source_classes,
    format_distance_report,
    full_pass,
    named_faults,
)

# flat config keys: the fields of NetworkConfig and LossWeights and the
# scalar fields of ExperimentConfig, less input_dim and num_classes, which
# the source CSV sets
_NETWORK_KEYS = {f.name: f for f in fields(NetworkConfig) if f.default is not MISSING}
_WEIGHT_KEYS = {f.name: f for f in fields(LossWeights)}
_EXPERIMENT_KEYS = {f.name: f for f in fields(ExperimentConfig) if f.name not in ("network", "weights")}
KNOWN_CONFIG_KEYS = {**_NETWORK_KEYS, **_WEIGHT_KEYS, **_EXPERIMENT_KEYS}
_SPEC_KEYS = {f.name for f in fields(SyntheticSpec)}
_TRANSFORM_KEYS = {f.name for f in fields(DomainTransform)}


@names_its_file
def _load_json(path) -> dict:
    text = read_utf8(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, an integer too long to convert, or too deep nesting
        raise ParseError(f"not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    return doc


def _config_epilog() -> str:
    lines = ["config file keys (flat JSON object; all optional):"]
    lines += [f"  {key} (default: {json.dumps(f.default)})" for key, f in KNOWN_CONFIG_KEYS.items()]
    lines.append("the input width and class count come from the source CSV: its width, and its largest label + 1")
    return "\n".join(lines)


def spec_from_dict(doc: dict) -> SyntheticSpec:
    unknown = sorted(set(doc) - _SPEC_KEYS)
    if unknown:
        raise ConfigError(f"unknown spec keys {unknown}")
    transforms = doc.get("transforms")
    if not isinstance(transforms, list):
        raise ConfigError("spec needs a 'transforms' list")
    for i, t in enumerate(transforms):
        if not isinstance(t, dict):
            raise ConfigError(f"transforms[{i}] must be an object")
        bad = sorted(set(t) - _TRANSFORM_KEYS)
        if bad:
            raise ConfigError(f"transforms[{i}]: unknown keys {bad}")
    try:
        return SyntheticSpec(**{**doc, "transforms": [DomainTransform(**t) for t in transforms]})
    except InvalidInputError as exc:
        raise ConfigError(f"spec: {exc}") from exc


def _load_run(args) -> tuple:
    """(config file dict, labeled source, ExperimentConfig) of a training
    command. input_dim is the source's width and num_classes its largest
    label + 1, and the source must hold every class below that. A
    ConfigError rejects a key outside KNOWN_CONFIG_KEYS and any value the
    config dataclasses reject (wrong type or out of range)."""
    cfg = _load_json(args.config)
    unknown = sorted(set(cfg) - set(KNOWN_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{args.config}: unknown config keys {unknown}")
    _experiment_config(cfg, 1, 1)  # a 1-wide, 1-class network checks every value before any CSV is read
    source = load_csv(args.source)
    if source.labels is None:
        raise InvalidDatasetError(f"{args.source}: source domain must be labeled")
    input_dim, num_classes = source.samples.shape[1], int(source.labels.max()) + 1
    check_source_classes(source, num_classes)
    return cfg, source, _experiment_config(cfg, input_dim, num_classes)


def _experiment_config(cfg: dict, input_dim: int, num_classes: int) -> ExperimentConfig:
    net, weights, rest = ({k: cfg[k] for k in keys if k in cfg} for keys in (_NETWORK_KEYS, _WEIGHT_KEYS, _EXPERIMENT_KEYS))
    try:
        network = NetworkConfig(input_dim, num_classes, **net)
        return ExperimentConfig(network=network, weights=LossWeights(**weights), **rest)
    except InvalidInputError as exc:
        raise ConfigError(f"config: {exc}") from exc


def _config_echo(cfg: dict, config: ExperimentConfig, source: Domain, target: Domain) -> dict:
    """The "config" block of a run's metrics.json: the config file's keys
    plus the resolved dims and the two domain names."""
    return {
        **cfg,
        "input_dim": config.network.input_dim,
        "num_classes": config.network.num_classes,
        "source": source.name,
        "target": target.name,
    }


# the files a training run writes to its directory, and the harvested
# pseudo strong pools that train-single writes beside them
_RUN_FILES = ("metrics.json", "loss_curves.csv", "checkpoint.txt")
_PSEUDO_FILE = "pseudo_strong.txt"
# the files train-multi writes to --out itself
_MULTI_FILES = ("distance_graph.txt", "source_checkpoint.txt")


def _write_run_outputs(out_dir: Path, params, metrics, echo: dict, pseudo=None) -> None:
    metrics_path, curves_path, checkpoint_path = (out_dir / name for name in _RUN_FILES)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path.write_text(metrics_to_json(metrics, echo))
    curves_path.write_text(loss_curves_csv(metrics))
    ckpt.save_params(checkpoint_path, params)
    if pseudo is not None:
        ckpt.save_arrays(out_dir / _PSEUDO_FILE, ckpt.pseudo_to_arrays(pseudo))


# --- commands -----------------------------------------------------------------

def cmd_generate(args) -> int:
    out = Path(args.out)
    manifest = out / "manifest.json"
    _check_outputs([manifest], [out], [args.spec])
    domains = generate(spec_from_dict(_load_json(args.spec)))
    files = [f"{dom.name}.csv" for dom in domains]
    _check_outputs([manifest, *(out / name for name in files)], [out], [args.spec])
    out.mkdir(parents=True, exist_ok=True)
    for dom, name in zip(domains, files):
        save_csv(dom, out / name)
    manifest.write_text(json.dumps({"files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} domains to {out}")
    return 0


def cmd_train_single(args) -> int:
    out = Path(args.out)
    _check_outputs([out / name for name in (*_RUN_FILES, _PSEUDO_FILE)], [out], [args.config, args.source, args.target])
    cfg, source, config = _load_run(args)
    target = load_csv(args.target)
    params, metrics, pseudo = train_single_target(config, source, target)
    _write_run_outputs(out, params, metrics, _config_echo(cfg, config, source, target), pseudo)
    if metrics.final_accuracy is not None:
        print(f"final target accuracy: {metrics.final_accuracy!r}")
    return 0


def cmd_train_multi(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    names = [Path(p).stem for p in args.targets]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(
            f"--targets: repeated target names {repeated}; a target is named by its file stem, "
            "and its outputs go to a directory of that name"
        )
    for path, name in zip(args.targets, names):
        if name in (".", ".."):
            raise ConfigError(f"--targets: {path}: file stem {name!r} names no directory of its own for its outputs")
    out = Path(args.out)
    _check_outputs(
        [*(out / name / f for name in names for f in _RUN_FILES), *(out / name for name in _MULTI_FILES)],
        [out, *(out / name for name in names)],
        [args.config, args.source, *args.targets],
    )
    cfg, source, config = _load_run(args)
    targets = [load_csv(p) for p in args.targets]
    result = train_multi_target(config, source, targets, jobs=args.jobs)
    for target, (params, metrics) in zip(targets, result.per_target):
        _write_run_outputs(out / target.name, params, metrics, _config_echo(cfg, config, source, target))
        if metrics.final_accuracy is not None:
            print(f"{target.name}: final accuracy {metrics.final_accuracy!r}")
    graph_path, source_checkpoint_path = (out / name for name in _MULTI_FILES)
    graph_path.write_text(format_distance_report(result.graph, [source.name] + names))
    ckpt.save_params(source_checkpoint_path, result.source_params)
    return 0


def cmd_distance_graph(args) -> int:
    if len(args.domains) < 2:
        raise InvalidInputError("need at least 2 domain files (source first)")
    _check_outputs([args.out], (), [args.checkpoint, *args.domains])
    params = ckpt.load_params(args.checkpoint)
    domains = [load_csv(p) for p in args.domains]
    graph = build_distance_graph(centroids_for_domains(params, domains))
    report = format_distance_report(graph, [d.name for d in domains])
    Path(args.out).write_text(report)
    print(f"wrote distance graph report to {args.out}")
    return 0


def cmd_report(args) -> int:
    """Aggregate every metrics.json under --runs; with all three --scatter-*
    options, also draw a checkpoint's 2-d features of one domain. Every
    input is read and checked before any file is written."""
    scatter = (args.scatter_checkpoint, args.scatter_domain, args.scatter_out)
    if any(scatter) and not all(scatter):
        raise ConfigError("--scatter-checkpoint, --scatter-domain and --scatter-out must be given together")
    runs_dir = Path(args.runs)
    metric_files = sorted(runs_dir.rglob("metrics.json"))  # a directory listing: no file is read yet
    given = [path for path in scatter if path is not None]  # all three or none
    _check_outputs([args.out, *given[2:]], (), [*metric_files, *given[:2]])
    for path in (args.out, *given[2:]):  # the next report would read such a file as a run
        real = Path(os.path.realpath(path))
        if real.name == "metrics.json" and real.is_relative_to(os.path.realpath(runs_dir)):
            raise InvalidInputError(f"{path}: an output named metrics.json under --runs would be read as a run")
    if not metric_files:
        raise InvalidInputError(f"no metrics.json files under {runs_dir}")
    groups: dict = {}
    for path in metric_files:
        doc = _load_json(path)
        echo, final = doc.get("config", {}), doc.get("final_accuracy")
        if not isinstance(echo, dict):
            raise ConfigError(f"{path}: config must be an object, got {json.dumps(echo)}")
        task = echo.get("target", path.parent.name)
        if not isinstance(task, str):
            raise ConfigError(f"{path}: config target must be a string, got {json.dumps(task)}")
        if final is None:
            continue
        if not (type(final) in (int, float) and 0 <= final <= 1):
            raise ConfigError(f"{path}: final_accuracy must be null or a number in [0, 1], got {json.dumps(final)}")
        groups.setdefault(task, []).append(float(final))
    if args.scatter_checkpoint:
        params = ckpt.load_params(args.scatter_checkpoint)
        if params.bottleneck.weight.shape[0] != 2:
            raise ConfigError("feature scatter requires a 2-dimensional bottleneck")
        domain = load_csv(args.scatter_domain)
        with named_faults(f"domain {domain.name!r}"):
            features, probs = full_pass(params, domain.samples)
        svg = _scatter_svg(features, np.argmax(probs, axis=1))

    lines = ["task mean_final_accuracy num_runs"]
    for task in sorted(groups):
        finals = groups[task]
        lines.append(f"{task} {float(np.mean(finals)):.6f} {len(finals)}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"aggregated {len(metric_files)} run files into {args.out}")
    if args.scatter_checkpoint:
        Path(args.scatter_out).write_text(svg)
        print(f"wrote feature scatter to {args.scatter_out}")
    return 0


def _check_outputs(files, dirs=(), inputs=()) -> None:
    """Reject, before any input is read, a command's outputs that cannot all
    be written or would replace a file: a file named, under any spelling or
    hard link, by two outputs or by an output and one of inputs, the files
    the command reads; a directory to make that is a dangling symbolic link
    or lies below an existing non-directory; or a file that is an existing
    directory or whose resolved directory neither exists nor is among dirs."""
    files, dirs = [Path(f) for f in files], [Path(d) for d in dirs]
    read, seen = {_file_identity(path) for path in inputs}, set()
    for path in dirs + files:
        key = _file_identity(path)
        if key in read:
            raise InvalidInputError(f"{path}: named by an input and an output")
        if key in seen:
            raise InvalidInputError(f"{path}: named by two outputs")
        seen.add(key)
    for d in dirs:
        existing = next(p for p in (d, *d.parents) if os.path.lexists(p))
        if not existing.exists():  # lexists but not exists: a link to nothing
            raise InvalidInputError(f"{d}: {existing} is a dangling symbolic link")
        if not existing.is_dir():
            raise InvalidInputError(f"{d}: {existing} is not a directory")
    made = {Path(os.path.realpath(d)) for d in dirs}
    for f in files:
        if f.is_dir():
            raise InvalidInputError(f"{f} is a directory")
        parent = Path(os.path.realpath(f)).parent
        if not (parent.is_dir() or parent in made):
            raise InvalidInputError(f"{f}: no directory {parent}")


def _file_identity(path):
    """(st_dev, st_ino) of an existing file, which its every spelling and
    hard link share; the realpath of any other path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _scatter_svg(points: np.ndarray, labels: np.ndarray, size: int = 480) -> str:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    margin = 20
    scale = (size - 2 * margin) / span
    for (x, y), lab in zip(points, labels):
        px = margin + (x - lo[0]) * scale[0]
        py = size - margin - (y - lo[1]) * scale[1]
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{_PALETTE[int(lab) % len(_PALETTE)]}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- entry point --------------------------------------------------------------

def _path(text: str) -> str:
    """argparse type of every file and directory option: a non-empty name
    the file system can take, so argparse rejects any other with exit 2."""
    if not text:
        raise argparse.ArgumentTypeError("the empty string is not a file name")
    try:
        raw = os.fsencode(text)
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"{text!r} cannot be encoded as a file name")
    if b"\0" in raw:
        raise argparse.ArgumentTypeError(f"{text!r} contains a NUL byte")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swda",
        description="Strong-weak semi-supervised domain adaptation toolkit.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize multi-domain CSV datasets")
    g.add_argument("--spec", required=True, type=_path, help="JSON dataset spec file")
    g.add_argument("--out", required=True, type=_path, help="output directory")
    g.set_defaults(fn=cmd_generate)

    run = argparse.ArgumentParser(add_help=False)  # the options both training commands take
    run.add_argument("--config", required=True, type=_path, help="flat JSON experiment config")
    run.add_argument("--source", required=True, type=_path, help="labeled source CSV")
    run.add_argument("--out", required=True, type=_path, help="output directory")

    ts = sub.add_parser(
        "train-single",
        parents=[run],
        help="single-target adaptation",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ts.add_argument("--target", required=True, type=_path, help="target CSV")
    ts.set_defaults(fn=cmd_train_single)

    tm = sub.add_parser(
        "train-multi",
        parents=[run],
        help="multi-target adaptation with peer scaffolding",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    tm.add_argument(
        "--targets", required=True, type=_path, nargs="+", help="target CSVs; each target's outputs go to a directory named by its file stem"
    )
    tm.add_argument(
        "--jobs", type=int, default=1, help="parallel per-target trainers: at most this many processes, this one included"
    )
    tm.set_defaults(fn=cmd_train_multi)

    dg = sub.add_parser("distance-graph", help="class-wise distance graph report")
    dg.add_argument("--checkpoint", required=True, type=_path, help="network checkpoint (e.g. source-only)")
    dg.add_argument("--domains", required=True, type=_path, nargs="+", help="domain CSVs, source first")
    dg.add_argument("--out", required=True, type=_path, help="report file")
    dg.set_defaults(fn=cmd_distance_graph)

    rp = sub.add_parser("report", help="aggregate run metrics")
    rp.add_argument("--runs", required=True, type=_path, help="directory containing run outputs")
    rp.add_argument("--out", required=True, type=_path, help="aggregate table file")
    rp.add_argument("--scatter-checkpoint", type=_path, help="optional checkpoint for a 2-d feature scatter")
    rp.add_argument("--scatter-domain", type=_path, help="domain CSV to embed in the scatter")
    rp.add_argument("--scatter-out", type=_path, help="output SVG path")
    rp.set_defaults(fn=cmd_report)
    return parser


# ArithmeticError covers FloatingPointError, OverflowError and ZeroDivisionError
_NUMERICAL_ERRORS = (DegenerateInputError, EmptyClassError, NotInitializedError, ArithmeticError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SwdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError names none
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    except Exception as exc:
        # last resort: an input no check anticipated still gets a one-line
        # message naming where it failed and an input-error exit, never a
        # traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"error: unexpected {type(exc).__name__} at {Path(where.filename).name}:{where.lineno}: {exc}",
            file=sys.stderr,
        )
        return 2

