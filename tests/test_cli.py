"""Command line front end: exit codes, artifact layout, determinism and
agreement with the library API."""

import argparse
import contextlib
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swda
from swda import checkpoint as ckpt
from swda import cli, mathutils, pipeline
from swda.cli import main
from swda.config import ExperimentConfig
from swda.datasets import DomainTransform, SyntheticSpec, generate, load_csv, save_csv
from swda.losses import LossWeights
from swda.network import NetworkConfig, init_params
from swda.pipeline import train_single_target

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib joined the standard library in 3.11
    tomllib = None

SMALL_CONFIG = {
    "generator_hidden_dims": [16],
    "bottleneck_dim": 8,
    "batch_size": 16,
    "max_iterations": 60,
    "strong_refresh_period": 30,
    "accuracy_eval_period": 30,
    "seed": 0,
}


def write_dataset(tmp_path, seed=0):
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=20,
        transforms=[
            DomainTransform(),
            DomainTransform(rotation_deg=20.0, translation=(1.0, -0.5, 0.5, 0.0), noise_scale=1.1),
        ],
        seed=seed,
    )
    source, target = generate(spec)
    save_csv(source, tmp_path / "source.csv")
    save_csv(target, tmp_path / "target.csv")
    return source, target


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = dict(SMALL_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_generate_writes_domains_and_manifest(tmp_path):
    spec = {
        "num_classes": 3,
        "input_dim": 4,
        "samples_per_class": 5,
        "seed": 1,
        "transforms": [{}, {"rotation_deg": 15.0}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "data"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["source.csv", "target1.csv"]
    dom = load_csv(out / "source.csv")
    assert dom.samples.shape == (15, 4)
    assert dom.labels is not None


def test_generate_unknown_spec_key_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"transforms": [{}], "banana": 1}))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"samples_per_class": 2.5, "transforms": [{}]}, "samples_per_class"),
        ({"transforms": [{"rotation_deg": "x"}]}, "rotation_deg"),
        ({"input_dim": 2, "transforms": [{"translation": ["a", 0.0]}]}, "translation"),
        ({"seed": -1, "transforms": [{}]}, "seed"),
        ({"samples_per_class": 0, "transforms": [{}]}, "samples_per_class must be >= 1, got 0"),
        pytest.param(
            {"transforms": []}, "spec: need at least one domain transform", id="doc5-non-empty 'transforms' list"
        ),
        ({"transforms": [1]}, "transforms[0] must be an object"),
        ({"transforms": [{}, {"banana": 1}]}, "transforms[1]: unknown keys ['banana']"),
        ({"transforms": {}}, "spec needs a 'transforms' list"),
    ],
)
def test_generate_spec_value_of_wrong_type_or_range_exit_2(tmp_path, capsys, doc, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and key in errors[0] and "unexpected" not in errors[0]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("key", ["num_classes", "samples_per_class", "input_dim"])
def test_generate_spec_too_large_for_an_array_exit_2(tmp_path, capsys, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({key: 10**20, "transforms": [{}]}))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: spec: {key} is too large") and err.count("\n") == 1
    assert not (tmp_path / "d").exists()


def test_generate_invalid_json_exit_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{not json")
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2


def test_train_single_end_to_end(tmp_path):
    write_dataset(tmp_path)
    cfg_path, cfg = write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    for name in ("metrics.json", "loss_curves.csv", "checkpoint.txt", "pseudo_strong.txt"):
        assert (out / name).exists()
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["config"]["input_dim"] == 4
    assert doc["config"]["num_classes"] == 3
    assert doc["config"]["source"] == "source"
    assert doc["config"]["target"] == "target"
    assert len(doc["loss_ce"]) == cfg["max_iterations"]


def test_train_single_rerun_byte_identical(tmp_path):
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    args = [
        "train-single",
        "--config",
        str(cfg_path),
        "--source",
        str(tmp_path / "source.csv"),
        "--target",
        str(tmp_path / "target.csv"),
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("metrics.json", "loss_curves.csv", "checkpoint.txt", "pseudo_strong.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_matches_library_api(tmp_path):
    source, target = write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(out),
        ]
    ) == 0

    config = ExperimentConfig(
        network=NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8),
        weights=LossWeights(),
        batch_size=16,
        max_iterations=60,
        strong_refresh_period=30,
        accuracy_eval_period=30,
        seed=0,
    )
    params, metrics, _ = train_single_target(config, source, target)

    doc = json.loads((out / "metrics.json").read_text())
    assert doc["final_accuracy"] == metrics.final_accuracy
    assert doc["loss_ce"] == metrics.loss_ce
    assert doc["loss_sw"] == metrics.loss_sw
    loaded = ckpt.load_params(out / "checkpoint.txt")
    assert np.array_equal(loaded.flat, params.flat)


def test_unknown_config_key_exit_2(tmp_path, capsys):
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, extra={"momentum": 0.9})
    rc = main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    assert "momentum" in capsys.readouterr().err


def test_config_input_dim_is_an_unknown_key_exit_2(tmp_path, capsys):
    # the source CSV sets the input width; the file cannot name one
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, extra={"input_dim": 5})
    rc = main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    assert "unknown config keys ['input_dim']" in capsys.readouterr().err


def test_unlabeled_source_exit_2(tmp_path):
    source, target = write_dataset(tmp_path)
    blind = type(source)("source", source.samples, None)
    save_csv(blind, tmp_path / "blind.csv")
    cfg_path, _ = write_config(tmp_path)
    rc = main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "blind.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2


def test_malformed_csv_exit_2(tmp_path, capsys):
    write_dataset(tmp_path)
    (tmp_path / "bad.csv").write_text("label,f0,f1,f2,f3\n0,1.0,2.0\n")
    cfg_path, _ = write_config(tmp_path)
    rc = main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "bad.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_csv_feature_exit_2(tmp_path, capsys, value):
    write_dataset(tmp_path)
    lines = (tmp_path / "target.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[2] = value
    lines[3] = ",".join(fields)
    (tmp_path / "target.csv").write_text("\n".join(lines) + "\n")
    cfg_path, _ = write_config(tmp_path)
    rc = main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "f1" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dims", [64, [0], [16.0], ["16"], [True], "64", None])
def test_generator_hidden_dims_must_be_positive_int_list_exit_2(tmp_path, capsys, dims):
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, extra={"generator_hidden_dims": dims})
    rc = main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    assert "generator_hidden_dims must be a list of positive integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("generator_hidden_dims", [10**18]), ("generator_hidden_dims", [10**400]), ("bottleneck_dim", 10**18)],
)
def test_network_too_large_for_numpy_exit_2(tmp_path, capsys, key, value):
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, extra={key: value})
    assert run_train_single(tmp_path, cfg_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} is too large" in err and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 29.8 GiB"), "error: out of memory: Unable to allocate 29.8 GiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_out_of_memory_exit_2_in_one_line(tmp_path, capsys, monkeypatch, exc, line):
    # a width the parameter-count check lets through, such as [10**9], can
    # still exhaust memory; stand in for that without allocating
    def exhausted(*args, **kwargs):
        raise exc

    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    monkeypatch.setattr(cli, "train_single_target", exhausted)
    assert run_train_single(tmp_path, cfg_path) == 2
    assert capsys.readouterr().err == line


def run_train_single(tmp_path, cfg_path):
    return main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("seed", "-1", "seed must be >= 0"),
        ("max_iterations", '"300"', "max_iterations must be an integer"),
        ("max_iterations", "5.5", "max_iterations must be an integer"),
        ("max_iterations", "true", "max_iterations must be an integer"),
        ("batch_size", "1e400", "batch_size must be an integer"),
        ("tau", '"x"', "tau must be a finite number"),
        ("tau", "1e400", "tau must be a finite number"),
        ("lam", '"0.5"', "lam must be a finite number"),
        ("lam", "NaN", "lam must be a finite number"),
        ("k1", "false", "k1 must be a finite number"),
        # a 401-digit integer has no float64: a config error, not a
        # numerical failure once training uses it
        *(
            pytest.param(key, "1" + "0" * 400, f"{key} must be a finite number", id=f"{key}-401-digit-int")
            for key in ("tau", "k1", "eta0_head")
        ),
    ],
)
def test_config_value_of_wrong_type_or_range_exit_2(tmp_path, capsys, key, raw, message):
    # the raw JSON text is written as is: 1e400 and NaN only exist as literals
    write_dataset(tmp_path)
    doc = {k: v for k, v in SMALL_CONFIG.items() if k != key}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc)[:-1] + f', "{key}": {raw}}}')
    assert run_train_single(tmp_path, cfg_path) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# --- fuzzed config documents ---------------------------------------------------
# Integers are small or beyond int64, never in between, so no accepted value
# builds a huge network; every accepted run stays at most 5 iterations long.

_HUGE = 10**400
FUZZ_VALUES = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([_HUGE, -_HUGE, 2**63, -(2**64), 1e300, 5e-324]),
    st.floats(-2.0, 30.0),
    st.floats(),  # nan and +-inf too: json writes them as NaN and Infinity
    st.sampled_from(["3", "0.5", "1e400", "NaN", ""]),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.integers(-2, 8), st.sampled_from([_HUGE, 2.5, "16", True])), max_size=3),
    st.dictionaries(st.sampled_from(["a", "tau"]), st.integers(0, 3), max_size=1),
)
FUZZ_KEYS = st.sampled_from(sorted(cli.KNOWN_CONFIG_KEYS) + ["num_runs", "input_dim", "num_classes", ""])


@st.composite
def fuzzed_config(draw):
    doc = {**SMALL_CONFIG, "max_iterations": 5, "strong_refresh_period": 2, "accuracy_eval_period": 2}
    doc.update(draw(st.dictionaries(FUZZ_KEYS, FUZZ_VALUES, max_size=3)))
    if type(doc.get("max_iterations")) is int and doc["max_iterations"] > 5:
        doc["max_iterations"] = 5
    return [doc] if draw(st.integers(0, 19)) == 13 else doc  # now and then no JSON object at all


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_dataset(path)
    return path


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=fuzzed_config())
def test_fuzzed_config_exits_0_2_or_3_without_traceback(fuzz_dir, doc):
    cfg_path = fuzz_dir / "config.json"
    cfg_path.write_text(json.dumps(doc))
    shutil.rmtree(fuzz_dir / "run", ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_train_single(fuzz_dir, cfg_path)
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() and "unexpected" not in err.getvalue(), err.getvalue()


# --- fuzzed spec documents -----------------------------------------------------
# Sizes are tiny or at least 10**19, never in between, so nothing large is
# ever allocated: an accepted spec writes a few dozen rows.

SPEC_SIZES = st.one_of(st.integers(-1, 4), st.sampled_from([10**19, 2**64, 10**20, _HUGE]))
SPEC_NUMBERS = st.one_of(st.floats(-5.0, 5.0), st.floats(), st.sampled_from([1e300, 1e308, -1e308, _HUGE]))
SPEC_ODD = st.sampled_from(["3", "", True, None, [], {}, 2.5])


@st.composite
def fuzzed_spec(draw):
    rare = lambda: draw(st.integers(0, 19)) == 13  # noqa: E731
    k, d = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    doc = {"num_classes": k, "input_dim": d, "samples_per_class": 3, "seed": 0}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc[key] = draw(SPEC_ODD if rare() else SPEC_SIZES)
    transforms = []
    for _ in range(draw(st.integers(0 if rare() else 1, 3))):
        t = {}
        for key in draw(st.lists(st.sampled_from(["rotation_deg", "noise_scale", "translation", "class_skew"]), max_size=4)):
            if key in ("translation", "class_skew"):
                size = draw(st.integers(0, 4)) if rare() else {"translation": d, "class_skew": k}[key]
                t[key] = draw(st.lists(SPEC_NUMBERS, min_size=size, max_size=size))
            else:
                t[key] = draw(SPEC_NUMBERS)
            if rare():
                t[key] = draw(SPEC_ODD)
        transforms.append(t)
    doc["transforms"] = transforms
    if rare():
        doc["banana" if draw(st.booleans()) else "transforms"] = draw(SPEC_ODD)
    return [doc] if rare() else doc  # now and then no JSON object at all


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=fuzzed_spec())
def test_fuzzed_spec_exits_0_or_2_without_traceback(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("spec_fuzz")
    (path / "spec.json").write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["generate", "--spec", str(path / "spec.json"), "--out", str(path / "data")])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue() and "unexpected" not in err.getvalue(), err.getvalue()
    shutil.rmtree(path)


# --- fuzzed CSV text ------------------------------------------------------------
# Each example edits the source or the target CSV of a valid 3-class problem
# cell by cell, then maybe truncates it, adds a BOM, or writes CRLF endings or
# a byte that is not UTF-8. Accepted runs are 5 iterations long.

CSV_LABELS = st.one_of(
    st.integers(0, 3).map(str),
    st.sampled_from(["?", "-1", "99", str(2**62), str(2**63), str(10**400), "1.0", "x", "", " 1"]),
)
CSV_CELLS = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e400", "1e308", "-1e308", "1e-320", "abc", "", " 2", "1_0"]),
)


@st.composite
def fuzzed_csv(draw, text: str) -> bytes:
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        op = draw(st.sampled_from(["set", "set", "drop", "add"]))
        if op == "drop":
            del cells[j]
        else:
            value = draw(CSV_LABELS if j == 0 else CSV_CELLS)
            cells[j : j + (op == "set")] = [value]
        lines[i] = ",".join(cells)
    if draw(st.integers(0, 5)) == 0:
        lines = lines[: draw(st.integers(0, 3))]  # empty, header only, or a few rows
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    body = ("\ufeff" if draw(st.integers(0, 9)) == 0 else "") + newline.join(lines) + newline
    data = body.encode()
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture(scope="module")
def csv_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv_fuzz")
    write_dataset(path)
    config = {**SMALL_CONFIG, "max_iterations": 5, "strong_refresh_period": 2, "accuracy_eval_period": 2}
    (path / "config.json").write_text(json.dumps(config))
    return path


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), which=st.sampled_from(["source", "target"]))
def test_fuzzed_csv_exits_0_2_or_3_without_traceback(csv_fuzz_dir, data, which):
    valid = (csv_fuzz_dir / f"{which}.csv").read_text()
    case = csv_fuzz_dir / "case"
    shutil.rmtree(case, ignore_errors=True)
    case.mkdir()
    for name in ("source", "target"):
        text = (csv_fuzz_dir / f"{name}.csv").read_bytes()
        (case / f"{name}.csv").write_bytes(data.draw(fuzzed_csv(valid)) if name == which else text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_train_single(case, csv_fuzz_dir / "config.json")
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() and "unexpected" not in err.getvalue(), err.getvalue()


def _ff_on_line(path, line: int) -> None:
    """Put a 0xff byte, which is never UTF-8, at the start of a file line."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


def _document_argv(tmp_path, which):
    """(path, argv): a valid document of kind ``which`` and the command that
    reads it, writing under tmp_path / "out"."""
    write_dataset(tmp_path)
    source, target = str(tmp_path / "source.csv"), str(tmp_path / "target.csv")
    out = str(tmp_path / "out")
    if which == "checkpoint":
        path = tmp_path / "net.txt"
        ckpt.save_params(path, init_params(NetworkConfig(input_dim=4, num_classes=3), seed=0))
        return path, ["distance-graph", "--checkpoint", str(path), "--domains", source, target, "--out", out]
    if which == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL_CONFIG, indent=1))
        return path, ["train-single", "--config", str(path), "--source", source, "--target", target, "--out", out]
    if which == "spec":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"num_classes": 2, "input_dim": 2, "samples_per_class": 3, "transforms": [{}]}, indent=1))
        return path, ["generate", "--spec", str(path), "--out", out]
    path = tmp_path / "runs" / "r0" / "metrics.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"config": {}, "final_accuracy": 0.5}, indent=1))
    return path, ["report", "--runs", str(tmp_path / "runs"), "--out", out]


@pytest.mark.parametrize("which", ["checkpoint", "config", "spec", "metrics"])
def test_non_utf8_input_exit_2_naming_its_line(tmp_path, capsys, which):
    path, argv = _document_argv(tmp_path, which)
    _ff_on_line(path, 3)
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith("line 3: byte 0xff is not UTF-8 text"), err
    assert "unexpected" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["config", "spec", "metrics"])
@pytest.mark.parametrize(
    "text",
    ["[" * 200_000, '{"seed": ' + "7" * 5000 + "}"],
    ids=["nested-beyond-recursion-limit", "integer-beyond-digit-limit"],
)
def test_json_beyond_parser_limits_exit_2_naming_its_file(tmp_path, capsys, which, text):
    path, argv = _document_argv(tmp_path, which)
    path.write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1, err
    assert "unexpected" not in err and not (tmp_path / "out").exists()


def test_unexpected_exception_exit_2_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    monkeypatch.setattr(cli, "train_single_target", broken)
    assert run_train_single(tmp_path, cfg_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unexpected RuntimeError at test_cli.py:") and err.endswith(": boom\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("iterations, period, warns", [(20, 30, True), (30, 30, True), (31, 30, False)])
def test_refresh_period_not_shorter_than_run_warns(tmp_path, caplog, iterations, period, warns):
    # a strong set first built at (or after) the last iteration never feeds
    # L_SW, which would otherwise silently stay off for the whole run
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, extra={"max_iterations": iterations, "strong_refresh_period": period})
    assert run_train_single(tmp_path, cfg_path) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == int(warns)
    assert all(w.startswith(f"strong_refresh_period {period} >= max_iterations {iterations}:") for w in warnings)
    sw = json.loads((tmp_path / "run" / "metrics.json").read_text())["loss_sw"]
    assert any(sw) != warns


def test_num_runs_config_key_exit_2(tmp_path, capsys, monkeypatch):
    # repeated runs are train-single with different seeds, aggregated by
    # report; the other keys were single-valued options, now constants,
    # source-only pretraining runs max_iterations, and the source CSV sets
    # input_dim and num_classes. The file is refused before any CSV is read
    write_dataset(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "load_csv", lambda *args: calls.append(args))
    retired = ("num_runs", "schedule_a", "schedule_b", "source_eval_period", "pseudo_pool_cap", "source_iterations")
    cases = [(key, 3) for key in retired] + [(key, value) for key in ("input_dim", "num_classes") for value in (3, None)]
    for key, value in cases:
        cfg_path, _ = write_config(tmp_path, extra={key: value})
        assert run_train_single(tmp_path, cfg_path) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
    assert calls == []


def test_config_value_past_its_bound_exit_2_before_any_csv_is_read(tmp_path, capsys, monkeypatch):
    # the message names the key and the value, and every value is checked
    # before the source is parsed
    write_dataset(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "load_csv", lambda *args: calls.append(args))
    cfg_path, _ = write_config(tmp_path, extra={"eta0_generator": 0})
    assert run_train_single(tmp_path, cfg_path) == 2
    assert capsys.readouterr().err == "error: config: eta0_generator must be > 0, got 0\n"
    assert calls == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize("extra", [{"tau": 1e308}, {"k1": 1e300}], ids=["tau", "k1"])
def test_diverging_run_exit_3(tmp_path, capsys, extra):
    # the first overflow stops the run: a numerical failure of the network
    # itself, not an input error, reported on one line naming the iteration
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, extra={**extra, "max_iterations": 40})
    assert run_train_single(tmp_path, cfg_path) == 3
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and re.match(r"error: target 'target', iteration [1-9][0-9]*: ", errors[0])
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "label, message",
    [
        ("-1", "line 6: negative label -1"),
        ("9", "domain 'source' is missing classes [3, 4, 5, 6, 7, 8]\n"),
        # the class count is the largest label + 1: a huge label is a source
        # that lacks nearly every class, not a config value out of range
        ("999999999999999999", "domain 'source' is missing classes [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and "
         "999999999999999986 more\n"),
        ("99999999999999999999999", "line 6: label 99999999999999999999999 does not fit in int64"),
    ],
    ids=["negative", "skips-classes", "huge", "outside-int64"],
)
def test_bad_source_label_exit_2(tmp_path, capsys, label, message):
    # caught where the data is loaded, not when a batch first draws the row
    write_dataset(tmp_path)
    lines = (tmp_path / "source.csv").read_text().splitlines()
    lines[5] = label + "," + lines[5].split(",", 1)[1]
    (tmp_path / "source.csv").write_text("\n".join(lines) + "\n")
    cfg_path, _ = write_config(tmp_path)
    assert run_train_single(tmp_path, cfg_path) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and "config:" not in err
    assert not (tmp_path / "run").exists()


def test_train_multi_source_that_skips_a_class_exit_2_before_any_target_is_read(tmp_path, capsys, monkeypatch):
    write_dataset(tmp_path)
    lines = (tmp_path / "source.csv").read_text().splitlines()
    lines[5] = "4," + lines[5].split(",", 1)[1]
    (tmp_path / "source.csv").write_text("\n".join(lines) + "\n")
    cfg_path, _ = write_config(tmp_path)
    read = []
    monkeypatch.setattr(cli, "load_csv", lambda path, load=cli.load_csv: read.append(Path(path).name) or load(path))
    argv = ["train-multi", "--config", str(cfg_path), "--source", str(tmp_path / "source.csv"), "--targets",
            str(tmp_path / "target.csv"), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: domain 'source' is missing classes [3]\n"
    assert read == ["source.csv"]
    assert not (tmp_path / "run").exists()


def test_target_label_outside_classes_exit_2(tmp_path, capsys):
    # a labeled target is scored against its labels, so they must name classes
    write_dataset(tmp_path)
    lines = (tmp_path / "target.csv").read_text().splitlines()
    lines[1:] = ["7," + line.split(",", 1)[1] for line in lines[1:]]
    (tmp_path / "target.csv").write_text("\n".join(lines) + "\n")
    cfg_path, _ = write_config(tmp_path)
    assert run_train_single(tmp_path, cfg_path) == 2
    err = capsys.readouterr().err
    assert "domain 'target' has labels [7] outside [0, 3)" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_missing_config_file_exit_2(tmp_path):
    write_dataset(tmp_path)
    rc = main(
        [
            "train-single",
            "--config",
            str(tmp_path / "nope.json"),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "key, cut",
    [("bottleneck.bias", np.s_[:-1]), ("classifier", np.s_[:, :-1])],
    ids=["bias-one-short", "classifier-column-short"],
)
def test_checkpoint_shape_mismatch_exit_2(tmp_path, capsys, key, cut):
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8), seed=0)
    arrays = ckpt.params_to_arrays(params)
    arrays[key] = arrays[key][cut]
    ckpt.save_arrays(tmp_path / "bad.txt", arrays)
    rc = main(
        [
            "distance-graph",
            "--checkpoint",
            str(tmp_path / "bad.txt"),
            "--domains",
            str(tmp_path / "source.csv"),
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "graph.txt"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {key} has shape" in err
    assert "Traceback" not in err
    assert not (tmp_path / "graph.txt").exists()


def test_checkpoint_non_scalar_tau_exit_2(tmp_path, capsys):
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8), seed=0)
    arrays = ckpt.params_to_arrays(params)
    arrays["tau"] = np.array([1.0, 2.0])
    ckpt.save_arrays(tmp_path / "bad.txt", arrays)
    rc = main(
        [
            "distance-graph",
            "--checkpoint",
            str(tmp_path / "bad.txt"),
            "--domains",
            str(tmp_path / "source.csv"),
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "graph.txt"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "tau must be a scalar" in err
    assert "Traceback" not in err
    assert not (tmp_path / "graph.txt").exists()


def test_zero_weight_checkpoint_exit_3(tmp_path, capsys):
    # all-zero weights produce zero-norm features, which the forward pass
    # rejects as a numerical failure rather than a config problem
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8), seed=0)
    params.flat[...] = 0.0
    ckpt.save_params(tmp_path / "zero.txt", params)
    rc = main(
        [
            "distance-graph",
            "--checkpoint",
            str(tmp_path / "zero.txt"),
            "--domains",
            str(tmp_path / "source.csv"),
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "graph.txt"),
        ]
    )
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_nan_checkpoint_value_exit_2(tmp_path, capsys):
    # a damaged checkpoint is bad input, caught on the line that holds it
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8), seed=0)
    ckpt.save_params(tmp_path / "ckpt.txt", params)
    lines = (tmp_path / "ckpt.txt").read_text().splitlines()
    lines[2] = "nan " + lines[2].split(" ", 1)[1]
    (tmp_path / "ckpt.txt").write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "distance-graph",
            "--checkpoint",
            str(tmp_path / "ckpt.txt"),
            "--domains",
            str(tmp_path / "source.csv"),
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "graph.txt"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 3: f64 token 'nan' is not a finite 64-bit value" in err and "Traceback" not in err
    assert not (tmp_path / "graph.txt").exists()


def run_distance_graph(tmp_path, checkpoint):
    return main(
        [
            "distance-graph",
            "--checkpoint",
            str(checkpoint),
            "--domains",
            str(tmp_path / "source.csv"),
            str(tmp_path / "target.csv"),
            "--out",
            str(tmp_path / "graph.txt"),
        ]
    )


@pytest.mark.parametrize(
    "tail, message",
    [
        # 2^32 * 2^32 values wrap to 0 in an int64 product
        (["key tau f64 4294967296 4294967296", "0x1.0p+4"], "key 'tau' expected 18446744073709551616 values, found 1"),
        (["key tau f64 " + "1" * 23, "0x1.0p+4"], f"key 'tau' expected {'1' * 23} values, found 1"),
        (["key tau f64 0 " + "1" * 23], f"key 'tau' has shape (0, {'1' * 23}), too large for an array"),
    ],
    ids=["product-beyond-int64", "23-digit-dimension", "empty-with-huge-dimension"],
)
def test_checkpoint_dimension_beyond_int64_exit_2(tmp_path, capsys, tail, message):
    # a damaged dimension is bad input, not a numerical failure
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8), seed=0)
    ckpt.save_params(tmp_path / "ckpt.txt", params)
    lines = (tmp_path / "ckpt.txt").read_text().splitlines()
    assert lines[-2] == "key tau f64 "  # tau, a scalar, is the last key
    (tmp_path / "ckpt.txt").write_text("\n".join(lines[:-2] + tail) + "\n")
    assert run_distance_graph(tmp_path, tmp_path / "ckpt.txt") == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    prefix = re.escape(f"error: {tmp_path / 'ckpt.txt'}: line ")
    assert len(errors) == 1 and re.fullmatch(rf"{prefix}\d+: {re.escape(message)}", errors[0]), errors
    assert not (tmp_path / "graph.txt").exists()


def test_parse_errors_name_their_file(tmp_path, capsys):
    # a command reads several files; each parse error says which one, once
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    target = tmp_path / "target.csv"
    last = target.read_bytes().count(b"\n") + 1
    target.write_bytes(target.read_bytes() + b"\xff")
    assert run_train_single(tmp_path, cfg_path) == 2
    assert capsys.readouterr().err == f"error: {target}: line {last}: byte 0xff is not UTF-8 text\n"

    path = tmp_path / "net.txt"
    ckpt.save_params(path, init_params(NetworkConfig(input_dim=4, num_classes=3), seed=0))
    lines = path.read_text().splitlines()
    lines[2] = "zz " + lines[2]
    path.write_text("\n".join(lines) + "\n")
    assert run_distance_graph(tmp_path, path) == 2
    assert capsys.readouterr().err == f"error: {path}: line 3: bad f64 token 'zz'\n"

    cfg_path.write_text("{not json")
    assert run_train_single(tmp_path, cfg_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: not valid JSON (") and err.count(str(cfg_path)) == 1


def test_decimal_checkpoint_token_exit_2(tmp_path, capsys):
    # float.fromhex would read the decimal 10 as 16.0
    write_dataset(tmp_path)
    path = tmp_path / "net.txt"
    ckpt.save_params(path, init_params(NetworkConfig(input_dim=4, num_classes=3), seed=0))
    lines = path.read_text().splitlines()
    lines[2] = " ".join(["10"] + lines[2].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    assert run_distance_graph(tmp_path, path) == 2
    assert capsys.readouterr().err == f"error: {path}: line 3: f64 token '10' is not in float.hex form\n"
    assert not (tmp_path / "graph.txt").exists()


def test_checkpoint_with_unused_keys_exit_2(tmp_path, capsys):
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(6, 6)), seed=0)
    arrays = ckpt.params_to_arrays(params)
    del arrays["generator.1.weight"], arrays["generator.1.bias"]  # what is left still chains
    arrays["stray"] = np.ones(3)
    ckpt.save_arrays(tmp_path / "edited.txt", arrays)
    assert run_distance_graph(tmp_path, tmp_path / "edited.txt") == 2
    err = capsys.readouterr().err
    assert "checkpoint keys ['stray'] are not part of a network with 1 generator layers" in err
    assert err.count("\n") == 1 and not (tmp_path / "graph.txt").exists()
    # a pseudo strong export is no network checkpoint either
    pseudo = [np.zeros((1, 4)), np.zeros((0, 4)), np.ones((2, 4))]
    ckpt.save_arrays(tmp_path / "pseudo_strong.txt", ckpt.pseudo_to_arrays(pseudo))
    assert run_distance_graph(tmp_path, tmp_path / "pseudo_strong.txt") == 2
    assert "checkpoint is missing key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, leaf",
    [
        ({"classifier": (0, 2)}, "classifier has shape (0, 2)"),
        ({"bottleneck.weight": (0, 3), "bottleneck.bias": (0,), "classifier": (3, 0)}, "bottleneck.weight has shape (0, 3)"),
        ({"generator.0.weight": (0, 4), "generator.0.bias": (0,), "bottleneck.weight": (2, 0)}, "generator.0.weight has shape (0, 4)"),
    ],
    ids=["no-classes", "zero-wide-bottleneck", "zero-wide-hidden-layer"],
)
@pytest.mark.parametrize("command", ["distance-graph", "report"])
def test_checkpoint_with_a_zero_size_layer_exit_2(tmp_path, capsys, command, edit, leaf):
    # each layer chains, but NetworkConfig forbids its dimensions; the load
    # used to pass it on, to an unexpected ValueError, a numerical failure
    # or a written graph
    argv = _scatter_report_argv(tmp_path, "summary.txt", checkpoint="bad.txt")
    arrays = ckpt.params_to_arrays(ckpt.load_params(tmp_path / "flat.txt"))
    arrays.update((key, np.zeros(shape)) for key, shape in edit.items())
    ckpt.save_arrays(tmp_path / "bad.txt", arrays)
    rc = run_distance_graph(tmp_path, tmp_path / "bad.txt") if command == "distance-graph" else main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {leaf}; every layer dimension must be >= 1\n"
    assert not any((tmp_path / name).exists() for name in ("graph.txt", "summary.txt", "scatter.svg"))


# --- fuzzed checkpoints ---------------------------------------------------------
# Each example edits the key lines (name, kind, dimensions) and value tokens
# of a valid checkpoint, or repeats one of its lines, then maybe truncates it
# or inserts a byte that is not UTF-8.

CKPT_NAMES = st.sampled_from(["tau", "classifier", "bottleneck.bias", "generator.0.weight", "generator.9.bias", ""])
CKPT_KINDS = st.sampled_from(["f64", "i64", "f32", ""])
CKPT_DIMS = st.one_of(
    st.integers(0, 20).map(str),
    st.sampled_from(["-1", "-0", "1.5", "x", "", str(2**32), str(2**63), str(10**22), "9" * 5000]),
)
CKPT_TOKENS = st.one_of(
    st.floats(-5.0, 5.0).map(float.hex),
    st.sampled_from(["nan", "inf", "-inf", "0x1p99999", "0x1p-1080", "1e400", "zz", "7", str(2**63), "9" * 5000]),
)


@st.composite
def fuzzed_checkpoint(draw, text: str) -> bytes:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(" ")
        op = draw(st.sampled_from(["set", "set", "drop", "add", "repeat", "empty"]))
        if op == "repeat":  # a duplicate key, or one block too many values
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
            continue
        if op == "empty":  # a block that stays consistent: one dimension 0, and no value lines
            starts = [n for n, line in enumerate(lines) if line.startswith("key ")]
            if not starts:
                continue
            k = draw(st.sampled_from(starts))
            parts = lines[k].split(" ")
            j = draw(st.integers(3, max(3, len(parts) - 1)))  # a scalar's key line ends in " "
            parts[j : j + 1] = ["0"]
            lines[k : next((n for n in starts if n > k), len(lines))] = [" ".join(parts)]
            continue
        key = parts[0] == "key"
        j = draw(st.integers(int(key), len(parts) - 1))
        if op == "drop":
            del parts[j]
        else:
            field = (CKPT_NAMES, CKPT_KINDS)[j - 1] if key and j < 3 else CKPT_DIMS if key else CKPT_TOKENS
            parts[j : j + (op == "set")] = [draw(field)]
        lines[i] = " ".join(parts)
    if draw(st.integers(0, 5)) == 0:
        lines = lines[: draw(st.integers(0, len(lines)))]
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture(scope="module")
def ckpt_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt_fuzz")
    write_dataset(path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(3,), bottleneck_dim=2), seed=0)
    ckpt.save_params(path / "valid.txt", params)
    return path


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_checkpoint_exits_0_2_or_3_without_traceback(ckpt_fuzz_dir, data):
    case = ckpt_fuzz_dir / "case.txt"
    case.write_bytes(data.draw(fuzzed_checkpoint((ckpt_fuzz_dir / "valid.txt").read_text())))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_distance_graph(ckpt_fuzz_dir, case)
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() and "unexpected" not in err.getvalue(), err.getvalue()


def test_distance_graph_report(tmp_path):
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8), seed=3)
    ckpt.save_params(tmp_path / "net.txt", params)
    out = tmp_path / "graph.txt"
    rc = main(
        [
            "distance-graph",
            "--checkpoint",
            str(tmp_path / "net.txt"),
            "--domains",
            str(tmp_path / "source.csv"),
            str(tmp_path / "target.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert "source" in text and "target" in text


def test_distance_graph_needs_two_domains(tmp_path):
    write_dataset(tmp_path)
    params = init_params(NetworkConfig(input_dim=4, num_classes=3), seed=0)
    ckpt.save_params(tmp_path / "net.txt", params)
    rc = main(
        [
            "distance-graph",
            "--checkpoint",
            str(tmp_path / "net.txt"),
            "--domains",
            str(tmp_path / "source.csv"),
            "--out",
            str(tmp_path / "graph.txt"),
        ]
    )
    assert rc == 2


def run_quick_training(tmp_path, out_name, seed=0):
    cfg_path, _ = write_config(tmp_path, extra={"seed": seed}, name=f"cfg{seed}.json")
    out = tmp_path / out_name
    assert main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(out),
        ]
    ) == 0
    return out


def test_report_aggregates_runs(tmp_path):
    write_dataset(tmp_path)
    run_quick_training(tmp_path, "runs/r0", seed=0)
    run_quick_training(tmp_path, "runs/r1", seed=1)
    out = tmp_path / "summary.txt"
    rc = main(["report", "--runs", str(tmp_path / "runs"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "task mean_final_accuracy num_runs"
    assert len(lines) == 2  # both runs hit the same target task
    assert lines[1].startswith("target ")
    assert lines[1].endswith(" 2")


def test_report_empty_dir_exit_2(tmp_path):
    (tmp_path / "runs").mkdir()
    rc = main(["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "summary.txt")])
    assert rc == 2


@pytest.mark.parametrize(
    "body, key",
    [
        ('{"config": null}', "config"),
        ('{"config": {"target": ["a"]}}', "config target"),
        ('{"final_accuracy": "x"}', "final_accuracy"),
        ('{"final_accuracy": [1]}', "final_accuracy"),
        ('{"final_accuracy": true}', "final_accuracy"),
        ('{"final_accuracy": NaN}', "final_accuracy"),
        ('{"final_accuracy": 1e400}', "final_accuracy"),
        ('{"final_accuracy": 1.5}', "final_accuracy"),
        ('{"final_accuracy": -0.1}', "final_accuracy"),
    ],
    ids=[
        "config-null", "target-list", "final-str", "final-list", "final-bool", "final-nan", "final-inf",
        "final-above-one", "final-below-zero",
    ],
)
def test_report_rejects_malformed_metrics_exit_2(tmp_path, capsys, body, key):
    run = tmp_path / "runs" / "r0"
    run.mkdir(parents=True)
    (run / "metrics.json").write_text(body)
    out = tmp_path / "summary.txt"
    assert main(["report", "--runs", str(tmp_path / "runs"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {run / 'metrics.json'}: {key} must be " in err and "unexpected" not in err
    assert not out.exists()


# --- fuzzed metrics.json text ---------------------------------------------------
# Each example assembles one metrics.json from raw JSON fragments: values of
# every type, integers past the int-to-string digit limit and nesting past the
# recursion limit; now and then the document is no object, or is cut short.

METRICS_VALUES = st.sampled_from(
    ["0.5", "0", "1", "-0.0", "1.5", "1e400", "-1e400", "NaN", "Infinity", "null", "true", '"t"', '""', "[]", "{}"]
    + ["[0.5]", '{"target": "t"}', "7" * 4000, "7" * 5000, "0." + "7" * 5000]
    + ["[" * 100_000 + "]" * 100_000, '{"a": ' * 50_000 + "1" + "}" * 50_000]
)


@st.composite
def fuzzed_metrics(draw) -> str:
    rare = lambda: draw(st.integers(0, 9)) == 7  # noqa: E731
    config = '{"target": %s}' % draw(METRICS_VALUES) if draw(st.booleans()) else draw(METRICS_VALUES)
    fields = {"config": config, "final_accuracy": draw(METRICS_VALUES)}
    keys = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    text = draw(METRICS_VALUES) if rare() else "{" + ", ".join(f'"{k}": {fields[k]}' for k in keys) + "}"
    return text[: draw(st.integers(0, len(text)))] if rare() else text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=fuzzed_metrics())
def test_fuzzed_metrics_exits_0_or_2_without_traceback(tmp_path_factory, text):
    runs = tmp_path_factory.mktemp("metrics_fuzz")
    (runs / "r0").mkdir()
    (runs / "r0" / "metrics.json").write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["report", "--runs", str(runs), "--out", str(runs / "summary.txt")])
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue() and "unexpected" not in err.getvalue(), err.getvalue()
    shutil.rmtree(runs)


def test_report_scatter_svg(tmp_path):
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, extra={"bottleneck_dim": 2}, name="cfg2d.json")
    out = tmp_path / "run2d"
    assert main(
        [
            "train-single",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(out),
        ]
    ) == 0
    svg = tmp_path / "scatter.svg"
    rc = main(
        [
            "report",
            "--runs",
            str(out),
            "--out",
            str(tmp_path / "summary.txt"),
            "--scatter-checkpoint",
            str(out / "checkpoint.txt"),
            "--scatter-domain",
            str(tmp_path / "target.csv"),
            "--scatter-out",
            str(svg),
        ]
    )
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 60


def test_report_scatter_requires_2d_bottleneck(tmp_path):
    write_dataset(tmp_path)
    run = run_quick_training(tmp_path, "run")
    rc = main(
        [
            "report",
            "--runs",
            str(run),
            "--out",
            str(tmp_path / "summary.txt"),
            "--scatter-checkpoint",
            str(run / "checkpoint.txt"),
            "--scatter-domain",
            str(tmp_path / "target.csv"),
            "--scatter-out",
            str(tmp_path / "scatter.svg"),
        ]
    )
    assert rc == 2
    assert not (tmp_path / "summary.txt").exists()  # checked before any output


def test_report_scatter_missing_domain_exit_2(tmp_path):
    write_dataset(tmp_path)
    run = run_quick_training(tmp_path, "run")
    rc = main(
        [
            "report",
            "--runs",
            str(run),
            "--out",
            str(tmp_path / "summary.txt"),
            "--scatter-checkpoint",
            str(run / "checkpoint.txt"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "given",
    [("checkpoint",), ("checkpoint", "domain"), ("checkpoint", "out"), ("domain",), ("out",), ("domain", "out")],
    ids=lambda given: "+".join(given),
)
def test_report_incomplete_scatter_options_exit_2_before_any_output(tmp_path, capsys, given):
    run = tmp_path / "runs" / "r0"
    run.mkdir(parents=True)
    (run / "metrics.json").write_text('{"final_accuracy": 0.5}')
    scatter = [(f"--scatter-{name}", str(tmp_path / f"scatter-{name}")) for name in given]
    out = tmp_path / "summary.txt"
    argv = ["report", "--runs", str(tmp_path / "runs"), "--out", str(out)]
    assert main(argv + [token for pair in scatter for token in pair]) == 2
    err = capsys.readouterr().err
    assert err == "error: --scatter-checkpoint, --scatter-domain and --scatter-out must be given together\n"
    assert not out.exists() and not (tmp_path / "scatter-out").exists()


def _scatter_report_argv(tmp_path, out, checkpoint="flat.txt", domain="target.csv", scatter_out="scatter.svg"):
    """report argv over one metrics.json with a valid 2-d scatter set; each
    keyword names a file under tmp_path, "" passes the empty string."""
    write_dataset(tmp_path)
    (tmp_path / "runs" / "r0").mkdir(parents=True)
    (tmp_path / "runs" / "r0" / "metrics.json").write_text('{"final_accuracy": 0.5}')
    net = NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(3,), bottleneck_dim=2)
    ckpt.save_params(tmp_path / "flat.txt", init_params(net, seed=0))
    argv = ["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / out)]
    for option, name in (("checkpoint", checkpoint), ("domain", domain), ("out", scatter_out)):
        argv += [f"--scatter-{option}", name and str(tmp_path / name)]
    return argv


@pytest.mark.parametrize(
    "empty", [("checkpoint", "domain", "scatter_out"), ("scatter_out",)], ids=["all-empty", "one-empty"]
)
def test_report_empty_scatter_option_exit_2_before_any_output(tmp_path, empty):
    # an empty name is rejected as a name, not read as an absent option
    argv = _scatter_report_argv(tmp_path, "summary.txt", **{name: "" for name in empty})
    rc, err = _exit_code(argv)
    assert rc == 2
    assert "the empty string is not a file name" in err
    assert not (tmp_path / "summary.txt").exists() and not (tmp_path / "scatter.svg").exists()


@pytest.mark.parametrize("bad", ["dir", "missing-parent", "shared"])
@pytest.mark.parametrize("which", ["out", "scatter_out"])
def test_report_unwritable_destination_exit_2_before_any_output(tmp_path, capsys, monkeypatch, which, bad):
    # shared: both options name the other's file, so the SVG would replace
    # the table
    (tmp_path / "dir").mkdir()
    names = {"out": "summary.txt", "scatter_out": "scatter.svg"}
    other = "scatter_out" if which == "out" else "out"
    dest = {"dir": "dir", "missing-parent": "no/such.txt", "shared": names[other]}[bad]
    paths = {**names, which: dest}
    argv = _scatter_report_argv(tmp_path, paths["out"], scatter_out=paths["scatter_out"])
    calls = []
    for holder, name in ((cli, "_load_json"), (cli, "load_csv"), (ckpt, "load_params")):
        monkeypatch.setattr(holder, name, lambda *args, name=name: calls.append(name))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {tmp_path / dest}")
    assert not (tmp_path / "summary.txt").exists() and not (tmp_path / "scatter.svg").exists()
    assert calls == []


@pytest.mark.parametrize("dest", ["runs/metrics.json", "runs/r1/metrics.json", "runs/r1/../r1/metrics.json"])
@pytest.mark.parametrize("which", ["out", "scatter_out"])
def test_report_output_read_as_a_run_by_the_next_report_exit_2(tmp_path, capsys, monkeypatch, which, dest):
    # a metrics.json under --runs that does not exist yet is no input of
    # this report, but the next one would read the table or SVG as a run
    names = {"out": "summary.txt", "scatter_out": "scatter.svg"}
    argv = _scatter_report_argv(tmp_path, **{**names, which: dest})
    (tmp_path / "runs" / "r1").mkdir()
    with monkeypatch.context() as m:
        calls = []
        for holder, name in ((cli, "_load_json"), (cli, "load_csv"), (ckpt, "load_params")):
            m.setattr(holder, name, lambda *args, name=name: calls.append(name))
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    assert err == f"error: {tmp_path / dest}: an output named metrics.json under --runs would be read as a run\n"
    assert sorted(p.relative_to(tmp_path).as_posix() for p in (tmp_path / "runs").rglob("*")) == [
        "runs/r0", "runs/r0/metrics.json", "runs/r1"
    ]
    assert not (tmp_path / "summary.txt").exists() and not (tmp_path / "scatter.svg").exists()
    assert main(["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "summary.txt")]) == 0


def test_training_never_loads_the_process_pool(tmp_path):
    # multiprocessing costs about 2 MB and 16 ms to import; train-multi's
    # parallel runs fork their lanes with os.fork and need none of it
    write_dataset(tmp_path)
    shutil.copy(tmp_path / "target.csv", tmp_path / "t2.csv")
    cfg_path, _ = write_config(tmp_path)
    code = (
        "import sys\n"
        "def loaded(): print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])\n"
        "import swda; loaded()\n"
        "import swda.cli; loaded()\n"
        "rc = swda.cli.main(sys.argv[1:]); loaded()\n"
        "sys.exit(rc)\n"
    )
    common = ["--config", str(cfg_path), "--source", str(tmp_path / "source.csv")]
    for argv in (
        ["train-single", *common, "--target", str(tmp_path / "target.csv"), "--out", str(tmp_path / "single")],
        # two part-3 runs, so the second runs in a forked lane
        ["train-multi", *common, "--targets", str(tmp_path / "target.csv"), str(tmp_path / "t2.csv"),
         "--out", str(tmp_path / "multi"), "--jobs", "2"],
    ):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_package_env())
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line.startswith("[")] == ["[]", "[]", "[]"]


@pytest.mark.parametrize(
    "command, blocker",
    [
        ("train-single", "metrics.json"),
        ("train-single", "pseudo_strong.txt"),
        ("train-multi", "t/metrics.json"),
        ("train-multi", "t/checkpoint.txt"),
    ],
)
def test_run_file_that_is_a_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command, blocker):
    # writing the run's files would fail only after all of the training
    calls = []
    for name in ("_load_json", "load_csv", "train_single_target", "train_multi_target"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    out = tmp_path / "out"
    (out / blocker).mkdir(parents=True)
    inputs = {
        "train-single": ["--target", "t.csv"],
        "train-multi": ["--targets", "t.csv"],
    }[command]
    assert main([command, "--config", "c.json", "--source", "s.csv", *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out / blocker} is a directory\n"
    assert calls == []


def test_train_multi_child_lane_failure_exits_as_in_process(tmp_path, capsys, monkeypatch):
    # at --jobs 2 the second target's part-3 run is a forked lane's; its
    # numerical failure must end the command as it does at --jobs 1
    write_dataset(tmp_path)
    shutil.copy(tmp_path / "target.csv", tmp_path / "t2.csv")
    cfg_path, _ = write_config(tmp_path)
    part3 = pipeline._part3_task

    def failing(args):
        if args[3] == 2:
            raise swda.DegenerateInputError("target 't2', iteration 5: zero-norm feature row")
        return part3(args)

    monkeypatch.setattr(pipeline, "_part3_task", failing)
    errs = []
    for jobs in ("1", "2"):
        argv = ["train-multi", "--config", str(cfg_path), "--source", str(tmp_path / "source.csv"), "--targets",
                str(tmp_path / "target.csv"), str(tmp_path / "t2.csv"), "--out", str(tmp_path / jobs), "--jobs", jobs]
        assert main(argv) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: target 't2', iteration 5: zero-norm feature row\n"


@pytest.mark.parametrize("command", ["generate", "train-single", "train-multi"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_naming_a_file_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command, out):
    # mkdir would fail only after all of the training; nothing is loaded first
    calls = []
    for name in ("_load_json", "load_csv", "generate", "train_single_target", "train_multi_target"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    (tmp_path / "file").write_text("")
    inputs = {
        "generate": ["--spec", "spec.json"],
        "train-single": ["--config", "c.json", "--source", "s.csv", "--target", "t.csv"],
        "train-multi": ["--config", "c.json", "--source", "s.csv", "--targets", "t.csv"],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / out}: {tmp_path / 'file'} is not a directory\n"
    assert calls == []


# per command: options with one output that is an existing directory
_OUTPUT_DIRECTORY_CASES = {
    "generate": (["--spec", "spec.json", "--out", "out"], "out/manifest.json"),
    "train-single": (["--config", "c.json", "--source", "s.csv", "--target", "t.csv", "--out", "out"], "out/loss_curves.csv"),
    "train-multi": (["--config", "c.json", "--source", "s.csv", "--targets", "t.csv", "--out", "out"], "out/source_checkpoint.txt"),
    "distance-graph": (["--checkpoint", "net.txt", "--domains", "s.csv", "t.csv", "--out", "out"], "out"),
    "report": (["--runs", "runs", "--out", "out"], "out"),
}
_COMMANDS = sorted(next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("command", _COMMANDS)
def test_output_that_is_a_directory_exit_2_before_any_input(tmp_path, capsys, monkeypatch, command):
    # every command checks all of its outputs before it reads any input; a
    # command without a case here fails
    options, blocker = _OUTPUT_DIRECTORY_CASES[command]
    monkeypatch.chdir(tmp_path)
    Path(blocker).mkdir(parents=True)
    calls = []
    for holder, name in (
        (cli, "_load_json"), (cli, "load_csv"), (ckpt, "load_params"),
        (cli, "generate"), (cli, "train_single_target"), (cli, "train_multi_target"),
    ):
        monkeypatch.setattr(holder, name, lambda *args, name=name, **kwargs: calls.append(name))
    assert main([command, *options]) == 2
    assert capsys.readouterr().err == f"error: {blocker} is a directory\n"
    assert calls == [] and sorted(tmp_path.rglob("*")) == [tmp_path / p for p in sorted({"out", blocker})]


# per case: the command's options, and the input that one of its outputs names
_OUTPUT_NAMING_AN_INPUT_CASES = {
    "distance-graph": (
        ["distance-graph", "--checkpoint", "net.txt", "--domains", "source.csv", "target.csv", "--out", "target.csv"],
        "target.csv",
    ),
    "report": (["report", "--runs", "runs", "--out", "runs/r0/metrics.json"], "runs/r0/metrics.json"),
    "report-scatter": (
        ["report", "--runs", "runs", "--out", "summary.txt", "--scatter-checkpoint", "net.txt",
         "--scatter-domain", "target.csv", "--scatter-out", "runs/../target.csv"],
        "target.csv",
    ),
    "generate": (["generate", "--spec", "g/manifest.json", "--out", "g"], "g/manifest.json"),
}


@pytest.mark.parametrize("case", sorted(_OUTPUT_NAMING_AN_INPUT_CASES))
def test_output_naming_an_input_exit_2_before_any_input(tmp_path, capsys, monkeypatch, case):
    # each output here used to replace the input it names and exit 0
    argv, victim = _OUTPUT_NAMING_AN_INPUT_CASES[case]
    monkeypatch.chdir(tmp_path)
    write_dataset(tmp_path)
    net = NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(6,), bottleneck_dim=2)
    ckpt.save_params("net.txt", init_params(net, seed=0))
    Path("runs/r0").mkdir(parents=True)
    Path("runs/r0/metrics.json").write_text(json.dumps({"final_accuracy": 0.5}))
    Path("g").mkdir()
    Path("g/manifest.json").write_text(
        json.dumps({"num_classes": 2, "input_dim": 2, "samples_per_class": 3, "transforms": [{}], "seed": 0})
    )
    before = Path(victim).read_bytes()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(": named by an input and an output\n") and err.count("\n") == 1 and "unexpected" not in err
    assert Path(victim).read_bytes() == before


_TRAIN_SINGLE = ["train-single", "--config", "config.json", "--source", "source.csv", "--target", "target.csv"]
_TRAIN_MULTI = ["train-multi", "--config", "config.json", "--source", "source.csv", "--targets", "target.csv"]
_GENERATE = ["generate", "--spec", "spec.json"]
# per case: the command line, the link to make as (path, what it links to,
# hard), and the error, {t} standing for the test directory
_OUTPUT_LANDING_CASES = {
    "train-single-out-dangling": (
        [*_TRAIN_SINGLE, "--out", "link"], ("link", "missing", False), "link: link is a dangling symbolic link"
    ),
    "train-multi-out-dangling": (
        [*_TRAIN_MULTI, "--out", "link"], ("link", "missing", False), "link: link is a dangling symbolic link"
    ),
    "train-multi-run-dir-dangling": (
        [*_TRAIN_MULTI, "--out", "out"], ("out/target", "missing", False), "out/target: out/target is a dangling symbolic link"
    ),
    "generate-out-dangling": ([*_GENERATE, "--out", "link"], ("link", "missing", False), "link: link is a dangling symbolic link"),
    "train-single-file-into-missing-dir": (
        [*_TRAIN_SINGLE, "--out", "out"], ("out/metrics.json", "missing/m.json", False), "out/metrics.json: no directory {t}/missing"
    ),
    "generate-file-into-missing-dir": (
        [*_GENERATE, "--out", "out"], ("out/manifest.json", "missing/m.json", False), "out/manifest.json: no directory {t}/missing"
    ),
    "report-file-into-missing-dir": (
        ["report", "--runs", "runs", "--out", "summary.txt"], ("summary.txt", "missing/s.txt", False),
        "summary.txt: no directory {t}/missing",
    ),
    "train-single-hard-link-to-source": (
        [*_TRAIN_SINGLE, "--out", "out"], ("out/metrics.json", "source.csv", True), "out/metrics.json: named by an input and an output"
    ),
    "generate-hard-link-to-spec": (
        [*_GENERATE, "--out", "out"], ("out/manifest.json", "spec.json", True), "out/manifest.json: named by an input and an output"
    ),
    "report-hard-link-to-a-run": (
        ["report", "--runs", "runs", "--out", "summary.txt"], ("summary.txt", "runs/r0/metrics.json", True),
        "summary.txt: named by an input and an output",
    ),
}


@pytest.mark.parametrize("case", sorted(_OUTPUT_LANDING_CASES))
def test_output_judged_by_the_file_it_lands_on_exit_2_before_any_input(tmp_path, capsys, monkeypatch, case):
    # each used to read its inputs, and train or generate, and only then
    # fail to write, or exit 0 having replaced the input it links to
    argv, (link, to, hard), want = _OUTPUT_LANDING_CASES[case]
    monkeypatch.chdir(tmp_path)
    write_dataset(tmp_path)
    write_config(tmp_path)
    Path("spec.json").write_text(json.dumps({"num_classes": 2, "input_dim": 2, "samples_per_class": 3, "transforms": [{}]}))
    Path("runs/r0").mkdir(parents=True)
    Path("runs/r0/metrics.json").write_text(json.dumps({"final_accuracy": 0.5}))
    Path(link).parent.mkdir(exist_ok=True)
    if hard:
        os.link(to, link)
    else:
        Path(link).symlink_to(tmp_path / to)
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    calls = []
    for holder, name in (
        (cli, "_load_json"), (cli, "load_csv"), (cli, "generate"), (cli, "train_single_target"), (cli, "train_multi_target"),
    ):
        real = getattr(holder, name)
        monkeypatch.setattr(holder, name, lambda *args, real=real, name=name, **kwargs: calls.append(name) or real(*args, **kwargs))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {want.format(t=tmp_path)}\n"
    assert calls == []
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_train_multi_names_each_run_by_its_part(tmp_path, capsys, caplog, monkeypatch):
    # target1 is target2's peer, so it trains in part 1 and again in part 3;
    # a warning or a failure of either run says which part it came from
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=10,
        transforms=[DomainTransform(), DomainTransform(rotation_deg=20.0), DomainTransform(rotation_deg=40.0)],
        seed=0,
    )
    paths = []
    for dom in generate(spec):
        paths.append(str(tmp_path / f"{dom.name}.csv"))
        save_csv(dom, paths[-1])
    cfg = {"max_iterations": 30, "strong_refresh_period": 10, "generator_hidden_dims": [8], "bottleneck_dim": 4}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    argv = ["train-multi", "--config", str(tmp_path / "c.json"), "--source", paths[0], "--targets", *paths[1:]]
    with caplog.at_level(logging.WARNING, logger="swda"):
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
    lines = [r.getMessage() for r in caplog.records if "cross_entropy clamped" in r.getMessage()]
    assert lines == ["part 3, target 'target1': cross_entropy clamped 1 zero-probability entries over 1 iterations"]
    # part 2 refreshes no strong set, so the first refresh is part 1's
    def empty(*args):
        raise swda.EmptyClassError("class 1 has zero total probability mass")

    monkeypatch.setattr(pipeline, "update_strong_set", empty)
    assert main([*argv, "--out", str(tmp_path / "failed")]) == 3
    assert capsys.readouterr().err == (
        "error: part 1, target 'target1', iteration 10: class 1 has zero total probability mass\n"
    )


@pytest.mark.parametrize(
    "domains, out, want",
    [
        (["source.csv", "target.csv"], "no/graph.txt", "{t}/no/graph.txt: no directory {t}/no"),
        (["source.csv"], "graph.txt", "need at least 2 domain files (source first)"),
    ],
    ids=["out-in-missing-directory", "one-domain"],
)
def test_distance_graph_bad_arguments_exit_2_before_any_input(tmp_path, capsys, monkeypatch, domains, out, want):
    # each used to fail only after the checkpoint and every CSV had loaded
    calls = []
    for holder, name in ((cli, "load_csv"), (ckpt, "load_params")):
        monkeypatch.setattr(holder, name, lambda *args, name=name: calls.append(name))
    argv = ["distance-graph", "--checkpoint", str(tmp_path / "net.txt"),
            "--domains", *(str(tmp_path / d) for d in domains), "--out", str(tmp_path / out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {want.format(t=tmp_path)}\n"
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["d/../d/s.txt", "link/s.txt"], ids=["dot-dot", "symlink"])
def test_check_outputs_sees_one_file_under_two_spellings(tmp_path, spelling):
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "d")
    with pytest.raises(swda.InvalidInputError, match=re.escape(f"{tmp_path / spelling}: named by two outputs")):
        cli._check_outputs([tmp_path / "d" / "s.txt", tmp_path / spelling])


def test_generate_domain_file_that_is_a_directory_exit_2_before_any_file(tmp_path, capsys):
    # the domain files are named only once the spec is read, but all are
    # checked before the first is written
    (tmp_path / "spec.json").write_text(json.dumps({"num_classes": 2, "input_dim": 2, "samples_per_class": 3,
                                                    "transforms": [{}, {"rotation_deg": 10.0}]}))
    out = tmp_path / "data"
    (out / "target1.csv").mkdir(parents=True)
    assert main(["generate", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out / 'target1.csv'} is a directory\n"
    assert sorted(out.iterdir()) == [out / "target1.csv"]


def _child_env(**extra) -> dict:
    """_package_env() without OPENBLAS_NUM_THREADS, plus extra."""
    env = _package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return {**env, **extra}


def _child_blas_threads(code: str, env: dict) -> int:
    """The OpenBLAS thread count a fresh interpreter prints after running code."""
    read = "from swda.mathutils import _openblas_threads; print(_openblas_threads()[0]())"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{read}"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def _numpy_default_blas_threads() -> int:
    """OpenBLAS's thread count in a fresh interpreter that loads numpy without
    swda: the package is stubbed, so its __init__ never runs."""
    stub = (
        "import numpy, sys, types\n"
        f"sys.modules['swda'] = types.ModuleType('swda'); sys.modules['swda'].__path__ = [{str(Path(swda.__file__).parent)!r}]"
    )
    return _child_blas_threads(stub, _child_env())


@pytest.mark.parametrize(
    "code, extra, want",
    [
        pytest.param("import swda, os\nassert 'OPENBLAS_NUM_THREADS' not in os.environ", {}, 1, id="pinned"),
        pytest.param("import swda", {"OPENBLAS_NUM_THREADS": "2"}, 2, id="user-count-wins"),
        pytest.param("import numpy, swda", {}, None, id="numpy-first-keeps-its-default"),
        pytest.param("import swda.mathutils as m\nm._openblas_threads()[1](2)", {}, 2, id="set-raises-after-pin"),
    ],
)
def test_import_swda_loads_openblas_on_one_thread(code, extra, want):
    # an OpenBLAS worker thread busy-waits after it starts; swda loads numpy
    # with none unless the user chose a count or numpy was already loaded
    if mathutils._openblas_threads() is None:
        pytest.skip("no OpenBLAS mapped into this process")
    if want is None:
        want = _numpy_default_blas_threads()
    assert _child_blas_threads(code, _child_env(**extra)) == want


def test_train_single_spends_no_cpu_beyond_its_wall_time(tmp_path):
    # a single-threaded run; an idle OpenBLAS worker spinning beside it
    # would add its spin (about 0.1 s on two or more cores) to the CPU time
    if mathutils._openblas_threads() is None:
        pytest.skip("no OpenBLAS mapped into this process")
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path, {"max_iterations": 1500, "strong_refresh_period": 100})
    code = (
        "import resource, sys, time\n"
        "def cpu(): r = resource.getrusage(resource.RUSAGE_SELF); return r.ru_utime + r.ru_stime\n"
        "cpu0, wall0 = cpu(), time.perf_counter()\n"
        "import swda.cli\n"
        "rc = swda.cli.main(sys.argv[1:])\n"
        "print(cpu() - cpu0, time.perf_counter() - wall0)\n"
        "sys.exit(rc)\n"
    )
    argv = ["train-single", "--config", str(cfg_path), "--source", str(tmp_path / "source.csv"),
            "--target", str(tmp_path / "target.csv"), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    cpu_s, wall_s = map(float, proc.stdout.splitlines()[-1].split())
    assert cpu_s <= wall_s + 0.05


def test_train_multi_end_to_end(tmp_path):
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=15,
        transforms=[
            DomainTransform(),
            DomainTransform(rotation_deg=15.0),
            DomainTransform(rotation_deg=30.0, translation=(1.0, -1.0, 0.0, 0.5)),
        ],
        seed=2,
    )
    for dom in generate(spec):
        save_csv(dom, tmp_path / f"{dom.name}.csv")
    cfg_path, _ = write_config(tmp_path, extra={"max_iterations": 40, "strong_refresh_period": 20})
    out = tmp_path / "multi"
    rc = main(
        [
            "train-multi",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--targets",
            str(tmp_path / "target1.csv"),
            str(tmp_path / "target2.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    for name in ("target1", "target2"):
        assert (out / name / "metrics.json").exists()
        assert (out / name / "checkpoint.txt").exists()
    assert (out / "distance_graph.txt").exists()
    assert (out / "source_checkpoint.txt").exists()
    report = (out / "distance_graph.txt").read_text()
    assert "target2" in report


@pytest.mark.parametrize("command", ["train-multi", "distance-graph", "report"])
def test_features_overflowing_the_network_exit_3_naming_the_domain(tmp_path, capsys, command):
    # finite features whose first layer overflows are a numerical failure
    # wherever a command forwards them, as they are in training: train-multi
    # meets them in the distance graph, before any adaptation run
    _, target = write_dataset(tmp_path)
    save_csv(replace(target, samples=target.samples / np.abs(target.samples).max() * 1.7e308), tmp_path / "huge.csv")
    net = tmp_path / "net.txt"
    ckpt.save_params(net, init_params(NetworkConfig(input_dim=4, num_classes=3, bottleneck_dim=2), seed=0))
    cfg_path, _ = write_config(tmp_path)
    if command == "report":
        run_quick_training(tmp_path, "runs/r0")
    source, huge, out = str(tmp_path / "source.csv"), str(tmp_path / "huge.csv"), tmp_path / "out"
    argv = {
        "train-multi": ["--config", str(cfg_path), "--source", source, "--targets", str(tmp_path / "target.csv"), huge],
        "distance-graph": ["--checkpoint", str(net), "--domains", source, huge],
        "report": [
            "--runs", str(tmp_path / "runs"), "--scatter-checkpoint", str(net), "--scatter-domain", huge,
            "--scatter-out", str(tmp_path / "scatter.svg"),
        ],
    }[command]
    assert main([command, *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: domain 'huge': overflow encountered") and err.count("\n") == 1, err
    assert not out.exists() and not (tmp_path / "scatter.svg").exists()


def _fault_argv(tmp_path, case):
    """argv of a command that fails inside a run or a full-domain pass."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(40, 4)), rng.normal(size=(40, 4))
    labels = np.arange(40) % 3
    if case in ("source-step", "empty-class"):
        if case == "source-step":
            a[7] = 0.0  # the zero biases at init give this row a zero-norm feature in the first batch
            names, cfg = ("src0", "tgt0"), {}
        else:
            names, cfg = ("s", "t"), {
                "generator_hidden_dims": [8], "bottleneck_dim": 4, "tau": 2000.0, "batch_size": 8,
                "max_iterations": 40, "eta0_head": 0.5, "eta0_generator": 0.5, "strong_refresh_period": 10, "seed": 1,
            }
        save_csv(swda.Domain(names[0], a, labels), tmp_path / f"{names[0]}.csv")
        save_csv(swda.Domain(names[1], b), tmp_path / f"{names[1]}.csv")
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        return ["train-single", "--config", str(tmp_path / "c.json"), "--source", str(tmp_path / f"{names[0]}.csv"),
                "--target", str(tmp_path / f"{names[1]}.csv"), "--out", str(tmp_path / "out")]
    kind, command = case.split("/")
    net = tmp_path / "net.txt"
    ckpt.save_params(net, init_params(NetworkConfig(input_dim=4, num_classes=3, bottleneck_dim=2), seed=0))
    save_csv(swda.Domain("good", a, labels), tmp_path / "good.csv")
    save_csv(swda.Domain("good2", b), tmp_path / "good2.csv")
    if kind == "zero-norm":
        bad = tmp_path / "zero.csv"
        b[3] = 0.0  # with the checkpoint's zero biases, a zero-norm feature row
        save_csv(swda.Domain("zero", b), bad)
    else:
        bad = tmp_path / "wide.csv"
        save_csv(swda.Domain("wide", rng.normal(size=(40, 5))), bad)
    if command == "distance-graph":
        domains = [str(tmp_path / "good.csv"), str(tmp_path / "good2.csv"), str(bad)]
        return ["distance-graph", "--checkpoint", str(net), "--domains", *domains, "--out", str(tmp_path / "g.txt")]
    (tmp_path / "runs" / "r0").mkdir(parents=True)
    (tmp_path / "runs" / "r0" / "metrics.json").write_text(json.dumps({"final_accuracy": 0.5}))
    return ["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "summary.txt"),
            "--scatter-checkpoint", str(net), "--scatter-domain", str(bad), "--scatter-out", str(tmp_path / "s.svg")]


@pytest.mark.parametrize(
    "case, code, prefix",
    [
        ("source-step", 3, "target 'tgt0', iteration 1: source 'src0': a bottleneck feature row has zero norm"),
        ("empty-class", 3, "target 't', iteration 10: class 1 has zero total probability mass"),
        ("zero-norm/distance-graph", 3, "domain 'zero': a bottleneck feature row has zero norm"),
        ("zero-norm/report", 3, "domain 'zero': a bottleneck feature row has zero norm"),
        ("width/distance-graph", 2, "domain 'wide': inputs have 5 columns, network expects 4"),
        ("width/report", 2, "domain 'wide': inputs have 5 columns, network expects 4"),
    ],
)
def test_fault_in_a_run_or_pass_names_where_it_happened(tmp_path, capsys, case, code, prefix):
    # every failure inside a trainer loop or a full-domain pass keeps its
    # exit code and names its run and iteration, the source of a source
    # step, or its domain
    assert main(_fault_argv(tmp_path, case)) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}") and err.count("\n") == 1 and "unexpected" not in err, err


def test_train_multi_jobs_below_one_exit_2(tmp_path, capsys):
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "multi"
    rc = main(
        [
            "train-multi",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--targets",
            str(tmp_path / "target.csv"),
            "--out",
            str(out),
            "--jobs",
            "0",
        ]
    )
    assert rc == 2
    assert "error: --jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda line: re.sub(r"^\d+,", "7,", line), "domain 'bad' has labels [7] outside [0, 3)"),
        (lambda line: line.rsplit(",", 1)[0], "domain 'bad' has 3 columns; the network takes 4"),
    ],
    ids=["label-range", "width"],
)
def test_train_multi_bad_second_target_exit_2_before_training(tmp_path, capsys, monkeypatch, edit, message):
    # every target is checked before part 1 trains the first one
    write_dataset(tmp_path)
    lines = (tmp_path / "target.csv").read_text().splitlines()
    (tmp_path / "bad.csv").write_text("\n".join(edit(line) for line in lines) + "\n")
    runs = []
    monkeypatch.setattr(pipeline, "_adaptation_run", lambda *args: runs.append(args))
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "multi"
    rc = main(
        [
            "train-multi",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--targets",
            str(tmp_path / "target.csv"),
            str(tmp_path / "bad.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 2 and runs == []
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_train_multi_repeated_target_name_exit_2(tmp_path, capsys):
    # both targets would write to out/target/, the second over the first
    write_dataset(tmp_path)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        shutil.copy(tmp_path / "target.csv", tmp_path / sub / "target.csv")
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "multi"
    rc = main(
        [
            "train-multi",
            "--config",
            str(cfg_path),
            "--source",
            str(tmp_path / "source.csv"),
            "--targets",
            str(tmp_path / "a" / "target.csv"),
            str(tmp_path / "b" / "target.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "repeated target names ['target']" in err and "file stem" in err
    assert not out.exists()


@pytest.mark.parametrize("stem", ["..", "."])
def test_train_multi_dot_stem_target_exit_2_before_any_input(tmp_path, capsys, monkeypatch, stem):
    # a target's outputs go to out/<stem>/; a stem of ".." put them beside
    # --out (in dd/ for --out dd/o), and "." on top of the graph's directory
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    target = Path(shutil.copy(tmp_path / "target.csv", tmp_path / f"{stem}.csv"))
    out = tmp_path / "dd" / "o"
    calls = []
    for name in ("_load_json", "load_csv", "train_multi_target"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    argv = ["train-multi", "--config", str(cfg_path), "--source", str(tmp_path / "source.csv"),
            "--targets", str(target), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --targets: {target}: file stem {stem!r} names no directory of its own for its outputs\n"
    )
    assert calls == [] and not (tmp_path / "dd").exists()


@pytest.mark.parametrize("blocker", ["target", "distance_graph.txt", "source_checkpoint.txt", "graph-named-target"])
def test_train_multi_unwritable_output_exit_2_before_any_work(tmp_path, capsys, monkeypatch, blocker):
    # a file where a target's directory goes, or a directory where the graph
    # or the source checkpoint goes, used to fail only after all training;
    # so did a target whose directory is the graph's path
    write_dataset(tmp_path)
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "multi"
    out.mkdir()
    target = tmp_path / "target.csv"
    if blocker == "target":
        (out / blocker).write_text("")
        want = f"{out / blocker}: {out / blocker} is not a directory"
    elif blocker == "graph-named-target":
        target = Path(shutil.copy(target, tmp_path / "distance_graph.txt.csv"))
        want = f"{out / 'distance_graph.txt'}: named by two outputs"
    else:
        (out / blocker).mkdir()
        want = f"{out / blocker} is a directory"
    before = sorted(out.rglob("*"))
    calls = []
    for name in ("_load_json", "load_csv", "train_multi_target"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    argv = ["train-multi", "--config", str(cfg_path), "--source", str(tmp_path / "source.csv"),
            "--targets", str(target), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    assert calls == [] and sorted(out.rglob("*")) == before


@pytest.mark.parametrize(
    "command, own",
    [
        ("train-single", ["--target TARGET target CSV"]),
        (
            "train-multi",
            [
                "--targets TARGETS [TARGETS ...] target CSVs; each target's outputs go to a directory named by its file stem",
                "--jobs JOBS parallel per-target trainers: at most this many processes, this one included",
            ],
        ),
    ],
    ids=["train-single", "train-multi"],
)
def test_training_commands_document_every_option(capsys, command, own):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    shared = ["--config CONFIG flat JSON experiment config", "--source SOURCE labeled source CSV", "--out OUT output directory"]
    assert [line for line in shared + own if line not in text] == []


def _package_env() -> dict:
    """The environment of a child interpreter that imports the swda under test."""
    env = dict(os.environ)
    package_root = str(Path(swda.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _assert_full_help(command, env=None):
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "train-single" in proc.stdout
    assert "config file keys" in proc.stdout


def test_console_script_help():
    # The installer turns this mapping into the `swda` script.
    if tomllib is not None:
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["swda"] == "swda.cli:main"
    # Run the same `main` without an install, importing the `swda` under test.
    _assert_full_help([sys.executable, "-m", "swda", "--help"], _package_env())
    script = shutil.which("swda")
    if script is not None:
        _assert_full_help([script, "--help"])


def _exit_code(argv) -> tuple:
    """(exit code, stderr) of main(argv) in-process; argparse's own exits
    count as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def assert_contract(rc, err) -> None:
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err and "unexpected" not in err, err


# --- fuzzed report --scatter-* sets ----------------------------------------------
# Each example gives report a valid runs directory and any subset of the three
# scatter options, each naming a valid, damaged, mismatched, missing or odd file.

@pytest.fixture(scope="module")
def scatter_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scatter_fuzz")
    write_dataset(path)
    (path / "runs" / "r0").mkdir(parents=True)
    (path / "runs" / "r0" / "metrics.json").write_text('{"config": {}, "final_accuracy": 0.5}')
    for name, bottleneck in (("flat", 2), ("deep", 8)):
        params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(3,), bottleneck_dim=bottleneck), seed=0)
        ckpt.save_params(path / f"{name}.txt", params)
    source = load_csv(path / "source.csv")
    save_csv(replace(source, samples=source.samples[:, :3]), path / "narrow.csv")
    save_csv(replace(source, samples=source.samples / np.abs(source.samples).max() * 1.7e308), path / "huge.csv")
    return path


SCATTER_ODD = st.sampled_from(["missing", "dir", "", "empty", "nul"])


def _odd_path(case, kind: str) -> str:
    return {
        "missing": str(case / "no" / "such"),
        "dir": str(case),
        "": "",
        "empty": str(case / "empty.txt"),
        "nul": str(case / "a\x00b"),
    }[kind]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_scatter_options_exit_0_2_or_3_without_traceback(scatter_fuzz_dir, data):
    d = scatter_fuzz_dir
    case = d / "case"
    shutil.rmtree(case, ignore_errors=True)
    case.mkdir()
    (case / "empty.txt").write_text("")
    choice = {  # mostly valid, so that most examples reach the network
        "checkpoint": ["flat"] * 6 + ["deep", "fuzzed", "odd", "odd"],
        "domain": ["target"] * 5 + ["narrow", "huge", "huge", "fuzzed", "fuzzed", "odd", "odd"],
        "out": ["fresh"] * 6 + ["odd"],
    }
    argv = ["report", "--runs", str(d / "runs"), "--out", str(case / "summary.txt")]
    for option, kinds in choice.items():
        if data.draw(st.integers(0, 9)) == 0:
            continue  # an incomplete set
        kind = data.draw(st.sampled_from(kinds))
        if kind == "odd":
            kind = data.draw(SCATTER_ODD)
        if kind == "fuzzed" and option == "checkpoint":
            value = case / "ckpt.txt"
            value.write_bytes(data.draw(fuzzed_checkpoint((d / "flat.txt").read_text())))
        elif kind == "fuzzed":
            value = case / "domain.csv"
            value.write_bytes(data.draw(fuzzed_csv((d / "target.csv").read_text())))
        elif kind in ("flat", "deep"):
            value = d / f"{kind}.txt"
        elif kind in ("target", "narrow", "huge"):
            value = d / f"{kind}.csv"
        elif kind == "fresh":
            value = case / "scatter.svg"
        else:
            value = _odd_path(case, kind)
        argv += [f"--scatter-{option}", str(value)]
    assert_contract(*_exit_code(argv))


# --- fuzzed argv -----------------------------------------------------------------
# Each example starts from a valid command line of one subcommand (or none) and
# edits it token by token: options dropped, repeated, borrowed from another
# subcommand or given odd values, stray tokens, help flags. Every path is one
# name relative to the working directory, a fresh copy of the inputs for each
# example, so no example writes outside it or changes another's inputs.

ARGV_VALID = {
    "generate": [["--spec", "spec.json"], ["--out", "data"]],
    "train-single": [["--config", "config.json"], ["--source", "source.csv"], ["--target", "target.csv"], ["--out", "run"]],
    "train-multi": [
        ["--config", "config.json"],
        ["--source", "source.csv"],
        ["--targets", "target.csv", "mid.csv"],
        ["--out", "multi"],
        ["--jobs", "1"],
    ],
    "distance-graph": [["--checkpoint", "net.txt"], ["--domains", "source.csv", "target.csv"], ["--out", "graph.txt"]],
    "report": [["--runs", "runs"], ["--out", "summary.txt"]],
}
ARGV_OPTIONS = sorted({pair[0] for pairs in ARGV_VALID.values() for pair in pairs}) + [
    "--scatter-checkpoint",
    "--scatter-domain",
    "--scatter-out",
    "--help",
    "-h",
    "--",
    "--targ",
    "--bogus",
]
ARGV_VALUES = st.one_of(
    st.sampled_from(["source.csv", "target.csv", "mid.csv", "config.json", "spec.json", "net.txt", "runs", "manifest"]),
    st.sampled_from(["", "-", "-1", "0", "2", "64", "1.5", "x", "1_0", str(2**63), "9" * 5000, "a\x00b", "\x00"]),
    st.sampled_from(["missing.csv", "\ufeff", "été.csv", "\ud800", "\udcff", " ", "--jobs=2", "-h"]),
    st.text(st.characters(blacklist_characters="/.", blacklist_categories=("Cs",)), max_size=6),
)


@st.composite
def fuzzed_argv(draw) -> list:
    command = draw(st.sampled_from(sorted(ARGV_VALID) + ["", "bogus"]))
    pairs = [list(pair) for pair in ARGV_VALID.get(command, [])]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "value", "value", "option", "repeat", "stray"]))
        if op in ("drop", "value", "repeat") and not pairs:
            continue
        i = draw(st.integers(0, max(len(pairs) - 1, 0)))
        if op == "drop":
            del pairs[i]
        elif op == "value":
            pairs[i][draw(st.integers(1, len(pairs[i]) - 1)) if len(pairs[i]) > 1 else 0] = draw(ARGV_VALUES)
        elif op == "repeat":
            pairs.insert(i, list(pairs[i]))
        elif op == "option":
            pairs.insert(i, [draw(st.sampled_from(ARGV_OPTIONS))] + draw(st.lists(ARGV_VALUES, max_size=2)))
        else:
            pairs.insert(i, [draw(ARGV_VALUES)])
    return ([command] if command else []) + [token for pair in pairs for token in pair]


@pytest.fixture(scope="module")
def argv_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv_fuzz")
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=10,
        transforms=[DomainTransform(), DomainTransform(rotation_deg=15.0), DomainTransform(rotation_deg=30.0)],
        seed=1,
    )
    for domain, name in zip(generate(spec), ("source", "mid", "target")):
        save_csv(domain, path / f"{name}.csv")
    config = {**SMALL_CONFIG, "max_iterations": 4, "strong_refresh_period": 2, "accuracy_eval_period": 2}
    (path / "config.json").write_text(json.dumps(config))
    (path / "spec.json").write_text(json.dumps({"num_classes": 2, "input_dim": 2, "samples_per_class": 3, "transforms": [{}]}))
    ckpt.save_params(path / "net.txt", init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(3,)), seed=0))
    (path / "runs" / "r0").mkdir(parents=True)
    (path / "runs" / "r0" / "metrics.json").write_text('{"config": {}, "final_accuracy": 0.5}')
    return path


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_exits_0_2_or_3_without_traceback(argv_fuzz_dir, argv):
    work, cwd = argv_fuzz_dir.with_name(argv_fuzz_dir.name + "_work"), os.getcwd()
    shutil.copytree(argv_fuzz_dir, work)
    os.chdir(work)
    try:
        assert_contract(*_exit_code(argv))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
