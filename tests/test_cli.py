"""Command line front end: exit codes, artifact layout, determinism and
agreement with the library API."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swda
from swda import checkpoint as ckpt
from swda import cli, pipeline
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
    ],
)
def test_generate_spec_value_of_wrong_type_or_range_exit_2(tmp_path, capsys, doc, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and key in errors[0] and "unexpected" not in errors[0]
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


def test_config_data_conflict_exit_2(tmp_path):
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
        ("source_iterations", "2.0", "source_iterations must be an integer or null"),
        ("num_classes", '"3"', "num_classes must be an integer or null"),
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
FUZZ_KEYS = st.sampled_from(sorted(cli.KNOWN_CONFIG_KEYS) + ["num_runs", ""])


@st.composite
def fuzzed_config(draw):
    doc = {**SMALL_CONFIG, "max_iterations": 5, "strong_refresh_period": 2, "accuracy_eval_period": 2}
    doc.update(draw(st.dictionaries(FUZZ_KEYS, FUZZ_VALUES, max_size=3)))
    for key in ("max_iterations", "source_iterations"):
        if type(doc.get(key)) is int and doc[key] > 5:
            doc[key] = 5
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
    assert "Traceback" not in err.getvalue()


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


@pytest.mark.parametrize("which", ["checkpoint", "config", "spec", "metrics"])
def test_non_utf8_input_exit_2_naming_its_line(tmp_path, capsys, which):
    write_dataset(tmp_path)
    source, target = str(tmp_path / "source.csv"), str(tmp_path / "target.csv")
    out = tmp_path / "out"
    if which == "checkpoint":
        path = tmp_path / "net.txt"
        ckpt.save_params(path, init_params(NetworkConfig(input_dim=4, num_classes=3), seed=0))
        argv = ["distance-graph", "--checkpoint", str(path), "--domains", source, target, "--out", str(out)]
    elif which == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL_CONFIG, indent=1))
        argv = ["train-single", "--config", str(path), "--source", source, "--target", target, "--out", str(out)]
    elif which == "spec":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"num_classes": 2, "input_dim": 2, "samples_per_class": 3, "transforms": [{}]}, indent=1))
        argv = ["generate", "--spec", str(path), "--out", str(out)]
    else:
        path = tmp_path / "runs" / "r0" / "metrics.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"config": {}, "final_accuracy": 0.5}, indent=1))
        argv = ["report", "--runs", str(tmp_path / "runs"), "--out", str(out)]
    _ff_on_line(path, 3)
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith("line 3: byte 0xff is not UTF-8 text"), err
    assert "unexpected" not in err and not out.exists()


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


def test_num_runs_config_key_exit_2(tmp_path, capsys):
    # repeated runs are train-single with different seeds, aggregated by
    # report; the other keys were single-valued options, now constants
    write_dataset(tmp_path)
    for key in ("num_runs", "schedule_a", "schedule_b", "source_eval_period", "pseudo_pool_cap"):
        cfg_path, _ = write_config(tmp_path, extra={key: 3})
        assert run_train_single(tmp_path, cfg_path) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


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
    "label, num_classes, message",
    [
        ("-1", None, "line 6: negative label -1"),
        ("9", 3, "has labels [9] outside [0, 3)"),
        ("99999999999999999999999", None, "line 6: label 99999999999999999999999 does not fit in int64"),
    ],
    ids=["negative", "outside-num-classes", "outside-int64"],
)
def test_bad_source_label_exit_2(tmp_path, capsys, label, num_classes, message):
    # caught where the data is loaded, not when a batch first draws the row
    write_dataset(tmp_path)
    lines = (tmp_path / "source.csv").read_text().splitlines()
    lines[5] = label + "," + lines[5].split(",", 1)[1]
    (tmp_path / "source.csv").write_text("\n".join(lines) + "\n")
    cfg_path, _ = write_config(tmp_path, extra={"num_classes": num_classes})
    assert run_train_single(tmp_path, cfg_path) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
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
    assert len(errors) == 1 and re.fullmatch(rf"error: line \d+: {re.escape(message)}", errors[0]), errors
    assert not (tmp_path / "graph.txt").exists()


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
        op = draw(st.sampled_from(["set", "set", "drop", "add", "repeat"]))
        if op == "repeat":  # a duplicate key, or one block too many values
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
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
        (lambda line: line.rsplit(",", 1)[0], "source and target 'bad' dimensionality differ"),
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
    env = dict(os.environ)
    package_root = str(Path(swda.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    _assert_full_help([sys.executable, "-m", "swda", "--help"], env)
    script = shutil.which("swda")
    if script is not None:
        _assert_full_help([script, "--help"])
