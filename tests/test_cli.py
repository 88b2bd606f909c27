"""Command line front end: exit codes, artifact layout, determinism and
agreement with the library API."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swda
from swda import checkpoint as ckpt
from swda import cli
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
    [("-1", None, "line 6: negative label -1"), ("9", 3, "has labels [9] outside [0, 3)")],
    ids=["negative", "outside-num-classes"],
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
    ],
    ids=["config-null", "target-list", "final-str", "final-list", "final-bool", "final-nan", "final-inf"],
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
