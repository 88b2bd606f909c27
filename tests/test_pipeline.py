"""End-to-end trainer behavior: determinism, schedules, paired ablations
and metrics serialization."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from swda import mathutils, pipeline, scaffolding
from swda.config import ExperimentConfig
from swda.datasets import IDENTITY, Domain, DomainTransform, SyntheticSpec, generate
from swda.errors import InvalidDatasetError, InvalidInputError
from swda.losses import LossWeights
from swda.network import NetworkConfig
from swda.pipeline import (
    evaluate,
    loss_curves_csv,
    metrics_to_json,
    part3_seed,
    train_multi_target,
    train_single_target,
)
from swda.scaffolding import peer_donors, train_source_only


def tiny_problem(seed: int = 0, shift: bool = True):
    t = DomainTransform(
        rotation_deg=20.0, translation=(1.0, -0.5, 0.5, 0.0), noise_scale=1.1
    ) if shift else IDENTITY
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=25,
        transforms=[IDENTITY, t],
        seed=seed,
    )
    return generate(spec)


def tiny_config(**kw) -> ExperimentConfig:
    base = dict(
        network=NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8),
        batch_size=16,
        max_iterations=120,
        strong_refresh_period=40,
        accuracy_eval_period=40,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def params_equal(a, b) -> bool:
    return np.array_equal(a.flat, b.flat)


def test_single_target_deterministic():
    source, target = tiny_problem()
    p1, m1, _ = train_single_target(tiny_config(), source, target)
    p2, m2, _ = train_single_target(tiny_config(), source, target)
    assert params_equal(p1, p2)
    assert metrics_to_json(m1) == metrics_to_json(m2)


def test_seed_changes_run():
    source, target = tiny_problem()
    _, m1, _ = train_single_target(tiny_config(seed=0), source, target)
    _, m2, _ = train_single_target(tiny_config(seed=1), source, target)
    assert m1.loss_ce != m2.loss_ce


def test_loss_sw_silent_until_first_refresh():
    # the strong set only exists after the first refresh, so the
    # strong-weak term must read exactly zero before it
    source, target = tiny_problem()
    cfg = tiny_config()
    _, metrics, _ = train_single_target(cfg, source, target)
    head = metrics.loss_sw[: cfg.strong_refresh_period]
    assert all(v == 0.0 for v in head)
    assert any(v != 0.0 for v in metrics.loss_sw[cfg.strong_refresh_period :])


def test_accuracy_eval_schedule():
    source, target = tiny_problem()
    _, metrics, _ = train_single_target(tiny_config(), source, target)
    assert metrics.accuracy_iterations == [40, 80, 120]
    assert len(metrics.accuracy_series) == 3
    assert metrics.final_accuracy is not None


def test_unlabeled_target_skips_accuracy():
    source, target = tiny_problem()
    blind = replace(target, labels=None)
    params, metrics, _ = train_single_target(tiny_config(), source, blind)
    assert metrics.final_accuracy is None
    assert metrics.accuracy_series == []
    with pytest.raises(InvalidDatasetError):
        evaluate(params, blind)


def test_im_loss_bounded_and_ends_negative():
    # the uniformity objective lives in [-log k, log k]; once predictions
    # sharpen with balanced marginals it settles below zero
    source, target = tiny_problem()
    _, metrics, _ = train_single_target(tiny_config(max_iterations=400), source, target)
    bound = np.log(3) + 1e-9
    assert all(-bound <= v <= bound for v in metrics.loss_im)
    assert float(np.mean(metrics.loss_im[-20:])) < 0.0


def test_identical_domains_high_accuracy():
    source, target = tiny_problem(shift=False)
    _, metrics, _ = train_single_target(tiny_config(max_iterations=300), source, target)
    assert metrics.final_accuracy >= 0.9


def test_empty_or_mismatched_target_rejected():
    source, target = tiny_problem()
    empty = Domain("t", np.zeros((0, 4)))
    with pytest.raises(InvalidDatasetError):
        train_single_target(tiny_config(), source, empty)
    narrow = Domain("t", target.samples[:, :3])
    with pytest.raises(InvalidInputError):
        train_single_target(tiny_config(), source, narrow)


def test_target_label_outside_classes_rejected():
    source, target = tiny_problem()
    bad = Domain("t", target.samples, np.full(target.n, 7))
    with pytest.raises(InvalidDatasetError, match=r"domain 't' has labels \[7\] outside \[0, 3\)"):
        train_single_target(tiny_config(), source, bad)


def test_ablation_weights_run():
    # k3=0 drops the strong-weak gradient (the loss is still logged);
    # lam=1.0 keeps every strict gate shut; both must train cleanly
    source, target = tiny_problem()
    cfg = tiny_config(weights=LossWeights(k3=0.0, lam=1.0))
    _, metrics, _ = train_single_target(cfg, source, target)
    for series in (metrics.loss_ce, metrics.loss_im, metrics.loss_all, metrics.loss_sw):
        assert all(np.isfinite(series))
    # with the gate shut no target prediction ever crosses it
    assert all(v == 0.0 for v in metrics.loss_all)


def test_multi_target_structure():
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=25,
        transforms=[
            IDENTITY,
            DomainTransform(rotation_deg=15.0, noise_scale=1.1),
            DomainTransform(rotation_deg=30.0, translation=(1.5, -1.0, 0.0, 0.5)),
        ],
        seed=0,
    )
    source, t1, t2 = generate(spec)
    result = train_multi_target(tiny_config(), source, [t1, t2])
    assert len(result.per_target) == 2
    assert result.graph.tensor.shape == (3, 3, 3)
    assert sorted(result.pseudo_sets) == [1, 2]
    assert np.allclose(result.graph.tensor, np.swapaxes(result.graph.tensor, 0, 1), equal_nan=True)


def test_part3_disabled_matches_paired_single_run():
    # one target has no peers, so peer replacement is disabled in effect and
    # part 3 must replay the exact single-target run whose seed part3_seed
    # exposes; this is the matched-pair contract ablations rely on
    source, target = tiny_problem()
    cfg = tiny_config()
    result = train_multi_target(cfg, source, [target])
    paired = replace(cfg, seed=part3_seed(cfg.seed, 0))
    params, metrics, _ = train_single_target(paired, source, target)
    got_params, got_metrics = result.per_target[0]
    assert params_equal(got_params, params)
    assert metrics_to_json(got_metrics) == metrics_to_json(metrics)


def _count_replacements(monkeypatch) -> list:
    calls = []
    real = pipeline.replace_with_peers

    def spy(own, donors, rng):
        calls.append(donors)
        return real(own, donors, rng)

    monkeypatch.setattr(pipeline, "replace_with_peers", spy)
    return calls


def test_single_target_multi_replacement_noop(monkeypatch):
    # one target has no peers, so neither part 1 nor part 3 has donors, and
    # a run without donors makes no replacement call at all
    calls = _count_replacements(monkeypatch)
    source, target = tiny_problem()
    train_multi_target(tiny_config(), source, [target])
    assert calls == []


def test_single_target_run_makes_no_replacement_call(monkeypatch):
    calls = _count_replacements(monkeypatch)
    source, target = tiny_problem()
    train_single_target(tiny_config(), source, target)
    assert calls == []


def test_part3_run_with_donors_replaces_every_iteration_after_a_refresh(monkeypatch):
    calls = _count_replacements(monkeypatch)
    source, t1, t2 = source_and_two_targets()
    cfg = tiny_config(max_iterations=80)
    result = train_multi_target(cfg, source, [t1, t2])
    donor_runs = sum(any(peer_donors(result.graph, slot, result.pseudo_sets)) for slot in (1, 2))
    assert donor_runs >= 1
    assert len(calls) == donor_runs * (cfg.max_iterations - cfg.strong_refresh_period)
    assert all(any(donors) for donors in calls)


def test_peer_qualification_runs_once_per_part3_run(monkeypatch):
    # the graph and the peer pools are frozen before part 3, so qualification
    # is decided once per target, not once per iteration
    source, t1, t2 = source_and_two_targets()
    real = scaffolding._qualifying
    counts = []
    for iterations in (80, 160):
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scaffolding, "_qualifying", spy)
        train_multi_target(tiny_config(max_iterations=iterations), source, [t1, t2])
        counts.append(len(calls))
    n = 2
    assert counts == [n, n]  # one (peer, class) mask per target


def test_refresh_period_warning_logged_once_per_multi_target_call(caplog):
    # parts 1 and 3 run one trainer per target, but the config is the same
    # for all of them, so the warning comes once
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=20,
        transforms=[IDENTITY, DomainTransform(rotation_deg=15.0), DomainTransform(rotation_deg=30.0)],
        seed=1,
    )
    source, t1, t2 = generate(spec)
    cfg = tiny_config(max_iterations=40, strong_refresh_period=40)
    with caplog.at_level(logging.WARNING, logger="swda"):
        train_multi_target(cfg, source, [t1, t2])
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        "strong_refresh_period 40 >= max_iterations 40: no strong set exists before the "
        "last iteration, so the strong-weak loss L_SW never runs"
    ]


def source_and_two_targets():
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=20,
        transforms=[
            IDENTITY,
            DomainTransform(rotation_deg=15.0),
            DomainTransform(rotation_deg=30.0),
        ],
        seed=1,
    )
    return generate(spec)


def test_multi_target_jobs_deterministic():
    source, t1, t2 = source_and_two_targets()
    cfg = tiny_config(max_iterations=80)
    serial = train_multi_target(cfg, source, [t1, t2], jobs=1)
    parallel = train_multi_target(cfg, source, [t1, t2], jobs=2)
    for (ps, ms), (pp, mp) in zip(serial.per_target, parallel.per_target):
        assert params_equal(ps, pp)
        assert metrics_to_json(ms) == metrics_to_json(mp)
        # params come back from the worker processes as pickles; their
        # layer arrays must still be views into flat
        for layer in (*pp.generator, pp.bottleneck):
            assert np.shares_memory(layer.weight, pp.flat) and np.shares_memory(layer.bias, pp.flat)
        assert np.shares_memory(pp.classifier, pp.flat)


def test_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # under fork a ProcessPoolExecutor starts all max_workers processes at
    # the first submit; this fake records the count and runs in-process
    source, t1, t2 = source_and_two_targets()
    cfg = tiny_config(max_iterations=40)
    serial = train_multi_target(cfg, source, [t1, t2], jobs=1)
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessPool)
    wide = train_multi_target(cfg, source, [t1, t2], jobs=64)
    assert started == [2, 2]  # part 1 and part 3, one worker per target
    for (ps, ms), (pw, mw) in zip(serial.per_target, wide.per_target):
        assert params_equal(ps, pw) and metrics_to_json(ms) == metrics_to_json(mw)


def openblas_or_skip():
    threads = mathutils._openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS mapped into this process")
    return threads


@pytest.mark.parametrize("accuracy_period, solo_checks", [(40, 0), (30, 3)])
def test_full_target_passes_are_shared(monkeypatch, accuracy_period, solo_checks):
    # one forward pass per source step and per target step; a refresh
    # (every 40 of 120 iterations) serves an accuracy check due on the same
    # iteration, and the end of the run scores and harvests from one pass
    source, target = tiny_problem()
    passes, solo = [], []
    forward, evaluate = pipeline.forward, pipeline.evaluate
    monkeypatch.setattr(pipeline, "forward", lambda *args: passes.append(1) or forward(*args))
    monkeypatch.setattr(scaffolding, "forward", lambda *args: passes.append(1) or forward(*args))
    monkeypatch.setattr(pipeline, "evaluate", lambda *args: solo.append(1) or evaluate(*args))
    _, metrics, _ = train_single_target(tiny_config(accuracy_eval_period=accuracy_period), source, target)
    assert metrics.accuracy_iterations == list(range(accuracy_period, 121, accuracy_period))
    assert len(solo) == solo_checks
    assert len(passes) == 2 * 120 + 3 + solo_checks + 1


def test_training_runs_on_one_blas_thread_and_restores_count(monkeypatch):
    get, set_ = openblas_or_skip()
    seen = []

    def recording(*args, **kwargs):
        seen.append(get())
        return update_strong_set(*args, **kwargs)

    update_strong_set = pipeline.update_strong_set
    monkeypatch.setattr(pipeline, "update_strong_set", recording)
    before = get()
    set_(2)
    try:
        source, target = tiny_problem()
        train_single_target(tiny_config(), source, target)
        assert seen == [1, 1, 1]
        assert get() == 2
    finally:
        set_(before)


def test_serial_blas_restores_count_when_the_block_raises():
    get, set_ = openblas_or_skip()
    before = get()
    set_(2)
    try:
        source, target = tiny_problem()
        with pytest.raises(InvalidDatasetError, match="is empty"):
            train_single_target(tiny_config(), source, replace(target, samples=target.samples[:0], labels=None))
        assert get() == 2
        with pytest.raises(InvalidDatasetError, match="missing classes"):
            train_source_only(tiny_config(), replace(source, labels=np.zeros_like(source.labels)))
        assert get() == 2
    finally:
        set_(before)


def test_serial_blas_does_nothing_without_openblas(monkeypatch, tmp_path):
    get, set_ = openblas_or_skip()
    maps = tmp_path / "maps"
    maps.write_text("7f0000000000-7f0000001000 r-xp 00000000 00:00 0  /usr/lib/libblas.so.3\n")
    monkeypatch.setattr(mathutils, "_PROC_MAPS", str(maps))
    assert mathutils._openblas_threads() is None
    before = get()
    set_(2)
    try:
        with mathutils.serial_blas():
            assert get() == 2
        assert get() == 2
    finally:
        set_(before)


def test_part3_seed_distinct_per_target():
    seeds = {part3_seed(0, i) for i in range(4)}
    assert len(seeds) == 4
    assert part3_seed(0, 0) != part3_seed(1, 0)


def test_no_targets_rejected():
    source, _ = tiny_problem()
    with pytest.raises(InvalidInputError):
        train_multi_target(tiny_config(), source, [])


def test_metrics_json_document():
    source, target = tiny_problem()
    _, metrics, _ = train_single_target(tiny_config(), source, target)
    doc = json.loads(metrics_to_json(metrics, config_echo={"seed": 0}))
    assert doc["config"] == {"seed": 0}
    assert len(doc["loss_ce"]) == 120
    assert doc["final_accuracy"] == metrics.final_accuracy
    assert "wall_clock_seconds" not in doc


def test_loss_curves_csv_round_trips_floats():
    source, target = tiny_problem()
    _, metrics, _ = train_single_target(tiny_config(max_iterations=40), source, target)
    lines = loss_curves_csv(metrics).strip().split("\n")
    assert lines[0] == "iteration,loss_ce,loss_im,loss_all,loss_sw"
    assert len(lines) == 41
    for i, line in enumerate(lines[1:]):
        it, ce, im, al, sw = line.split(",")
        assert int(it) == i
        assert float(ce) == metrics.loss_ce[i]
        assert float(im) == metrics.loss_im[i]
        assert float(al) == metrics.loss_all[i]
        assert float(sw) == metrics.loss_sw[i]
