"""End-to-end trainer behavior: determinism, schedules, paired ablations
and metrics serialization."""

import gc
import json
import logging
import os
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from swda import mathutils, pipeline, scaffolding
from swda.config import ExperimentConfig
from swda.datasets import IDENTITY, Domain, DomainTransform, SyntheticSpec, generate
from swda.errors import InvalidDatasetError, InvalidInputError
from swda.losses import LossWeights
from swda.network import ForwardResult, NetworkConfig
from swda.pipeline import (
    evaluate,
    loss_curves_csv,
    metrics_to_json,
    part3_seed,
    train_multi_target,
    train_single_target,
)
from swda.scaffolding import donor_slots, peer_donors, peer_masks, train_source_only


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
    assert sorted(result.pseudo_sets) == donor_slots(peer_masks(result.graph))  # part 1 runs for donors only
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
    # each part-3 iteration draws its peer replacements with one
    # _draw_donors call; record the donor count of every class it draws for
    calls = []
    real = pipeline._draw_donors

    def spy(starts, counts, rng):
        calls.append(counts.tolist())
        return real(starts, counts, rng)

    monkeypatch.setattr(pipeline, "_draw_donors", spy)
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
    assert all(counts and min(counts) >= 1 for counts in calls)


def test_every_adaptation_step_calls_the_network_by_its_module_bindings(monkeypatch):
    # perfbench times forward, backward and sgd_step by replacing these
    # names in pipeline and scaffolding; a step that went around them would
    # drop out of its trace. Each iteration makes a source step and a
    # target step: two backward passes and two optimizer steps, and at
    # least two forward passes (evaluation and refreshes add more)
    names = ("forward", "backward", "sgd_step")
    calls = dict.fromkeys(names, 0)
    for module in (pipeline, scaffolding):
        for name in names:
            real = getattr(module, name)

            def spy(*args, real=real, name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    runs = []
    real_run = pipeline._adaptation_run

    def run_spy(config, *args):
        before = dict(calls)
        out = real_run(config, *args)
        runs.append((config.max_iterations, {name: calls[name] - before[name] for name in names}))
        return out

    monkeypatch.setattr(pipeline, "_adaptation_run", run_spy)
    source, target = tiny_problem()
    train_single_target(tiny_config(), source, target)
    assert len(runs) == 1
    source, t1, t2 = source_and_two_targets()
    train_multi_target(tiny_config(max_iterations=80), source, [t1, t2])
    assert len(runs) >= 3  # part 3 runs once per target, part 1 once per donor
    for iterations, made in runs:
        assert made["backward"] == made["sgd_step"] == 2 * iterations
        assert made["forward"] >= 2 * iterations


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
    # part 3 runs one trainer per target and part 1 one per donor, but the
    # config is the same for all of them, so the warning comes once
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


def _spy_part1(monkeypatch) -> list:
    slots = []
    real = pipeline._part1_task

    def spy(args):
        slots.append(args[3])
        return real(args)

    monkeypatch.setattr(pipeline, "_part1_task", spy)
    return slots


def test_part1_runs_only_for_donor_slots(monkeypatch):
    # on the two-target problem only the mid target (slot 1) is anyone's
    # peer, and a single target has no peers, so it trains no part 1 at all
    slots = _spy_part1(monkeypatch)
    source, t1, t2 = source_and_two_targets()
    train_multi_target(tiny_config(max_iterations=80), source, [t1, t2], jobs=1)
    assert slots == [1]
    slots.clear()
    source, target = tiny_problem()
    result = train_multi_target(tiny_config(), source, [target], jobs=1)
    assert slots == [] and result.pseudo_sets == {}


def test_pseudo_sets_hold_the_donor_slots_parts():
    # each donor's pool is the harvest of its own part-1 run, which draws
    # from a seed derived from its slot alone
    source, t1, t2 = source_and_two_targets()
    cfg = tiny_config(max_iterations=80)
    result = train_multi_target(cfg, source, [t1, t2], jobs=2)
    assert sorted(result.pseudo_sets) == donor_slots(peer_masks(result.graph)) == [1]
    got = result.pseudo_sets[1]
    want = pipeline._part1_task((cfg, source, t1, 1))
    assert len(got.pools) == len(want.pools)
    for a, b in zip(got.pools, want.pools):
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_skipping_part1_leaves_every_part3_output_unchanged(monkeypatch):
    # slot 3 is rotated away from the other two: it has no peers and is no
    # one's peer, so its part-1 run is skipped; every part-3 output must
    # still equal the one built from the pools of all three part-1 runs
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=20,
        transforms=[IDENTITY] + [DomainTransform(rotation_deg=deg) for deg in (15.0, 30.0, -30.0)],
        seed=1,
    )
    source, *targets = generate(spec)
    cfg = tiny_config(max_iterations=80)
    slots = _spy_part1(monkeypatch)
    result = train_multi_target(cfg, source, targets, jobs=1)
    assert slots == [1]
    masks = peer_masks(result.graph)
    assert not masks[3].any() and not masks[:, 3].any()
    every_pool = {slot: pipeline._part1_task((cfg, source, t, slot)) for slot, t in enumerate(targets, start=1)}
    for slot, (t, (params, metrics)) in enumerate(zip(targets, result.per_target), start=1):
        want_params, want_metrics = pipeline._part3_task(
            (cfg, source, t, slot, peer_donors(result.graph, slot, every_pool))
        )
        assert params_equal(params, want_params)
        assert metrics_to_json(metrics) == metrics_to_json(want_metrics)


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


def _spy_forks(monkeypatch) -> list:
    """The pids os.fork returns to this process from now on."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def test_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # a lane per task at most, this process running the first
    source, t1, t2 = source_and_two_targets()
    cfg = tiny_config(max_iterations=40)
    serial = train_multi_target(cfg, source, [t1, t2], jobs=1)
    forks = _spy_forks(monkeypatch)
    wide = train_multi_target(cfg, source, [t1, t2], jobs=64)
    assert len(forks) == 1  # part 1 runs its one donor in-process; part 3 forks one child for two targets
    for (ps, ms), (pw, mw) in zip(serial.per_target, wide.per_target):
        assert params_equal(ps, pw) and metrics_to_json(ms) == metrics_to_json(mw)


def _task_and_pid(t):
    return t, os.getpid()


@pytest.mark.parametrize("jobs, lanes", [(2, 2), (64, 5)])
def test_run_tasks_returns_results_in_task_order(jobs, lanes):
    got = pipeline._run_tasks(_task_and_pid, list(range(5)), jobs)
    assert [t for t, _ in got] == list(range(5))
    pids = [pid for _, pid in got]
    assert pids[0::lanes] == [os.getpid()] * len(pids[0::lanes])  # lane 0 runs here
    assert len(set(pids)) == lanes


def test_run_tasks_child_ending_without_a_reply_raises():
    with pytest.raises(ChildProcessError, match="lane 1 ended with exit status 1 and no reply"):
        pipeline._run_tasks(lambda t: os._exit(1) if t else t, [0, 1], 2)


def _fail_or_wait(failing):
    """A task that raises on the task failing and sleeps on any other but 0,
    so a child still running when the call ends must be killed."""

    def task(t):
        if t == failing:
            raise InvalidInputError(f"task {t} failed")
        if t:
            time.sleep(60)
        return t

    return task


@pytest.mark.parametrize("fn, raises", [
    pytest.param(_task_and_pid, None, id="success"),
    pytest.param(_fail_or_wait(0), "task 0 failed", id="parent-lane-raises"),
    pytest.param(_fail_or_wait(1), "task 1 failed", id="child-lane-raises"),
])
def test_run_tasks_leaves_no_child_behind(monkeypatch, fn, raises):
    forks = _spy_forks(monkeypatch)
    start = time.monotonic()
    if raises is None:
        pipeline._run_tasks(fn, [0, 1, 2], 3)
    else:
        with pytest.raises(InvalidInputError, match=raises):
            pipeline._run_tasks(fn, [0, 1, 2], 3)
    assert time.monotonic() - start < 30  # no sleeping child was waited for
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):  # reaped already
            os.waitpid(pid, 0)


def test_run_tasks_starts_no_thread():
    before = threading.active_count()
    source, t1, t2 = source_and_two_targets()
    train_multi_target(tiny_config(max_iterations=40), source, [t1, t2], jobs=2)
    assert threading.active_count() == before


def test_run_tasks_without_fork_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert pipeline._run_tasks(_task_and_pid, [0, 1, 2], 3) == [(t, os.getpid()) for t in range(3)]


@pytest.mark.parametrize("jobs", [0, -3, True, 1.0, "2", None])
def test_multi_target_rejects_jobs_that_are_not_a_positive_int(monkeypatch, jobs):
    trained = []
    monkeypatch.setattr(pipeline, "train_source_only", lambda *args: trained.append(args))
    source, t1, t2 = source_and_two_targets()
    with pytest.raises(InvalidInputError, match=f"jobs must be an int >= 1, got {re.escape(repr(jobs))}"):
        train_multi_target(tiny_config(), source, [t1, t2], jobs=jobs)
    assert trained == []


def openblas_or_skip():
    threads = mathutils._openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS mapped into this process")
    return threads


@pytest.mark.parametrize(
    "iterations, accuracy_period, solo_checks, end_passes",
    [
        pytest.param(120, 40, 0, 0, id="40-0"),
        pytest.param(120, 30, 3, 0, id="30-3"),
        pytest.param(110, 30, 3, 1, id="110-iterations-30-3"),  # neither period divides 110
    ],
)
def test_full_target_passes_are_shared(monkeypatch, iterations, accuracy_period, solo_checks, end_passes):
    # one forward pass per source step and per target step; a refresh
    # (every 40 iterations) serves an accuracy check due on the same
    # iteration, and the end of the run scores and harvests from the last
    # refresh's pass when the last iteration refreshed, else from one pass
    source, target = tiny_problem()
    passes, solo = [], []
    forward, evaluate = pipeline.forward, pipeline.evaluate
    monkeypatch.setattr(pipeline, "forward", lambda *args: passes.append(1) or forward(*args))
    monkeypatch.setattr(scaffolding, "forward", lambda *args: passes.append(1) or forward(*args))
    monkeypatch.setattr(pipeline, "evaluate", lambda *args: solo.append(1) or evaluate(*args))
    cfg = tiny_config(max_iterations=iterations, accuracy_eval_period=accuracy_period)
    _, metrics, _ = train_single_target(cfg, source, target)
    assert metrics.accuracy_iterations == list(range(accuracy_period, iterations + 1, accuracy_period))
    assert len(solo) == solo_checks
    assert len(passes) == 2 * iterations + iterations // 40 + solo_checks + end_passes


@pytest.mark.parametrize("iterations", [120, 110])
def test_end_of_run_scores_the_returned_params(iterations):
    # whether the end of the run reuses the last refresh's pass (120) or
    # makes its own (110), the final accuracy and the pool are those of a
    # fresh pass with the returned parameters
    source, target = tiny_problem()
    cfg = tiny_config(max_iterations=iterations)
    params, metrics, pseudo = train_single_target(cfg, source, target)
    probs = pipeline.forward(params, target.samples).probs
    assert metrics.final_accuracy == scaffolding.accuracy(probs, target.labels)
    want = pipeline.harvest_pseudo_strong(target.samples, probs, cfg.weights.lam)
    assert [len(pool) for pool in pseudo.pools] == [len(pool) for pool in want.pools]
    for got, ref in zip(pseudo.pools, want.pools):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_no_full_target_forward_result_lives_through_a_refresh(monkeypatch):
    # a refresh reads only the pass's normalized features and probabilities;
    # the pass's backward cache (hidden, raw features, logits) is freed first
    source, target = tiny_problem()
    alive = []
    update_strong_set = pipeline.update_strong_set

    def counting(*args):
        alive.append(
            sum(isinstance(o, ForwardResult) and o.probs.shape[0] == target.n for o in gc.get_objects())
        )
        return update_strong_set(*args)

    monkeypatch.setattr(pipeline, "update_strong_set", counting)
    train_single_target(tiny_config(), source, target)
    assert alive == [0, 0, 0]


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


def test_multi_target_runs_part_2_on_one_blas_thread_and_restores_count(monkeypatch):
    # part 2's full-domain passes run outside any adaptation run, so only
    # the decorator on train_multi_target keeps them off a second thread
    get, set_ = openblas_or_skip()
    seen = []

    def recording(*args, **kwargs):
        seen.append(get())
        return centroids_for_domains(*args, **kwargs)

    centroids_for_domains = pipeline.centroids_for_domains
    monkeypatch.setattr(pipeline, "centroids_for_domains", recording)
    before = get()
    set_(2)
    try:
        source, t1, t2 = source_and_two_targets()
        train_multi_target(tiny_config(max_iterations=80), source, [t1, t2])
        assert seen == [1]
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
