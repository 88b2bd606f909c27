"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_quartile_spread():
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert stats.quartile_spread([2.0, 2.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        stats.quartile_spread([1.0])
    with pytest.raises(ValueError):
        stats.quartile_spread([-1.0, 0.0, 1.0])


def test_metric_names_checked():
    stats.check_metric_names(["run_s", "repsets.update_strong_set.self_s", "a-b.0"])
    for bad in (["run s"], [""], ["_x"], ["x" * 65], ["a/b"], ["ok", "ok"]):
        with pytest.raises(ValueError):
            stats.check_metric_names(bad)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_enclosed_spans():
    # outer runs 0..10 and encloses two inner calls, 1..3 and 4..8
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0]))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    assert tracer.spans["inner"] == [2, 6.0, 6.0]
    assert tracer.spans["outer"] == [1, 10.0, 4.0]
    assert tracer.covered_s() == 10.0


def test_span_closed_when_call_raises():
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0]))

    def boom():
        raise RuntimeError("x")

    failing = tracer.wrap("failing", boom)

    def outer_body():
        with pytest.raises(RuntimeError):
            failing()

    tracer.wrap("outer", outer_body)()
    assert tracer.spans["failing"] == [1, 1.0, 1.0]
    assert tracer.spans["outer"] == [1, 5.0, 4.0]


def test_merge_adds_spans_and_counts():
    a, b = spans.Tracer(), spans.Tracer()
    a.spans["x"] = [1, 2.0, 1.0]
    a.counts["rows"] = 3
    b.merge(json.loads(json.dumps(a.to_json())))
    b.merge(a.to_json())
    assert b.spans["x"] == [2, 4.0, 2.0]
    assert b.counts["rows"] == 6


def test_installed_patches_every_binding_and_restores():
    import swda
    import swda.cli
    import swda.network
    import swda.pipeline
    import swda.scaffolding

    original = swda.network.forward
    holders = [swda, swda.network, swda.pipeline, swda.scaffolding, swda.cli]
    with spans.installed(spans.Tracer()):
        for module in holders:
            assert module.forward is not original
            assert module.forward.__wrapped__ is original
    for module in holders:
        assert module.forward is original


def test_traced_training_counts_and_matches_untraced():
    from swda.config import ExperimentConfig
    from swda.datasets import generate, standard_shift_spec
    from swda.network import NetworkConfig
    from swda.pipeline import train_single_target

    source, target = generate(standard_shift_spec(0))
    cfg = ExperimentConfig(network=NetworkConfig(8, 6), max_iterations=30, strong_refresh_period=10)
    _, plain, _ = train_single_target(cfg, source, target)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        _, traced, _ = train_single_target(cfg, source, target)
    assert traced.final_accuracy == plain.final_accuracy
    assert traced.loss_ce == plain.loss_ce
    metrics = spans.layer_metrics(tracer, runs=1)
    assert metrics["repsets.update_strong_set.calls"][0] == 3
    assert metrics["repsets.compute_centroids.calls"][0] == 3
    strong_busy = metrics["repsets.update_strong_set.busy_s"][0]
    children = metrics["repsets.compute_centroids.busy_s"][0] + metrics["repsets.assign_pseudo_labels.busy_s"][0]
    assert metrics["repsets.update_strong_set.self_s"][0] == pytest.approx(strong_busy - children)
    # 3 forward calls per iteration minus the missing L_SW batch before the
    # first refresh, plus refreshes, evaluations and the final harvest
    assert metrics["network.forward.calls"][0] > 60
    assert 0.0 <= metrics["losses.adversarial_logit_loss.gate_frac"][0] <= 1.0


class StubWorkload:
    """Stands in for a workload so the report can be built without training."""

    def __init__(self):
        self.calls = 0

    def setup_once(self):
        return 0.25

    def peak_rss_mb(self):
        return 40.0

    def run(self, tracer=None):
        self.calls += 1
        return run.Run(1.0 + 0.1 * (tracer is not None), 2.0, 0.5)


def test_reports_name_exactly_the_declared_metrics():
    e2e, attempted, failed = run.end_to_end(StubWorkload(), seconds=0)
    assert (attempted, failed) == (1, 0)
    layer, attempted, failed = run.traced(StubWorkload(), seconds=0)
    assert (attempted, failed) == (2, 0)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    for declared, emitted in ((BENCHMARK["end_to_end"], e2e), (BENCHMARK["per_layer"], layer)):
        for m in declared:
            assert emitted[m["name"]][1] == m["unit"]
    stats.check_metric_names(list(e2e) + list(layer))
    assert layer["trace.overhead_frac"][0] == pytest.approx(0.1)


def test_failed_step_is_counted_and_loop_goes_on():
    def step():
        raise run.CheckFailed("bad output")

    assert run.closed_loop(0, step) == (1, 1)
    run.same_accuracy([run.Run(1.0, 1.0, 0.5), run.Run(2.0, 1.0, 0.5)])
    with pytest.raises(run.CheckFailed):
        run.same_accuracy([run.Run(1.0, 1.0, 0.5), run.Run(1.0, 1.0, 0.6)])
