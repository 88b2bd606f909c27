"""Acceptance gate: ten numbered checks covering gradients, oracles,
analytic loss values, structural invariants and end-to-end adaptation
gains. Each check prints a single PASS line with its measured numbers
(visible with -s); the two training-heavy checks sit at the end.
"""

import json
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from oracles import assign_labels as oracle_assign_labels
from oracles import centroids as oracle_centroids
from oracles import distance_graph as oracle_distance_graph
from oracles import peer_qualifies as oracle_peer_qualifies
from oracles import strong_choices as oracle_strong_choices
from swda.cli import main as cli_main
from swda.config import ExperimentConfig
from swda.datasets import (
    DomainTransform,
    SyntheticSpec,
    generate,
    load_csv,
    make_between_geometry,
    save_csv,
    standard_between_spec,
    standard_shift_spec,
)
from swda.losses import (
    adversarial_logit_loss,
    cross_entropy,
    info_max_loss,
    strong_weak_loss,
)
from swda.mathutils import finite_diff_gradient, softmax
from swda.network import (
    NetworkConfig,
    backward,
    forward,
    init_params,
)
from swda.pipeline import (
    evaluate,
    metrics_to_json,
    part3_seed,
    train_multi_target,
    train_single_target,
)
from swda.repsets import (
    StrongEntry,
    StrongSet,
    WeakEntry,
    WeakSet,
    assign_pseudo_labels,
    compute_centroids,
    empty_weak_set,
    fuse,
    select_sw_batch,
    update_strong_set,
    update_weak_set,
)
from swda.scaffolding import (
    DistanceGraph,
    DomainCentroids,
    build_distance_graph,
    peer_qualifies,
    qualifying_fraction,
    train_source_only,
)

REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray) -> None:
    err = np.abs(analytic - numeric)
    bound = np.maximum(REL_TOL * np.abs(numeric), ABS_FLOOR)
    worst = int(np.argmax(err - bound))
    assert np.all(err <= bound), (
        f"param {worst}: analytic {analytic[worst]!r} numeric {numeric[worst]!r}"
    )


def report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:2d} ({name}): PASS  [{detail}]")


# --- 1: analytic gradients vs central finite differences ----------------------

def test_criterion_01_loss_gradients_match_finite_differences():
    t0 = time.perf_counter()
    # small temperature keeps every probability far from the clamping
    # floor, so the finite-difference oracle itself stays well conditioned
    cfg = NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(8,), bottleneck_dim=6, tau=2.0)
    checked = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed)
        x = rng.normal(size=(12, 4))
        labels = rng.integers(0, 3, size=12)
        cases = {
            "ce": lambda fwd: cross_entropy(fwd.probs, labels),
            "im": lambda fwd: info_max_loss(fwd.probs),
            # lam=0 holds the confidence gate open for every sample
            "all": lambda fwd: adversarial_logit_loss(fwd.logits, fwd.probs, 0.0),
            "sw": lambda fwd: strong_weak_loss(fwd.probs, labels),
        }
        vec = params.flat
        for name, make_loss in cases.items():
            fwd = forward(params, x)
            analytic = backward(params, fwd, make_loss(fwd).grad_wrt_logits).flat

            def value_at(v):
                return make_loss(forward(params.with_flat(v), x)).value

            numeric = finite_diff_gradient(value_at, vec)
            assert_grad_close(analytic, numeric)
            checked += vec.size
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "gradient oracle", f"4 losses x 5 seeds, {checked} params, {elapsed:.1f}s")


# --- 2: gradient reversal contract --------------------------------------------

def test_criterion_02_gradient_reversal_exact_negation():
    t0 = time.perf_counter()
    params = init_params(NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(8,), bottleneck_dim=6), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 4))
    fwd = forward(params, x)
    g = rng.normal(size=fwd.logits.shape)
    plain = backward(params, fwd, g)
    flipped = backward(params, fwd, g, reverse_below_classifier=True)
    assert np.array_equal(flipped.classifier, plain.classifier)
    for a, b in zip(flipped.generator, plain.generator):
        assert np.array_equal(a.weight, -b.weight)
        assert np.array_equal(a.bias, -b.bias)
    assert np.array_equal(flipped.bottleneck.weight, -plain.bottleneck.weight)
    assert np.array_equal(flipped.bottleneck.bias, -plain.bottleneck.bias)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "gradient reversal", f"exact negation below classifier, {elapsed:.2f}s")


# --- 3: brute-force oracles ---------------------------------------------------

def test_criterion_03_brute_force_oracles_match_exactly():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(2, 6))
        d = int(rng.integers(2, 9))
        P = softmax(rng.normal(size=(n, k)) * 3.0)
        V = rng.normal(size=(n, d))
        X = rng.normal(size=(n, d + 1))

        C = compute_centroids(P, V)
        assert np.array_equal(C, np.array(oracle_centroids(P.tolist(), V.tolist())))

        labels = assign_pseudo_labels(V, C)
        assert labels.tolist() == oracle_assign_labels(V.tolist(), C.tolist())

        strong = update_strong_set(X, V, P, "d")
        for j, i in enumerate(oracle_strong_choices(X.tolist(), V.tolist(), P.tolist())):
            assert np.array_equal(strong.entries[j].x, X[i])

    for _ in range(100):
        M = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(2, 9))
        mats = rng.normal(size=(M, k, d))
        G = build_distance_graph(DomainCentroids(list(mats), [np.ones(k, dtype=bool)] * M))
        assert np.array_equal(G.tensor, np.array(oracle_distance_graph([m.tolist() for m in mats])))

    for _ in range(100):
        M = int(rng.integers(3, 6))
        k = int(rng.integers(1, 6))
        T = np.zeros((M, M, k))
        for a in range(M):
            for b in range(a + 1, M):
                T[a, b] = T[b, a] = rng.random(k)
        G = DistanceGraph(T, np.ones((M, M, k), dtype=bool))
        i = int(rng.integers(1, M))
        j = int(rng.choice([v for v in range(1, M) if v != i]))
        l = int(rng.integers(k))
        assert peer_qualifies(G, i, j, l) == oracle_peer_qualifies(T.tolist(), i, j, l)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, "brute-force oracles", f"5 functions x 100 instances, exact, {elapsed:.1f}s")


# --- 4: reference distance triple ---------------------------------------------

def _graph3(d_s1: float, d_s2: float, d_12: float) -> DistanceGraph:
    T = np.zeros((3, 3, 1))
    T[0, 1, 0] = T[1, 0, 0] = d_s1
    T[0, 2, 0] = T[2, 0, 0] = d_s2
    T[1, 2, 0] = T[2, 1, 0] = d_12
    return DistanceGraph(T, np.ones((3, 3, 1), dtype=bool))


def test_criterion_04_reference_distances_qualify():
    t0 = time.perf_counter()
    # domain 1 sits between the source and domain 2: closer to the source
    # than domain 2 is, and closer to domain 2 than the source is
    assert peer_qualifies(_graph3(0.07, 0.2, 0.16), 2, 1, 0)
    # violate only the closer-to-source criterion
    assert not peer_qualifies(_graph3(0.25, 0.2, 0.16), 2, 1, 0)
    # violate only the closer-to-target criterion
    assert not peer_qualifies(_graph3(0.07, 0.2, 0.25), 2, 1, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, "reference distances", f"(0.07, 0.2, 0.16) + both violations, {elapsed:.2f}s")


# --- 5: analytic loss values --------------------------------------------------

def test_criterion_05_loss_analytic_values():
    t0 = time.perf_counter()
    k = 4
    uniform = np.full((8, k), 1.0 / k)
    assert abs(info_max_loss(uniform).value) <= 1e-9

    one_hot = np.eye(k)  # one confident row per class: uniform marginal
    assert abs(info_max_loss(one_hot).value - (-np.log(k))) <= 1e-9

    b_s = 6
    h = 1e-6
    for p in (0.1, 0.5, 0.9):
        rows = np.tile([p, (1.0 - p) / 2.0, (1.0 - p) / 2.0], (b_s, 1))
        labels = np.zeros(b_s, dtype=np.int64)
        up, down = rows.copy(), rows.copy()
        up[0, 0] += h
        down[0, 0] -= h
        slope = (strong_weak_loss(up, labels).value - strong_weak_loss(down, labels).value) / (2.0 * h)
        assert abs(slope - (-1.0 / b_s)) <= 1e-9
        assert abs(strong_weak_loss(rows, labels).value - (1.0 - p)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, "analytic loss values", f"IM endpoints + flat SW slope at 3 probs, {elapsed:.2f}s")


# --- 6: single-target adaptation gain -----------------------------------------

def test_criterion_06_single_target_beats_source_only():
    t0 = time.perf_counter()
    adapted, baseline = [], []
    for seed in range(5):
        source, target = generate(standard_shift_spec(seed))
        cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=seed, max_iterations=3000)
        run_start = time.perf_counter()
        _, metrics, _ = train_single_target(cfg, source, target)
        assert time.perf_counter() - run_start < 60.0
        adapted.append(metrics.final_accuracy)
        baseline.append(evaluate(train_source_only(cfg, source), target))
    gain = float(np.mean(adapted) - np.mean(baseline))
    assert gain >= 0.05, f"mean adapted {np.mean(adapted):.4f} vs source-only {np.mean(baseline):.4f}"
    elapsed = time.perf_counter() - t0
    report(
        6,
        "single-target gain",
        f"mean {np.mean(adapted):.3f} vs {np.mean(baseline):.3f} (+{100 * gain:.1f}pp), {elapsed:.0f}s",
    )


# --- 7: peer scaffolding on the between geometry ------------------------------

def test_criterion_07_multi_target_matches_or_beats_single():
    t0 = time.perf_counter()
    multi, single, fracs = [], [], []
    for seed in range(5):
        src, t_mid, t_far = make_between_geometry(standard_between_spec(seed))
        cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=seed, max_iterations=3000)
        result = train_multi_target(cfg, src, [t_mid, t_far])
        multi.append(result.per_target[1][1].final_accuracy)
        fracs.append(qualifying_fraction(result.graph, 2))
        # the paired seed replays the far-target run stream for stream,
        # so the only difference left is the peer replacement itself
        paired = replace(cfg, seed=part3_seed(cfg.seed, 1))
        _, m_single, _ = train_single_target(paired, src, t_far)
        single.append(m_single.final_accuracy)
    mean_multi = float(np.mean(multi))
    mean_single = float(np.mean(single))
    assert mean_multi >= mean_single, f"multi {mean_multi:.4f} < single {mean_single:.4f}"
    assert min(fracs) >= 0.6, f"qualifying fractions {fracs}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        7,
        "peer scaffolding gain",
        f"far-target mean {mean_multi:.3f} vs {mean_single:.3f}, "
        f"min qualifying {min(fracs):.2f}, {elapsed:.0f}s",
    )


# --- 8: loss-curve shape and determinism --------------------------------------

def test_criterion_08_loss_curves_and_determinism():
    t0 = time.perf_counter()
    source, target = generate(standard_shift_spec(0))
    cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=0)
    _, m1, _ = train_single_target(cfg, source, target)
    _, m2, _ = train_single_target(cfg, source, target)

    assert all(v == 0.0 for v in m1.loss_sw[: cfg.strong_refresh_period])

    def moving_avg(series, it, w=10):
        return float(np.mean(series[it - w : it]))

    early, late = moving_avg(m1.loss_im, 10), moving_avg(m1.loss_im, 1000)
    assert late < early, f"IM moving average rose: {early:.4f} -> {late:.4f}"

    assert metrics_to_json(m1) == metrics_to_json(m2)
    elapsed = time.perf_counter() - t0
    report(
        8,
        "loss-curve shape",
        f"SW silent for {cfg.strong_refresh_period} its, IM {early:.3f}->{late:.3f}, "
        f"identical rerun, {elapsed:.0f}s",
    )


# --- 9: randomized structural invariants --------------------------------------

def test_criterion_09_randomized_structural_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    for _ in range(1000):
        M = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        d = int(rng.integers(2, 6))
        mats = rng.normal(size=(M, k, d))
        G = build_distance_graph(DomainCentroids(list(mats), [np.ones(k, dtype=bool)] * M))
        assert np.array_equal(G.tensor, np.swapaxes(G.tensor, 0, 1))
        assert np.all(G.tensor[np.arange(M), np.arange(M)] == 0.0)

    lam = 0.8
    k, dim = 4, 3
    weak = empty_weak_set(k)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        probs = softmax(rng.normal(size=(n, k)) * 4.0)
        batch = rng.normal(size=(n, dim))
        prev = weak.entries
        weak = update_weak_set(weak, batch, probs, lam)
        top = np.argmax(probs, axis=1)
        top_p = probs[np.arange(n), top]
        for j, entry in enumerate(weak.entries):
            rows = np.flatnonzero((top == j) & (top_p > lam))
            if rows.size:
                # replaced by this batch's best above-threshold row
                assert entry.prob == top_p[rows[np.argmax(top_p[rows])]]
            else:
                assert entry is prev[j]  # no qualifying row: entry untouched
            if entry is not None:
                assert entry.prob > lam

    for _ in range(1000):
        s = rng.normal(size=(k, dim))
        w = rng.normal(size=(k, dim))
        strong = StrongSet([StrongEntry(s[j], "t") for j in range(k)])
        weak_full = WeakSet([WeakEntry(w[j], 0.9) for j in range(k)])
        fused = fuse(strong, weak_full, rng)
        for j in range(k):
            lo = np.minimum(s[j], w[j]) - 1e-12
            hi = np.maximum(s[j], w[j]) + 1e-12
            assert np.all(fused[j] >= lo) and np.all(fused[j] <= hi)

    for _ in range(1000):
        present = rng.random(k) < 0.7
        fused = [rng.normal(size=dim) if present[j] else None for j in range(k)]
        preds = rng.integers(0, k, size=int(rng.integers(1, 13)))
        batch = select_sw_batch(fused, preds)
        kept = [int(p) for p in preds if present[p]]
        assert Counter(batch.pseudo_labels.tolist()) == Counter(kept)
        assert batch.pseudo_labels.tolist() == kept  # original order kept
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, "structural invariants", f"4 properties x 1000 cases, {elapsed:.1f}s")


# --- 10: CLI/API equivalence and CSV round trip -------------------------------

def test_criterion_10_cli_api_equivalence_and_csv_idempotence(tmp_path):
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        num_classes=3,
        input_dim=4,
        samples_per_class=20,
        transforms=[
            DomainTransform(),
            DomainTransform(rotation_deg=20.0, translation=(1.0, -0.5, 0.5, 0.0), noise_scale=1.1),
        ],
        seed=0,
    )
    source, target = generate(spec)
    save_csv(source, tmp_path / "source.csv")
    save_csv(target, tmp_path / "target.csv")
    cfg_doc = {
        "generator_hidden_dims": [16],
        "bottleneck_dim": 8,
        "batch_size": 16,
        "max_iterations": 60,
        "strong_refresh_period": 30,
        "accuracy_eval_period": 30,
        "seed": 0,
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg_doc))
    out = tmp_path / "run"
    rc = cli_main(
        [
            "train-single",
            "--config",
            str(tmp_path / "config.json"),
            "--source",
            str(tmp_path / "source.csv"),
            "--target",
            str(tmp_path / "target.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0

    config = ExperimentConfig(
        network=NetworkConfig(input_dim=4, num_classes=3, generator_hidden_dims=(16,), bottleneck_dim=8),
        batch_size=16,
        max_iterations=60,
        strong_refresh_period=30,
        accuracy_eval_period=30,
        seed=0,
    )
    _, metrics, _ = train_single_target(config, source, target)
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["final_accuracy"] == metrics.final_accuracy  # bit identical

    first = (tmp_path / "source.csv").read_bytes()
    save_csv(load_csv(tmp_path / "source.csv"), tmp_path / "source2.csv")
    assert (tmp_path / "source2.csv").read_bytes() == first
    unlabeled = replace(target, labels=None)
    save_csv(unlabeled, tmp_path / "t1.csv")
    save_csv(load_csv(tmp_path / "t1.csv"), tmp_path / "t2.csv")
    assert (tmp_path / "t2.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    report(10, "CLI/API equivalence", f"identical accuracy + CSV idempotence, {elapsed:.1f}s")
