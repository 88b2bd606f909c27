import logging
import re

import numpy as np
import pytest

from oracles import distance_graph as oracle_distance_graph
from oracles import peer_qualifies as oracle_peer_qualifies
from swda import scaffolding
from swda.config import ExperimentConfig
from swda.datasets import Domain, generate, standard_shift_spec
from swda.errors import InvalidDatasetError, InvalidInputError, NotInitializedError
from swda.network import NetworkConfig, forward, init_params
from swda.pipeline import train_single_target
from swda.repsets import PseudoStrongSet, StrongEntry, StrongSet, compute_centroids
from swda.scaffolding import (
    DistanceGraph,
    DomainCentroids,
    build_distance_graph,
    centroids_for_domains,
    check_source_classes,
    compute_domain_centroids,
    format_distance_report,
    peer_donors,
    peer_qualifies,
    qualifying_fraction,
    replace_with_peers,
    train_source_only,
)

NET = NetworkConfig(input_dim=4, generator_hidden_dims=(8,), bottleneck_dim=6, num_classes=3)


def graph_from_distances(d_s1, d_s2, d_12):
    """3-domain graph (source + 2 targets) with one class per argument set."""
    k = len(d_s1)
    tensor = np.zeros((3, 3, k))
    tensor[0, 1] = tensor[1, 0] = d_s1
    tensor[0, 2] = tensor[2, 0] = d_s2
    tensor[1, 2] = tensor[2, 1] = d_12
    return DistanceGraph(tensor, np.ones((3, 3, k), dtype=bool))


# --- source-only pretraining --------------------------------------------------

def test_check_source_classes():
    dom = Domain("s", np.zeros((4, 2)), labels=[0, 0, 1, 1])
    check_source_classes(dom, 2)
    with pytest.raises(InvalidDatasetError):
        check_source_classes(dom, 3)
    with pytest.raises(InvalidDatasetError):
        check_source_classes(Domain("u", np.zeros((2, 2))), 2)


def test_check_source_classes_names_a_few_of_many_missing_classes():
    # a config file's num_classes may be absurd; the check must not list them all
    dom = Domain("s", np.zeros((4, 2)), labels=[0, 0, 2, 2])
    with pytest.raises(InvalidDatasetError, match=r"missing classes \[1\]$"):
        check_source_classes(dom, 3)
    with pytest.raises(InvalidDatasetError) as exc:
        check_source_classes(dom, 10**400)
    assert str(exc.value).endswith(f"missing classes [1, 3, 4, 5, 6, 7, 8, 9, 10, 11] and {10**400 - 12} more")


def test_cross_entropy_clamps_are_reported_once_per_run(caplog):
    # a sharp temperature, large steps and labels unrelated to the inputs
    # push true-class probabilities under PROB_FLOOR on most iterations
    rng = np.random.default_rng(0)
    source = Domain("s", rng.normal(size=(40, 4)), np.arange(40) % 2)
    target = Domain("t", rng.normal(size=(40, 4)))
    net = NetworkConfig(4, 2, (8,), 4, tau=400.0)
    cfg = ExperimentConfig(
        net, batch_size=8, max_iterations=40, eta0_head=0.5, eta0_generator=0.5, strong_refresh_period=10
    )
    with caplog.at_level(logging.WARNING):
        train_source_only(cfg, source)
        train_single_target(cfg, source, target)
    lines = [r.getMessage() for r in caplog.records if "cross_entropy clamped" in r.getMessage()]
    assert [line.split(":")[0] for line in lines] == ["source-only training", "target 't'"]
    for line in lines:
        entries, iterations = map(int, re.search(r"clamped (\d+) .* over (\d+) iterations", line).groups())
        assert 1 < iterations <= 40 and entries >= iterations


def test_train_source_only_zero_budget_returns_init():
    src = generate(standard_shift_spec(0))[0]
    cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=3, source_iterations=0)
    params = train_source_only(cfg, src)
    assert np.array_equal(params.flat, init_params(cfg.network, 3).flat)


def test_train_source_only_learns_and_is_deterministic():
    src = generate(standard_shift_spec(0))[0]
    cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=0, source_iterations=400)
    params = train_source_only(cfg, src)
    acc = float(np.mean(np.argmax(forward(params, src.samples).probs, axis=1) == src.labels))
    assert acc > 0.8
    again = train_source_only(cfg, src)
    assert np.array_equal(params.flat, again.flat)


def test_train_source_only_keeps_best_check_and_stops_after_two_drops(monkeypatch):
    # a rise, a tie (which resets the drop count) and two drops in a row
    src = generate(standard_shift_spec(0))[0]
    cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=0, source_iterations=1000)
    scores = iter([0.5, 0.7, 0.6, 0.7, 0.6, 0.5])
    seen = []

    def spy(params, domain):
        assert domain is src
        seen.append(params.flat.copy())
        return next(scores)

    monkeypatch.setattr(scaffolding, "evaluate", spy)
    params = train_source_only(cfg, src)
    assert len(seen) == 6
    assert np.array_equal(params.flat, seen[1])
    assert not np.array_equal(seen[1], seen[3])  # the tie did not replace the best


# --- centroids and the distance graph -----------------------------------------

def test_compute_domain_centroids_matches_repsets_bitwise():
    params = init_params(NET, 1)
    x = np.random.default_rng(1).normal(size=(20, 4))
    fwd = forward(params, x)
    C, valid = compute_domain_centroids(params, x)
    assert np.all(valid)
    assert np.array_equal(C, compute_centroids(fwd.probs, fwd.norm_features))


def test_centroids_for_domains_rejects_empty():
    params = init_params(NET, 0)
    with pytest.raises(InvalidDatasetError):
        centroids_for_domains(params, [Domain("empty", np.zeros((0, 4)))])


def test_build_distance_graph_matches_oracle_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        M, k, d = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        cents = [rng.normal(size=(k, d)) for _ in range(M)]
        dc = DomainCentroids(cents, [np.ones(k, dtype=bool)] * M)
        G = build_distance_graph(dc)
        expect = np.array(oracle_distance_graph([c.tolist() for c in cents]))
        assert np.array_equal(G.tensor, expect)
        assert np.all(G.valid)


def test_graph_symmetry_and_zero_diagonal():
    rng = np.random.default_rng(3)
    cents = [rng.normal(size=(4, 5)) for _ in range(3)]
    G = build_distance_graph(DomainCentroids(cents, [np.ones(4, dtype=bool)] * 3))
    assert np.array_equal(G.tensor, G.tensor.transpose(1, 0, 2))
    for a in range(3):
        assert np.all(G.tensor[a, a] == 0.0)


def test_graph_invalid_class_propagates():
    rng = np.random.default_rng(4)
    cents = [rng.normal(size=(2, 3)) for _ in range(2)]
    masks = [np.array([True, False]), np.array([True, True])]
    G = build_distance_graph(DomainCentroids(cents, masks))
    assert G.valid[0, 1, 0]
    assert not G.valid[0, 1, 1]
    assert G.tensor[0, 1, 1] == 0.0


def test_graph_requires_two_domains_same_shape():
    one = DomainCentroids([np.zeros((2, 2))], [np.ones(2, dtype=bool)])
    with pytest.raises(InvalidInputError):
        build_distance_graph(one)
    bad = DomainCentroids(
        [np.zeros((2, 2)), np.zeros((3, 2))], [np.ones(2, dtype=bool), np.ones(3, dtype=bool)]
    )
    with pytest.raises(InvalidInputError):
        build_distance_graph(bad)


# --- peer criteria ------------------------------------------------------------

def test_peer_criteria_reference_distances():
    # d(S, Ti) = 0.2, d(S, Tj) = 0.07, d(Ti, Tj) = 0.16: Tj lies between the
    # source and Ti, so it qualifies; pushing either distance past d(S, Ti)
    # breaks exactly one criterion
    G = graph_from_distances([0.07], [0.2], [0.16])
    assert peer_qualifies(G, i=2, j=1, l=0)
    # criterion 1 violated: peer farther from the source than the target
    G1 = graph_from_distances([0.25], [0.2], [0.16])
    assert not peer_qualifies(G1, i=2, j=1, l=0)
    # criterion 2 violated: peer on the far side, not in between
    G2 = graph_from_distances([0.07], [0.2], [0.3])
    assert not peer_qualifies(G2, i=2, j=1, l=0)


def test_peer_criteria_strict_inequalities():
    G = graph_from_distances([0.2], [0.2], [0.1])
    assert not peer_qualifies(G, i=2, j=1, l=0)  # tie on criterion 1
    G = graph_from_distances([0.1], [0.2], [0.2])
    assert not peer_qualifies(G, i=2, j=1, l=0)  # tie on criterion 2


def test_peer_criteria_match_oracle_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = rng.uniform(0.0, 2.0, size=3)
        G = graph_from_distances([d[0]], [d[1]], [d[2]])
        assert peer_qualifies(G, 2, 1, 0) == oracle_peer_qualifies(G.tensor, 2, 1, 0)


def test_peer_criteria_index_validation():
    G = graph_from_distances([0.1], [0.2], [0.1])
    with pytest.raises(InvalidInputError):
        peer_qualifies(G, 0, 1, 0)
    with pytest.raises(InvalidInputError):
        peer_qualifies(G, 1, 1, 0)
    with pytest.raises(InvalidInputError):
        peer_qualifies(G, 2, 1, 5)


def test_peer_criteria_invalid_entry_disqualifies():
    G = graph_from_distances([0.07], [0.2], [0.16])
    G.valid[1, 2, 0] = G.valid[2, 1, 0] = False
    assert not peer_qualifies(G, 2, 1, 0)


def test_qualifying_fraction_counts_classes():
    # class 0 qualifies via T1; class 1 fails criterion 2; class 2 fails
    # criterion 1; class 3 qualifies
    G = graph_from_distances(
        [0.07, 0.07, 0.30, 0.10],
        [0.20, 0.20, 0.20, 0.20],
        [0.16, 0.25, 0.10, 0.05],
    )
    assert qualifying_fraction(G, 2) == 0.5
    # swapping roles: only class 2 (where T1 is the farther domain) lets T2 help
    assert qualifying_fraction(G, 1) == 0.25


# --- peer replacement ---------------------------------------------------------

def _own_strong(k, dim=2):
    return StrongSet([StrongEntry(np.full(dim, float(j)), "own") for j in range(k)])


def test_replace_with_peers_swaps_only_qualifying_classes():
    G = graph_from_distances([0.07, 0.30], [0.20, 0.20], [0.16, 0.10])
    own = _own_strong(2)
    peers = {1: PseudoStrongSet([[np.array([9.0, 9.0])], [np.array([7.0, 7.0])]])}
    out = replace_with_peers(own, peer_donors(G, 2, peers), np.random.default_rng(0))
    assert np.array_equal(out.entries[0].x, [9.0, 9.0])  # class 0 qualified
    assert out.entries[0].domain == "target1"
    assert np.array_equal(out.entries[1].x, [1.0, 1.0])  # class 1 kept its own
    assert out.entries[1].domain == "own"
    # input set untouched
    assert np.array_equal(own.entries[0].x, [0.0, 0.0])


def test_replace_with_peers_skips_empty_pools():
    G = graph_from_distances([0.07], [0.20], [0.16])
    own = _own_strong(1)
    donors = peer_donors(G, 2, {1: PseudoStrongSet([[]])})
    assert donors == [[]]
    out = replace_with_peers(own, donors, np.random.default_rng(0))
    assert out.entries[0] is own.entries[0]


def test_replace_with_peers_requires_populated_set():
    G = graph_from_distances([0.07], [0.20], [0.16])
    with pytest.raises(NotInitializedError):
        replace_with_peers(StrongSet([None]), peer_donors(G, 2, {}), np.random.default_rng(0))


def test_replace_with_peers_uniform_over_pool():
    # 10000 draws over a 4-sample pool: each frequency within 0.25 +- 0.02
    G = graph_from_distances([0.07], [0.20], [0.16])
    own = _own_strong(1)
    pool = [np.array([float(v), 0.0]) for v in range(4)]
    donors = peer_donors(G, 2, {1: PseudoStrongSet([pool])})
    rng = np.random.default_rng(42)
    counts = np.zeros(4)
    for _ in range(10000):
        out = replace_with_peers(own, donors, rng)
        counts[int(out.entries[0].x[0])] += 1
    freqs = counts / 10000.0
    assert np.all(np.abs(freqs - 0.25) < 0.02), freqs


def test_replace_with_peers_pools_multiple_peers():
    # 4 domains: source, T1, T2, T3; helping T3, both T1 and T2 qualify on
    # the single class, so the union of their pools is drawn from
    k = 1
    tensor = np.zeros((4, 4, k))
    for (a, b), v in {(0, 1): 0.05, (0, 2): 0.08, (0, 3): 0.3, (1, 2): 0.05, (1, 3): 0.2, (2, 3): 0.25}.items():
        tensor[a, b, 0] = tensor[b, a, 0] = v
    G = DistanceGraph(tensor, np.ones((4, 4, k), dtype=bool))
    own = _own_strong(1)
    peers = {
        1: PseudoStrongSet([[np.array([10.0, 0.0])]]),
        2: PseudoStrongSet([[np.array([20.0, 0.0])]]),
    }
    donors = peer_donors(G, 3, peers)
    seen = set()
    rng = np.random.default_rng(7)
    for _ in range(100):
        out = replace_with_peers(own, donors, rng)
        seen.add(float(out.entries[0].x[0]))
    assert seen == {10.0, 20.0}


def test_peer_donors_match_oracle_randomized():
    # random graphs over 2-4 targets with some unusable entries and some
    # empty pools: class l's donors are exactly the samples of every
    # oracle-qualifying peer with a non-empty class-l pool, in slot order
    # and then pool order
    rng = np.random.default_rng(11)
    donated = 0
    for _ in range(200):
        M, k = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        tensor = rng.uniform(0.0, 2.0, size=(M, M, k))
        tensor = (tensor + tensor.transpose(1, 0, 2)) / 2
        valid = rng.uniform(size=(M, M, k)) > 0.15
        valid = valid & valid.transpose(1, 0, 2)
        G = DistanceGraph(tensor, valid)
        i = int(rng.integers(1, M))
        peers = {
            j: PseudoStrongSet([
                [np.array([j, l, n], dtype=float) for n in range(int(rng.integers(0, 3)))] for l in range(k)
            ])
            for j in range(1, M)
            if rng.uniform() > 0.1
        }
        donors = peer_donors(G, i, peers)
        assert len(donors) == k
        for l in range(k):
            expect = [
                (j, n)
                for j in sorted(peers)
                if j != i
                and G.valid[0, j, l] and G.valid[0, i, l] and G.valid[i, j, l]
                and oracle_peer_qualifies(tensor.tolist(), i, j, l)
                for n in range(len(peers[j].pools[l]))
            ]
            got = [(j, int(x[2])) for x, j in donors[l]]
            assert got == expect
            for x, j in donors[l]:
                assert x is peers[j].pools[l][int(x[2])]
            donated += len(got)
    assert donated > 0


# --- reporting / serialization ------------------------------------------------

def test_format_distance_report_structure():
    G = graph_from_distances([0.07, 0.3], [0.2, 0.2], [0.16, 0.1])
    text = format_distance_report(G, ["source", "t1", "t2"])
    assert "names: source t1 t2" in text
    assert "class 0" in text and "class 1" in text
    assert "average" in text
    assert "0.070000" in text and "0.160000" in text
    with pytest.raises(InvalidInputError):
        format_distance_report(G, ["source"])


def test_format_distance_report_nan_for_invalid():
    G = graph_from_distances([0.07], [0.2], [0.16])
    G.valid[0, 1, 0] = G.valid[1, 0, 0] = False
    text = format_distance_report(G, ["s", "a", "b"])
    assert "nan" in text
