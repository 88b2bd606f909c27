import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distance_graph as oracle_distance_graph
from oracles import peer_qualifies as oracle_peer_qualifies
from swda import pipeline, scaffolding
from swda.config import ExperimentConfig
from swda.datasets import Domain, generate, standard_shift_spec
from swda.errors import DegenerateInputError, InvalidDatasetError, InvalidInputError, NotInitializedError
from swda.network import Linear, NetworkConfig, ParamTree, forward, init_params
from swda.pipeline import train_single_target
from swda.repsets import StrongEntry, StrongSet, compute_centroids
from swda.scaffolding import (
    DistanceGraph,
    DomainCentroids,
    _donor_table,
    build_distance_graph,
    centroids_for_domains,
    check_source_classes,
    format_distance_report,
    peer_masks,
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
    # a huge source label makes the class count absurd; the check must not list them all
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


def test_train_source_only_learns_and_is_deterministic():
    src = generate(standard_shift_spec(0))[0]
    cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=0, max_iterations=400)
    params = train_source_only(cfg, src)
    acc = float(np.mean(np.argmax(forward(params, src.samples).probs, axis=1) == src.labels))
    assert acc > 0.8
    again = train_source_only(cfg, src)
    assert np.array_equal(params.flat, again.flat)


def test_train_source_only_keeps_best_check_and_stops_after_two_drops(monkeypatch):
    # a rise, a tie (which resets the drop count) and two drops in a row
    src = generate(standard_shift_spec(0))[0]
    cfg = ExperimentConfig(network=NetworkConfig(8, 6), seed=0, max_iterations=1000)
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


@pytest.mark.parametrize(
    "trainer, call, raised, caught, prefix",
    [
        ("source-only", 7, FloatingPointError, DegenerateInputError, "source-only training, iteration 7: source 's': "),
        ("single", 13, FloatingPointError, DegenerateInputError, "target 't', iteration 7: source 's': "),
        ("single", 14, FloatingPointError, DegenerateInputError, "target 't', iteration 7: "),
        ("single", 14, InvalidInputError, InvalidInputError, "target 't', iteration 7: "),
    ],
)
def test_a_fault_inside_a_run_names_the_run_and_iteration(monkeypatch, trainer, call, raised, caught, prefix):
    # forward raises on its call-th call. Each iteration makes a source step
    # (scaffolding's binding) and, when adapting, a target step (pipeline's);
    # no evaluation or refresh falls in the first 7 iterations. A numpy fault
    # becomes a DegenerateInputError, a package error keeps its class, and a
    # fault in a source step's forward pass also names the source
    calls = []

    def spy(*args):
        calls.append(1)
        if len(calls) == call:
            raise raised("injected")
        return forward(*args)

    monkeypatch.setattr(scaffolding, "forward", spy)
    monkeypatch.setattr(pipeline, "forward", spy)
    rng = np.random.default_rng(0)
    source = Domain("s", rng.normal(size=(40, 4)), np.arange(40) % 3)
    cfg = ExperimentConfig(NET, batch_size=8, max_iterations=40, strong_refresh_period=20)
    with pytest.raises(caught) as exc:
        if trainer == "source-only":
            train_source_only(cfg, source)
        else:
            train_single_target(cfg, source, Domain("t", rng.normal(size=(40, 4))))
    assert str(exc.value) == prefix + "injected"


# --- centroids and the distance graph -----------------------------------------

def test_centroids_for_domains_matches_repsets_bitwise():
    params = init_params(NET, 1)
    x = np.random.default_rng(1).normal(size=(20, 4))
    fwd = forward(params, x)
    dc = centroids_for_domains(params, [Domain("d", x)])
    C, valid = dc.centroids[0], dc.valid[0]
    assert np.all(valid)
    assert np.array_equal(C, compute_centroids(fwd.probs, fwd.norm_features))


def _counting_forward(monkeypatch):
    """Spy on the forward full_pass calls: the list of its results."""
    seen = []
    monkeypatch.setattr(scaffolding, "forward", lambda *args: seen.append(forward(*args)) or seen[-1])
    return seen


def test_full_pass_in_blocks_matches_one_forward_bitwise(monkeypatch):
    params = init_params(NET, 2)
    seen = _counting_forward(monkeypatch)
    # 1025 rows would leave one row to a last block, whose product BLAS rounds another way
    for n, blocks in ((1025, [1023, 2]), (2600, [1024, 1024, 552])):
        x = np.random.default_rng(2).normal(size=(n, 4))
        whole = forward(params, x)
        seen.clear()
        V, P = scaffolding.full_pass(params, x)
        assert [f.probs.shape[0] for f in seen] == blocks
        assert np.array_equal(V, whole.norm_features) and np.array_equal(P, whole.probs)


@pytest.mark.parametrize("n", [1, 720, 1024])
def test_full_pass_in_one_block_returns_its_own_arrays(monkeypatch, n):
    params = init_params(NET, 3)
    x = np.random.default_rng(3).normal(size=(n, 4))
    seen = _counting_forward(monkeypatch)
    V, P = scaffolding.full_pass(params, x)
    assert len(seen) == 1 and V is seen[0].norm_features and P is seen[0].probs


def test_zero_mass_warning_names_its_domain(caplog):
    # class 2 scores -100 * tau * cos(feature, e0): beyond exp's underflow for
    # rows along +e0, moderate for rows nearly orthogonal to it
    params = ParamTree([], Linear(np.eye(2), np.zeros(2)), np.array([[1.0, 0.0], [0.0, 1.0], [-100.0, 0.0]]), 20.0)
    lit = Domain("lit", np.array([[-0.01, 1.0], [0.01, -1.0]]))
    dark = Domain("dark", np.array([[1.0, 0.5], [2.0, -1.0]]))
    with caplog.at_level(logging.WARNING, logger="swda.scaffolding"):
        dc = centroids_for_domains(params, [lit, dark])
    assert [v.tolist() for v in dc.valid] == [[True, True, True], [True, True, False]]
    assert [r.getMessage() for r in caplog.records] == [
        "domain 'dark': class 2 has zero probability mass; centroid marked unusable"
    ]


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_graph_marks_each_bad_norm_centroid_unusable_with_one_warning(caplog):
    rng = np.random.default_rng(6)
    cents = [rng.normal(size=(3, 4)) for _ in range(4)]
    masks = [np.ones(3, dtype=bool) for _ in range(4)]
    cents[1][0] = 0.0  # zero norm
    cents[2][2, 1] = np.inf  # non-finite norm
    cents[0][1, 0] = 1e200  # an overflowing square: a non-finite norm too
    cents[3][1], masks[3][1] = 0.0, False  # no probability mass: warned where found
    with caplog.at_level(logging.WARNING, logger="swda.scaffolding"):
        G = build_distance_graph(DomainCentroids(cents, masks))
    assert sorted(r.getMessage() for r in caplog.records) == [
        "class 0 centroid of domain 1 has zero norm; marked unusable",
        "class 1 centroid of domain 0 has non-finite norm; marked unusable",
        "class 2 centroid of domain 2 has non-finite norm; marked unusable",
    ]
    usable = np.ones((4, 3), dtype=bool)
    usable[1, 0] = usable[0, 1] = usable[2, 2] = usable[3, 1] = False
    assert np.array_equal(G.valid, usable[:, None, :] & usable[None, :, :])
    assert np.all(G.tensor[~G.valid] == 0.0)
    for l in range(3):
        u = np.flatnonzero(usable[:, l])
        expect = oracle_distance_graph([[cents[a][l].tolist()] for a in u])
        assert G.tensor[np.ix_(u, u, [l])][..., 0].tolist() == [[row[0] for row in r] for r in expect]


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



def test_peer_masks_match_oracle_elementwise():
    # tensors with entries on a coarse grid, so both criteria meet exact
    # ties, and about a fifth of the entries unusable: every element of the
    # one-expression mask is the brute-force rule on usable entries. The
    # tensors are not symmetric, so slot 0 and the diagonal are False by
    # rule, not because a symmetric graph ties there
    rng = np.random.default_rng(23)
    for _ in range(400):
        M, k = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        tensor = rng.integers(0, 9, size=(M, M, k)) / 4.0
        valid = rng.uniform(size=(M, M, k)) > 0.2
        masks = scaffolding.peer_masks(DistanceGraph(tensor, valid))
        assert masks.shape == (M, M, k) and masks.dtype == bool
        assert not masks[0].any() and not masks[:, 0].any() and not masks[np.arange(M), np.arange(M)].any()
        want = np.zeros_like(masks)
        for i, j, l in np.ndindex(M, M, k):
            if i and j and i != j:
                usable = valid[0, j, l] and valid[0, i, l] and valid[i, j, l]
                want[i, j, l] = usable and oracle_peer_qualifies(tensor.tolist(), i, j, l)
        assert np.array_equal(masks, want)
        assert scaffolding.donor_slots(masks) == sorted({j for i, j, l in zip(*np.nonzero(want))})

def test_peer_criteria_index_validation():
    G = graph_from_distances([0.1], [0.2], [0.1])
    with pytest.raises(InvalidInputError):
        peer_qualifies(G, 0, 1, 0)
    with pytest.raises(InvalidInputError):
        peer_qualifies(G, 1, 1, 0)
    with pytest.raises(InvalidInputError):
        peer_qualifies(G, 2, 1, 5)
    for i in (0, 3):
        with pytest.raises(InvalidInputError, match=f"got i={i}"):
            qualifying_fraction(G, i)


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
    peers = {1: [np.array([[9.0, 9.0]]), np.array([[7.0, 7.0]])]}
    out = replace_with_peers(own, _donor_table(peer_masks(G)[2], peers), np.random.default_rng(0))
    assert np.array_equal(out.entries[0].x, [9.0, 9.0])  # class 0 qualified
    assert out.entries[0].domain == "target1"
    assert np.array_equal(out.entries[1].x, [1.0, 1.0])  # class 1 kept its own
    assert out.entries[1].domain == "own"
    # input set untouched
    assert np.array_equal(own.entries[0].x, [0.0, 0.0])


def test_replace_with_peers_skips_empty_pools():
    G = graph_from_distances([0.07], [0.20], [0.16])
    own = _own_strong(1)
    donors = _donor_table(peer_masks(G)[2], {1: [np.zeros((0, 2))]})
    assert donors is None
    out = replace_with_peers(own, donors, np.random.default_rng(0))
    assert out.entries[0] is own.entries[0]


def test_replace_with_peers_requires_populated_set():
    G = graph_from_distances([0.07], [0.20], [0.16])
    with pytest.raises(NotInitializedError):
        replace_with_peers(StrongSet([None]), _donor_table(peer_masks(G)[2], {}), np.random.default_rng(0))


def test_replace_with_peers_uniform_over_pool():
    # 10000 draws over a 4-sample pool: each frequency within 0.25 +- 0.02
    G = graph_from_distances([0.07], [0.20], [0.16])
    own = _own_strong(1)
    pool = np.array([[float(v), 0.0] for v in range(4)])
    donors = _donor_table(peer_masks(G)[2], {1: [pool]})
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
    peers = {1: [np.array([[10.0, 0.0]])], 2: [np.array([[20.0, 0.0]])]}
    donors = _donor_table(peer_masks(G)[3], peers)
    seen = set()
    rng = np.random.default_rng(7)
    for _ in range(100):
        out = replace_with_peers(own, donors, rng)
        seen.add(float(out.entries[0].x[0]))
    assert seen == {10.0, 20.0}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    pending=st.booleans(),
    counts=st.lists(st.one_of(st.just(1), st.integers(1, 64), st.integers(1, 2**31)), max_size=12),
)
def test_one_array_draw_equals_one_scalar_draw_per_bound(seed, pending, counts):
    # _draw_donors draws every class's donor with one rng.integers(counts)
    # call where the per-class loop made one rng.integers(n) call per class;
    # part 3 reproduces its outputs only while both give the same values and
    # leave the generator in the same state
    array_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:  # a 32-bit draw leaves the other half of a 64-bit output buffered
        array_rng.integers(7)
        scalar_rng.integers(7)
    got = array_rng.integers(np.array(counts, dtype=np.int64))
    assert got.tolist() == [scalar_rng.integers(n) for n in counts]
    assert array_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_replace_with_peers_draws_as_the_per_class_loop():
    # the reference is the former rule: per class in order, one scalar draw
    # over a non-empty donor list, none over an empty one; class l's list
    # holds the class-l rows of every qualifying peer, in slot order
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        pools = {
            j: [np.array([[j, l, n] for n in range(int(rng.integers(0, 4)))], dtype=float).reshape(-1, 3) for l in range(k)]
            for j in range(1, 4)
        }
        qualifies = rng.uniform(size=(4, k)) > 0.3
        donors = [[(x, j) for j in (1, 2, 3) if qualifies[j, l] for x in pools[j][l]] for l in range(k)]
        own, seed = _own_strong(k, 3), int(rng.integers(2**32))
        table = _donor_table(qualifies, pools)
        got, ref_rng = replace_with_peers(own, table, np.random.default_rng(seed)), np.random.default_rng(seed)
        for l, union in enumerate(donors):
            if union:
                sample, j = union[int(ref_rng.integers(len(union)))]
                assert np.array_equal(got.entries[l].x, sample) and got.entries[l].domain == f"target{j}"
            else:
                assert got.entries[l] is own.entries[l]


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
            j: [np.array([[j, l, n] for n in range(int(rng.integers(0, 3)))], dtype=float).reshape(-1, 3) for l in range(k)]
            for j in range(1, M)
            if rng.uniform() > 0.1
        }
        table = _donor_table(peer_masks(G)[i], peers)
        donors = [[] for _ in range(k)]  # class l's (row, slot) pairs
        if table is not None:
            classes, rows, slots, starts, counts = table
            assert np.all(np.diff(classes) > 0) and classes[0] >= 0 and classes[-1] < k and counts.min() >= 1
            for l, a, c in zip(classes.tolist(), starts.tolist(), counts.tolist()):
                donors[l] = list(zip(rows[a : a + c], slots[a : a + c].tolist()))
        for l in range(k):
            expect = [
                (j, n)
                for j in sorted(peers)
                if j != i
                and G.valid[0, j, l] and G.valid[0, i, l] and G.valid[i, j, l]
                and oracle_peer_qualifies(tensor.tolist(), i, j, l)
                for n in range(len(peers[j][l]))
            ]
            got = [(j, int(x[2])) for x, j in donors[l]]
            assert got == expect
            for x, j in donors[l]:  # each row a copy of its pool row, tagged with its slot
                assert np.array_equal(x, peers[j][l][int(x[2])]) and x[0] == j
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
