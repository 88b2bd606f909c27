import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assign_labels as oracle_assign_labels
from oracles import centroids as oracle_centroids
from oracles import strong_choices as oracle_strong_choices
from swda import repsets
from swda.checkpoint import load_arrays, pseudo_to_arrays, save_arrays
from swda.errors import DegenerateInputError, EmptyClassError, InvalidInputError, NotInitializedError
from swda.mathutils import softmax
from swda.repsets import (
    FusedBatch,
    PseudoStrongSet,
    StrongEntry,
    StrongSet,
    WeakEntry,
    WeakSet,
    assign_pseudo_labels,
    compute_centroids,
    empty_weak_set,
    fuse,
    harvest_pseudo_strong,
    select_sw_batch,
    update_strong_set,
    update_weak_set,
)


def random_instance(rng, n=None, k=None, d=None):
    n = n or int(rng.integers(2, 31))
    k = k or int(rng.integers(2, 6))
    d = d or int(rng.integers(2, 9))
    P = softmax(rng.normal(size=(n, k)) * 3.0)
    V = rng.normal(size=(n, d))
    V[np.abs(V).sum(axis=1) == 0.0] = 1.0  # paranoid: no zero rows
    X = rng.normal(size=(n, d + 1))  # input dim deliberately != feature dim
    return X, V, P


# --- centroids ----------------------------------------------------------------

def test_centroids_match_oracle_bitwise():
    rng = np.random.default_rng(10)
    for _ in range(30):
        _, V, P = random_instance(rng)
        C = compute_centroids(P, V)
        C2 = np.array(oracle_centroids(P.tolist(), V.tolist()))
        assert C.shape == C2.shape
        assert np.array_equal(C, C2)


def test_centroids_one_hot_probs_give_class_means():
    V = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
    P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    C = compute_centroids(P, V)
    assert np.allclose(C[0], [2.0, 0.0], atol=1e-15)
    assert np.allclose(C[1], [0.0, 2.0], atol=1e-15)


def test_centroids_zero_mass_class_raises():
    V = np.ones((3, 2))
    P = np.column_stack([np.ones(3), np.zeros(3)])
    with pytest.raises(EmptyClassError):
        compute_centroids(P, V)


def test_centroids_row_mismatch():
    with pytest.raises(InvalidInputError):
        compute_centroids(np.ones((3, 2)), np.ones((4, 2)))


# --- pseudo-label assignment --------------------------------------------------

def test_assignment_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        _, V, P = random_instance(rng)
        C = compute_centroids(P, V)
        assert np.array_equal(assign_pseudo_labels(V, C), oracle_assign_labels(V, C))


def test_assignment_prefers_aligned_centroid():
    V = np.array([[1.0, 0.05], [0.0, 1.0]])
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert assign_pseudo_labels(V, C).tolist() == [0, 1]


def test_assignment_tie_goes_to_lowest_class():
    # sample equidistant from two identical centroids
    V = np.array([[1.0, 1.0]])
    C = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert assign_pseudo_labels(V, C)[0] == 0


# --- strong set ---------------------------------------------------------------

def test_update_strong_set_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        X, V, P = random_instance(rng)
        strong = update_strong_set(X, V, P, "dom")
        picks = oracle_strong_choices(X.tolist(), V.tolist(), P.tolist())
        assert len(strong.entries) == P.shape[1]
        for j, i in enumerate(picks):
            assert np.array_equal(strong.entries[j].x, X[i]), f"class {j}"
            assert strong.entries[j].domain == "dom"


def test_strong_set_empty_class_falls_back_to_max_prob():
    # class 1's centroid attracts nobody: all features point along +x
    V = np.array([[1.0, 0.0], [1.0, 0.01], [1.0, -0.01]])
    P = np.array([[0.9, 0.1], [0.8, 0.2], [0.95, 0.05]])
    strong = update_strong_set(np.arange(3)[:, None].astype(float), V, P)
    # round-1 centroids both point along +x; every sample joins class 0
    # (tie or proximity), class 1 falls back to argmax P[:, 1] = row 1
    assert strong.entries[1].x[0] == 1.0


def test_strong_set_recruits_across_pseudo_label_boundary():
    # the nearest sample to a refined centroid may carry another label;
    # round 2 searches all samples, so it can still be chosen
    X, V, P = random_instance(np.random.default_rng(13), n=12, k=3, d=4)
    strong = update_strong_set(X, V, P)
    assert strong.populated
    assert len(strong.entries) == 3


def test_strong_set_is_deterministic():
    X, V, P = random_instance(np.random.default_rng(14))
    a = update_strong_set(X, V, P)
    b = update_strong_set(X, V, P)
    for ea, eb in zip(a.entries, b.entries):
        assert np.array_equal(ea.x, eb.x)


def test_zero_norm_feature_row_is_degenerate():
    V = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateInputError, match="feature row 1"):
        assign_pseudo_labels(V, C)
    P = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(DegenerateInputError, match="feature row 1"):
        update_strong_set(np.zeros((3, 1)), V, P)


def test_zero_norm_centroid_is_degenerate():
    V = np.array([[1.0, 0.0], [0.0, 1.0]])
    C = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError, match="centroid 1"):
        assign_pseudo_labels(V, C)


def test_zero_norm_refined_centroid_is_degenerate():
    # every round-1 centroid is orthogonal to +-e0, so both tie and join
    # class 0; (0, 1, +-1) go to classes 1 and 2. Class 0's refined
    # centroid is the mean of e0 and -e0: the zero vector.
    V = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
    third = 1.0 / 3.0
    P = np.array([[third] * 3, [third] * 3, [0.2, 0.7, 0.1], [0.2, 0.1, 0.7]])
    with pytest.raises(DegenerateInputError, match="refined centroid of class 0"):
        update_strong_set(np.zeros((4, 1)), V, P)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_non_finite_norm_is_degenerate(bad):
    # unchecked, a nan norm makes every fsum distance nan, which clips to 0.0
    # ("perfectly aligned"), so [nan, 1] would take class 0 although it points
    # at class 1. An inf entry or an overflowing square gives an inf norm.
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateInputError, match="feature row 1 has non-finite norm"):
        assign_pseudo_labels(np.array([[1.0, 0.0], [bad, 1.0]]), C)
    with pytest.raises(DegenerateInputError, match="centroid 0 has non-finite norm"):
        assign_pseudo_labels(C, np.array([[bad, 1.0], [1.0, 0.0]]))


def test_empty_centroid_matrix_rejected():
    with pytest.raises(InvalidInputError):
        assign_pseudo_labels(np.ones((3, 2)), np.ones((0, 2)))


# --- certified nearest search: near-tie cases ---------------------------------
# Random normals almost never put two table entries within the certificate
# tolerance of each other. These cases do: each pairs a row with an exact
# duplicate, a positively scaled copy (same direction, distances equal or an
# ulp apart) or a copy one nextafter step away, and the nearest neighbour of
# each row is its pair's direction.

TWIN_KINDS = ("duplicate", "scaled", "nextafter")


def twin_rows(base, kind, rng):
    """Interleave base rows with their near-identical twins."""
    if kind == "duplicate":
        twins = base.copy()
    elif kind == "scaled":
        twins = base * rng.uniform(0.25, 4.0, size=(base.shape[0], 1))
    else:
        twins = np.nextafter(base, np.inf)
    out = np.empty((2 * base.shape[0], base.shape[1]))
    out[0::2], out[1::2] = base, twins
    return out


def near_tie_instance(seed, d, kind, half_n=6, half_k=2):
    rng = np.random.default_rng(seed)
    C = twin_rows(rng.normal(size=(half_k, d)), kind, rng)
    # samples: scaled copies of the centroids (so ties decide the label),
    # plus random directions, each with its own twin
    base = np.vstack([C[0::2] * rng.uniform(0.5, 2.0, size=(half_k, 1)), rng.normal(size=(half_n - half_k, d))])
    V = twin_rows(base, kind, rng)
    logits = rng.normal(size=(V.shape[0], 2 * half_k)) * 3.0
    P = softmax(logits)
    P[:, 1] = {"duplicate": P[:, 0], "scaled": 2.0 * P[:, 0], "nextafter": np.nextafter(P[:, 0], 1.0)}[kind]
    X = rng.normal(size=(V.shape[0], 3))
    return X, V, P, C


def check_against_oracles(X, V, P, C):
    assert assign_pseudo_labels(V, C).tolist() == oracle_assign_labels(V.tolist(), C.tolist())
    strong = update_strong_set(X, V, P)
    picks = oracle_strong_choices(X.tolist(), V.tolist(), P.tolist())
    for j, i in enumerate(picks):
        assert np.array_equal(strong.entries[j].x, X[i]), f"class {j}"


@pytest.mark.parametrize("d", [2, 32, 256])
@pytest.mark.parametrize("kind", TWIN_KINDS)
def test_near_ties_match_oracles_and_reach_reevaluation(monkeypatch, kind, d):
    calls = []
    exact = repsets.cosine_distances

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(repsets, "cosine_distances", counted)
    check_against_oracles(*near_tie_instance(d, d, kind))
    assert calls, "no row had two or more candidates"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 32, 256]),
    kind=st.sampled_from(TWIN_KINDS),
    half_n=st.integers(2, 8),
)
def test_near_ties_match_oracles_property(seed, d, kind, half_n):
    check_against_oracles(*near_tie_instance(seed, d, kind, half_n=half_n))


@pytest.mark.parametrize("scale", [2.0**-300, 2.0**300])
def test_norms_outside_certified_range_match_oracles(scale):
    X, V, P, C = near_tie_instance(7, 8, "scaled")
    V = V * scale
    assert assign_pseudo_labels(V, C).tolist() == oracle_assign_labels(V.tolist(), C.tolist())
    assert assign_pseudo_labels(V, C * scale).tolist() == oracle_assign_labels(V.tolist(), (C * scale).tolist())
    strong = update_strong_set(X, V, P)
    for j, i in enumerate(oracle_strong_choices(X.tolist(), V.tolist(), P.tolist())):
        assert np.array_equal(strong.entries[j].x, X[i])


# --- weak set -----------------------------------------------------------------

def test_weak_set_threshold_and_replacement():
    weak = empty_weak_set(3)
    X = np.arange(8).reshape(4, 2).astype(float)
    P = np.array(
        [
            [0.85, 0.10, 0.05],
            [0.90, 0.05, 0.05],
            [0.10, 0.70, 0.20],  # below threshold, ignored
            [0.05, 0.05, 0.90],
        ]
    )
    out = update_weak_set(weak, X, P, lam=0.8)
    assert np.array_equal(out.entries[0].x, X[1])  # best of rows 0, 1
    assert out.entries[0].prob == 0.90
    assert out.entries[1] is None
    assert np.array_equal(out.entries[2].x, X[3])
    # old entries survive a batch with nothing above threshold
    out2 = update_weak_set(out, X, np.full((4, 3), 1.0 / 3.0), lam=0.8)
    assert np.array_equal(out2.entries[0].x, X[1])
    # and the input set is never mutated
    assert weak.entries == [None, None, None]


def test_weak_set_threshold_is_strict():
    weak = empty_weak_set(2)
    out = update_weak_set(weak, np.ones((1, 2)), np.array([[0.8, 0.2]]), lam=0.8)
    assert out.entries[0] is None


def test_weak_set_invariant_all_entries_above_threshold():
    rng = np.random.default_rng(15)
    weak = empty_weak_set(4)
    for _ in range(50):
        X = rng.normal(size=(6, 3))
        P = softmax(rng.normal(size=(6, 4)) * 4.0)
        weak = update_weak_set(weak, X, P, lam=0.8)
        for e in weak.entries:
            assert e is None or e.prob > 0.8


# --- fusion and selection -----------------------------------------------------

def _strong_of(vectors):
    return StrongSet([None if v is None else StrongEntry(np.asarray(v, float), "t") for v in vectors])


def _weak_of(vectors):
    return WeakSet([None if v is None else WeakEntry(np.asarray(v, float), 0.9) for v in vectors])


def test_fuse_requires_populated_strong_set():
    with pytest.raises(NotInitializedError):
        fuse(StrongSet([None, None]), empty_weak_set(2), np.random.default_rng(0))
    with pytest.raises(NotInitializedError):
        fuse(StrongSet([]), WeakSet([]), np.random.default_rng(0))


def test_fuse_convexity_and_missing_entries():
    rng = np.random.default_rng(16)
    strong = _strong_of([[0.0, 0.0], None, [2.0, 2.0]])
    weak = _weak_of([[1.0, 1.0], [5.0, 5.0], None])
    fused = fuse(strong, weak, rng)
    assert fused[1] is None  # no strong entry, class skipped
    assert np.array_equal(fused[2], [2.0, 2.0])  # no weak entry: r = 1
    lo = np.minimum([0.0, 0.0], [1.0, 1.0])
    hi = np.maximum([0.0, 0.0], [1.0, 1.0])
    assert np.all(fused[0] >= lo - 1e-12) and np.all(fused[0] <= hi + 1e-12)


def test_fuse_draws_fresh_coefficient_per_class():
    rng = np.random.default_rng(17)
    strong = _strong_of([[0.0], [0.0]])
    weak = _weak_of([[1.0], [1.0]])
    draws = {tuple(float(v[0]) for v in fuse(strong, weak, rng)) for _ in range(20)}
    assert len(draws) > 1  # varies across calls
    rs = next(iter(draws))
    assert rs[0] != rs[1]  # and across classes within one call


def _scalar_fuse(strong, weak, rng):
    """fuse as one scalar draw per blended class, redrawing zeros."""
    fused = []
    for st, wk in zip(strong.entries, weak.entries):
        if st is None or wk is None:
            fused.append(None if st is None else st.x.copy())
            continue
        r = float(rng.uniform(0.0, 1.0))
        while r == 0.0:
            r = float(rng.uniform(0.0, 1.0))
        fused.append(r * st.x + (1.0 - r) * wk.x)
    return fused


class QueuedUniform:
    """Stands in for a generator whose uniform draws are given in advance."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high, size=None):
        if size is None:
            return self.draws.pop(0)
        out, self.draws = np.array(self.draws[:size]), self.draws[size:]
        return out


def test_fuse_matches_one_scalar_draw_per_class():
    rng = np.random.default_rng(18)
    for _ in range(200):
        k, d = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        # the last class always has a strong entry, so the set is populated
        present = [rng.random() < 0.8 for _ in range(k - 1)] + [True]
        strong = _strong_of([rng.normal(size=d) if p else None for p in present])
        weak = _weak_of([rng.normal(size=d) if rng.random() < 0.7 else None for _ in range(k)])
        seed = int(rng.integers(2**31))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        fused = fuse(strong, weak, a)
        expected = _scalar_fuse(strong, weak, b)
        assert [v is None for v in fused] == [v is None for v in expected]
        assert all(v is None or v.tobytes() == w.tobytes() for v, w in zip(fused, expected))
        assert a.random() == b.random()  # as many draws consumed


def _scalar_fuse_draws(draws):
    """The blend coefficients a draw-until-nonzero loop takes from draws, 3 classes."""
    draws, taken = list(draws), []
    for _ in range(3):
        r = draws.pop(0)
        while r == 0.0:
            r = draws.pop(0)
        taken.append(r)
    return taken


def test_fuse_redraws_a_zero_coefficient_in_draw_order():
    strong = _strong_of([[0.0], [0.0], [0.0]])
    weak = _weak_of([[1.0], [1.0], [1.0]])
    draws = [0.5, 0.0, 0.25, 0.0, 0.75, 0.125]
    fused = fuse(strong, weak, QueuedUniform(draws))
    assert [float(v[0]) for v in fused] == [1.0 - r for r in _scalar_fuse_draws(draws)]


def test_select_sw_batch_mirrors_predictions():
    cases = [
        # class 2 has no fused vector; its occurrence is dropped
        ([[0.0, 0.0], [1.0, 1.0], None], [1, 0, 1, 2, 1], [1, 0, 1, 1]),
        # class 1 has none, between two that do
        ([[0.0, 0.0], None, [2.0, 2.0]], [2, 1, 0, 2], [2, 0, 2]),
    ]
    for fused, preds, labels in cases:
        batch = select_sw_batch([None if v is None else np.array(v) for v in fused], np.array(preds))
        assert batch.pseudo_labels.dtype == np.int64 and batch.pseudo_labels.tolist() == labels
        assert batch.inputs.tolist() == [fused[j] for j in labels]


def test_select_sw_batch_empty_result():
    batch = select_sw_batch([None, None], np.array([0, 1]))
    assert batch.inputs.shape == (0, 0)
    assert batch.pseudo_labels.size == 0


def test_select_sw_batch_rejects_bad_labels():
    with pytest.raises(InvalidInputError):
        select_sw_batch([np.zeros(2)], np.array([1]))
    with pytest.raises(InvalidInputError):
        select_sw_batch([np.zeros(2)], np.zeros(0, dtype=int))
    with pytest.raises(InvalidInputError):
        select_sw_batch([np.zeros(2)], np.array([0.0]))


# --- pseudo strong pools ------------------------------------------------------

def test_harvest_orders_by_probability_and_caps():
    X = np.arange(10)[:, None].astype(float)
    P = np.column_stack([np.linspace(0.81, 0.99, 10), 1.0 - np.linspace(0.81, 0.99, 10)])
    pools = harvest_pseudo_strong(X, P, lam=0.8, cap=3).pools
    assert [int(v[0]) for v in pools[0]] == [9, 8, 7]
    assert pools[1] == []


def test_harvest_threshold_strict_and_cap_validation():
    X = np.zeros((1, 2))
    P = np.array([[0.8, 0.2]])
    assert harvest_pseudo_strong(X, P, lam=0.8).pools[0] == []
    with pytest.raises(InvalidInputError):
        harvest_pseudo_strong(X, P, lam=0.8, cap=0)


def test_harvest_tie_stability():
    X = np.arange(4)[:, None].astype(float)
    P = np.array([[0.9, 0.1]] * 4)
    pools = harvest_pseudo_strong(X, P, lam=0.8, cap=2).pools
    assert [int(v[0]) for v in pools[0]] == [0, 1]  # stable sort keeps input order


def plain_ranking(P, lam):
    """Per class, the rows whose argmax (ties to the lowest class) is the
    class with probability above lam, by descending probability, then by
    ascending row."""
    ranking = [[] for _ in range(P.shape[1])]
    for i, row in enumerate(P.tolist()):
        j = row.index(max(row))
        if row[j] > lam:
            ranking[j].append((-row[j], i))
    return [[i for _, i in sorted(pairs)] for pairs in ranking]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    k=st.integers(1, 5),
    lam=st.sampled_from([0.2, 0.5, 0.8]),
    cap=st.integers(1, 6),
)
def test_weak_set_and_harvest_share_one_ranking(seed, n, k, lam, cap):
    # few distinct rows, each repeated, force probability ties; row i's
    # input is [i], so each pick names its row
    rng = np.random.default_rng(seed)
    distinct = softmax(rng.normal(size=(max(1, n // 3), k)) * 3.0)
    P = distinct[rng.integers(distinct.shape[0], size=n)]
    X = np.arange(n, dtype=float)[:, None]
    want = plain_ranking(P, lam)
    weak = update_weak_set(empty_weak_set(k), X, P, lam)
    pools = harvest_pseudo_strong(X, P, lam, cap).pools
    for j in range(k):
        assert [int(v[0]) for v in pools[j]] == want[j][:cap]
        if want[j]:
            assert weak.entries[j].x[0] == pools[j][0][0] == want[j][0]
            assert weak.entries[j].prob == P[want[j][0], j]
        else:
            assert weak.entries[j] is None


# --- kernels: the weak pick and the fused rows against their former forms -----

def former_weak_picks(P, lam):
    """{class: row} of update_weak_set's former rule: the first row of each
    class in plain_ranking."""
    return {j: rows[0] for j, rows in enumerate(plain_ranking(P, lam)) if rows}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    k=st.integers(1, 4),
    lam=st.sampled_from([0.25, 0.5]),
    data=st.data(),
)
def test_masked_argmax_weak_pick_matches_plain_ranking(n, k, lam, data):
    # a handful of values: tied top probabilities, and p == lam, which the
    # strict threshold excludes
    row = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=k, max_size=k)
    P = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    best, hit = repsets._weak_rows(P, lam)
    given_best, given_hit = repsets._weak_rows(P, lam, P.argmax(1))  # the trainer's shared argmax
    assert np.array_equal(given_best, best) and np.array_equal(given_hit, hit)
    want = former_weak_picks(P, lam)
    assert np.flatnonzero(hit).tolist() == sorted(want)
    assert all(best[j] == i for j, i in want.items())
    X = np.arange(n, dtype=float)[:, None]
    weak = update_weak_set(empty_weak_set(k), X, P, lam)
    for j in range(k):
        entry = weak.entries[j]
        assert (entry is None) == (j not in want)
        if entry is not None:
            assert entry.x[0] == want[j] and entry.prob == P[want[j], j]


def former_fuse(strong, weak, rng):
    classes = [j for j, st in enumerate(strong.entries) if st is not None]
    F = np.array([strong.entries[j].x for j in classes], dtype=np.float64)
    blend = [i for i, j in enumerate(classes) if weak.entries[j] is not None]
    if blend:
        r = rng.uniform(0.0, 1.0, size=len(blend))
        while not r.all():
            i = np.argmin(r)
            r[i:] = np.append(r[i + 1 :], rng.uniform(0.0, 1.0))
        W = np.array([weak.entries[classes[i]].x for i in blend], dtype=np.float64)
        F[blend] = r[:, None] * F[blend] + (1.0 - r)[:, None] * W
    return np.array(classes, dtype=np.int64), F


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 5),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    draws=st.lists(st.sampled_from([0.0, 0.0, 0.125, 0.5, 0.75]), min_size=12, max_size=12),
    data=st.data(),
)
def test_fused_kernel_matches_fuse_with_zero_draws(k, d, seed, draws, data):
    draws = draws + [0.375] * k  # enough nonzero draws left after any zeros
    rng = np.random.default_rng(seed)
    present = data.draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(any))
    blended = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    strong = _strong_of([rng.normal(size=d) if p else None for p in present])
    weak = _weak_of([rng.normal(size=d) if b else None for b in blended])
    fused = fuse(strong, weak, QueuedUniform(draws))
    classes, want = former_fuse(strong, weak, QueuedUniform(draws))
    S = np.array([e.x for e in strong.entries if e is not None])
    W = np.array([weak.entries[j].x if blended[j] else np.zeros(d) for j in classes.tolist()])
    mask = np.array(blended)[classes]
    assert [j for j, v in enumerate(fused) if v is not None] == classes.tolist()
    F = np.array([fused[j] for j in classes.tolist()])
    assert F.tobytes() == want.tobytes() == repsets._fused(S, W, mask, QueuedUniform(draws)).tobytes()


@pytest.mark.parametrize("draws", [[0.5, 0.25, 0.75], [0.0, 0.5, 0.0, 0.25, 0.75], [0.0, 0.0, 0.0, 0.125, 0.5, 0.875]])
def test_fused_all_blend_path_equals_general_path(draws):
    # when every row blends, _fused computes the blend whole; one more row
    # that does not blend sends the same rows and draws through the general
    # path, which writes the blended rows into a copy of S
    rng = np.random.default_rng(9)
    S, W = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    whole = repsets._fused(S, W, np.ones(3, dtype=bool), QueuedUniform(draws))
    general = repsets._fused(np.vstack([S, W[:1]]), np.vstack([W, S[:1]]), np.array([1, 1, 1, 0], dtype=bool),
                             QueuedUniform(draws))
    assert whole.tobytes() == general[:3].tobytes()
    assert general[3].tobytes() == W[0].tobytes()
    r = np.array([v for v in draws if v][:3])
    assert whole.tobytes() == (r[:, None] * S + (1.0 - r)[:, None] * W).tobytes()


# --- serialization ------------------------------------------------------------

def test_pseudo_set_survives_checkpoint_round_trip(tmp_path):
    pools = PseudoStrongSet([[np.array([1.0, 2.0]), np.array([3.0, 4.0])], []])
    path = tmp_path / "pseudo_strong.txt"
    save_arrays(path, pseudo_to_arrays(pools))
    back = load_arrays(path)
    assert sorted(back) == ["pseudo.0", "pseudo.k"]  # an empty pool writes no key
    assert back["pseudo.k"].dtype == np.int64 and int(back["pseudo.k"]) == 2
    assert np.array_equal(back["pseudo.0"], [[1.0, 2.0], [3.0, 4.0]])
