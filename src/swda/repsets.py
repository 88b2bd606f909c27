"""Representative-set machinery for target-domain supervision.

Three sets drive the semi-supervised signal on the unlabeled target:
  - strong set: one sample per class chosen by two-round centroid
    self-learning over all target samples (robust, refreshed rarely);
  - weak set: one sample per class from per-batch probability
    thresholding (diverse, refreshed every batch);
  - pseudo strong set: a per-class pool of confident samples harvested
    for export to peer trainers in the multi-target setting.

Fusion blends the strong and weak sample of a class with a random convex
coefficient; selection mirrors the predicted label distribution of the
current batch so the fused supervision cannot drown out the target data.
The weak-set pick (_weak_rows, one masked argmax per class) and the
fusion (_fused, on (m, d) strong and weak row matrices) are unchecked
kernels: the trainer calls them on arrays it built, and update_weak_set
and fuse check their arguments and call them.

Centroids and feature norms are exactly rounded sums over samples, the
values math.fsum gives and therefore order-independent. They come from
mathutils.column_fsums, which sums every column at once with a
vectorized error-free cascade and a certified bound, and hands the rare
column the bound cannot settle to math.fsum itself. The nearest-centroid and
nearest-sample searches build the whole cosine-distance table with one
BLAS product and a certified error bound: only entries the bound cannot
separate from the row minimum are re-evaluated through fsum, so the
chosen indices are bit-identical to a naive double loop over fsum
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, EmptyClassError, InvalidInputError, NotInitializedError
from .mathutils import Array, as_float_array, column_fsums, cosine_distance_with_norms


@dataclass
class StrongEntry:
    x: Array  # raw input vector
    domain: str  # which domain contributed the sample


@dataclass
class StrongSet:
    entries: list  # per class: StrongEntry or None

    @property
    def populated(self) -> bool:
        return len(self.entries) > 0 and any(e is not None for e in self.entries)


@dataclass
class WeakEntry:
    x: Array
    prob: float  # stored probability, always > the threshold it passed


@dataclass
class WeakSet:
    entries: list  # per class: WeakEntry or None


def empty_weak_set(num_classes: int) -> WeakSet:
    return WeakSet([None] * num_classes)


@dataclass
class PseudoStrongSet:
    pools: list  # per class: list of input Vectors


@dataclass
class FusedBatch:
    inputs: Array  # (m, input_dim)
    pseudo_labels: Array  # (m,) int64


def _check_pair(a, b, name_a: str, name_b: str):
    a = as_float_array(a, ndim=2)
    b = as_float_array(b, ndim=2)
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(f"{name_a} has {a.shape[0]} rows, {name_b} has {b.shape[0]}")
    return a, b


def compute_centroids(probs, features) -> Array:
    """Probability-weighted class centroids: c_j = (P_:jᵀ V) / Σ_i P_ij."""
    P, V = _check_pair(probs, features, "probs", "features")
    n, k = P.shape
    if n == 0:
        raise InvalidInputError("need at least one sample to form centroids")
    C = np.empty((k, V.shape[1]))
    weighted = np.empty_like(V)  # one buffer for all classes: a fresh one page-faults every time
    denom = column_fsums(P)
    for j in range(k):
        if denom[j] == 0.0:
            raise EmptyClassError(f"class {j} has zero total probability mass")
        C[j] = column_fsums(np.multiply(P[:, j, None], V, out=weighted))
    with np.errstate(over="ignore"):  # an overflowing mean is inf, as float division gives
        return C / denom[:, None]


# Safe norm range for the certificate in _nearest: with both operand norms
# in [2^-250, 2^250], no product or partial sum of a dot product
# overflows, and underflow adds under 4d * 2^-575 relative error, far
# below the unit roundoff.
_SAFE_NORM_LO, _SAFE_NORM_HI = 2.0**-250, 2.0**250


def _in_safe_range(norms: Array) -> Array:
    return (norms >= _SAFE_NORM_LO) & (norms <= _SAFE_NORM_HI)


def _row_norms(M: Array, what: str, ids=None) -> Array:
    """Exact norm of every row. A zero row, or one whose norm is not finite
    (a nan or inf entry, or an overflowing square), raises; ``ids[r]``
    names row r in the message. A nan norm would otherwise make every
    fsum distance nan, which cosine_distance_with_norms clips to 0.0."""
    norms = np.sqrt(column_fsums(np.multiply(M.T, M.T, order="C")))
    for bad, why in ((norms == 0.0, "zero"), (~np.isfinite(norms), "non-finite")):
        rows = np.flatnonzero(bad)
        if rows.size:
            row = rows[0] if ids is None else ids[rows[0]]
            raise DegenerateInputError(f"{what} {row} has {why} norm; its cosine distance is undefined")
    return norms


def _nearest(A: Array, a_norms: Array, B: Array, b_norms: Array) -> Array:
    """Per row of A, the index of the cosine-nearest row of B, ties to the
    lowest index: the pick of a scan over j = 0, 1, ... that keeps strict
    improvements of cosine_distance_with_norms(A[i], B[j], ...), bit for bit.

    Certificate. Let u = 2^-53, s = a.b and S = sum |a_i b_i| <= |a||b|.
    The exact norms obey |a| <= norm_a / (1-u)^2, so S <= D / (1-u)^5 with
    D = fl(norm_a * norm_b), the denominator both paths share. The fsum dot
    is within (2u + u^2) S of s; the BLAS dot within gamma_d S, in any
    summation order, with or without FMA (Higham, Accuracy and Stability
    of Numerical Algorithms, 3.1). Dividing by D rounds each quotient
    (|quotient| <= 1 + O(du)) by at most u, and 1 - quotient by at most
    2u each; clipping to [0, 2] shrinks differences. Hence a table entry
    lies within gamma_d + 8u + O(d^2 u^2) <= (d + 9) u of the fsum
    distance when d <= 2^25. tol = (d + 11) u also absorbs the rounding
    of row_min + 2 tol (at most 3u). Every exact minimizer then has a
    table entry <= row_min + 2 tol, so the scan over those candidates
    alone picks the same index. Entries whose norms lie outside the safe
    range, and every entry when d > 2^25, are always candidates.
    """
    unsafe = ~np.logical_and.outer(_in_safe_range(a_norms), _in_safe_range(b_norms))
    with np.errstate(all="ignore"):
        table = np.clip(1.0 - (A @ B.T) / np.outer(a_norms, b_norms), 0.0, 2.0)
    table[unsafe] = math.inf
    d = A.shape[1]
    tol = (d + 11) * 2.0**-53 if d <= 2**25 else math.inf
    cand = (table <= table.min(axis=1, keepdims=True) + 2.0 * tol) | unsafe
    picks = np.argmax(cand, axis=1)
    for i in np.flatnonzero(cand.sum(axis=1) > 1):
        best_d = math.inf
        for j in np.flatnonzero(cand[i]):
            dist = cosine_distance_with_norms(A[i], B[j], a_norms[i], b_norms[j])
            if dist < best_d:
                picks[i], best_d = j, dist
    return picks


def assign_pseudo_labels(features, centroids) -> Array:
    """Cosine-nearest centroid per sample; distance ties go to the lowest class."""
    V = as_float_array(features, ndim=2)
    C = as_float_array(centroids, ndim=2)
    if V.shape[1] != C.shape[1]:
        raise InvalidInputError(f"feature dim {V.shape[1]} != centroid dim {C.shape[1]}")
    if C.shape[0] == 0:
        raise InvalidInputError("need at least one centroid")
    return _nearest(V, _row_norms(V, "feature row"), C, _row_norms(C, "centroid"))


def _onehot_centroid(V: Array, rows: Array) -> Array:
    return column_fsums(V[rows]) / rows.size


def update_strong_set(inputs, norm_features, probs, domain: str = "target") -> StrongSet:
    """Two-round centroid self-learning over the full target domain.

    Round 1 forms probability-weighted centroids and pseudo-labels every
    sample by cosine proximity. Round 2 recomputes each centroid as the
    plain mean of its assigned samples, then stores, per class, the sample
    nearest the refined centroid (searched over ALL samples, so a class
    can recruit a sample pseudo-labeled elsewhere). A class that attracts
    no samples in round 1 falls back to the sample with the highest
    predicted probability for it.
    """
    X, P = _check_pair(inputs, probs, "inputs", "probs")
    P, V = _check_pair(P, norm_features, "probs", "norm_features")
    k = P.shape[1]
    round1 = compute_centroids(P, V)
    v_norms = _row_norms(V, "feature row")
    labels = _nearest(V, v_norms, round1, _row_norms(round1, "centroid"))

    members = [np.flatnonzero(labels == j) for j in range(k)]
    refined = [j for j in range(k) if members[j].size]
    C1 = np.stack([_onehot_centroid(V, members[j]) for j in refined])
    c1_norms = _row_norms(C1, "refined centroid of class", refined)
    nearest = dict(zip(refined, _nearest(C1, c1_norms, V, v_norms)))
    picks = [nearest[j] if j in nearest else np.argmax(P[:, j]) for j in range(k)]
    return StrongSet([StrongEntry(X[i].copy(), domain) for i in picks])


def _confident_rows(P: Array, lam: float) -> tuple:
    """(rows, top, top_p): top[i] is row i's argmax class, ties to the
    lowest, and top_p[i] its probability; rows lists the rows with top_p
    above lam by class, then best first, ties to the lowest row."""
    top = np.argmax(P, axis=1)
    top_p = P[np.arange(P.shape[0]), top]
    rows = np.flatnonzero(top_p > lam)
    return rows[np.lexsort((-top_p[rows], top[rows]))], top, top_p  # stable: equal keys keep row order


def _weak_rows(P: Array, lam: float) -> tuple:
    """(best, hit) for a non-empty (n, k) probability matrix: hit[c] says
    whether some row's argmax is class c with probability above lam, and
    then best[c] is the first such row of highest probability, the pick of
    _confident_rows. One masked argmax per class column."""
    top = P.argmax(1)
    top_p = P[np.arange(P.shape[0]), top]
    cols = np.arange(P.shape[1])
    M = np.where((top[:, None] == cols) & (top_p > lam)[:, None], top_p[:, None], -np.inf)
    best = M.argmax(0)
    return best, M[best, cols] > -np.inf


def update_weak_set(weak: WeakSet, inputs, probs, lam: float) -> WeakSet:
    """Per-batch threshold replacement: for each class that is some row's
    argmax with probability above lam, store that batch's best such sample.
    Classes not represented above the threshold keep their old entry."""
    X, P = _check_pair(inputs, probs, "inputs", "probs")
    k = P.shape[1]
    if len(weak.entries) != k:
        raise InvalidInputError(f"weak set has {len(weak.entries)} classes, probs has {k}")
    entries = list(weak.entries)
    if P.shape[0]:
        best, hit = _weak_rows(P, lam)
        for j in np.flatnonzero(hit).tolist():
            i = best[j]
            entries[j] = WeakEntry(X[i].copy(), float(P[i, j]))
    return WeakSet(entries)


def _fused(S: Array, W: Array, blend: Array, rng) -> Array:
    """Fused rows from strong rows S and weak rows W, both (m, d): row i is
    S[i] where blend[i] is False, else r*S[i] + (1-r)*W[i] with one fresh
    r ~ U(0,1) per blended row.

    The r of all blended rows come from one draw of the generator in row
    order, the same doubles as one scalar draw per row; a draw of exactly
    0 is redrawn, shifting the later rows onto the next draws, as a scalar
    draw-until-nonzero loop would."""
    F = S.copy()
    rows = blend.nonzero()[0]
    if rows.size:
        r = rng.uniform(0.0, 1.0, size=rows.size)
        while not r.all():  # r lives in the open interval
            i = np.argmin(r)  # the first zero
            r[i:] = np.append(r[i + 1 :], rng.uniform(0.0, 1.0))
        F[rows] = r[:, None] * S[rows] + (1.0 - r)[:, None] * W[rows]
    return F


def fuse(strong: StrongSet, weak: WeakSet, rng) -> list:
    """The fused sample of each class, or None for a class without a strong
    entry: x_sw = r*x_strong + (1-r)*x_weak with r ~ U(0,1), one fresh r
    per class that also has a weak entry, drawn as _fused does; a class
    without one keeps its strong sample (r=1)."""
    if not strong.populated:
        raise NotInitializedError("strong set is empty; fusion unavailable")
    if len(weak.entries) != len(strong.entries):
        raise InvalidInputError("strong and weak sets disagree on class count")
    classes = [j for j, st in enumerate(strong.entries) if st is not None]
    blend = [weak.entries[j] is not None for j in classes]
    S = np.array([strong.entries[j].x for j in classes], dtype=np.float64)
    # an unblended class's W row is never read; its strong row fills the slot
    W = np.array([(weak if b else strong).entries[j].x for j, b in zip(classes, blend)], dtype=np.float64)
    fused = [None] * len(strong.entries)
    for j, row in zip(classes, _fused(S, W, np.array(blend, dtype=bool), rng)):
        fused[j] = row
    return fused


def select_sw_batch(fused: list, pred_labels) -> FusedBatch:
    """One fused sample per predicted label, preserving multiplicity and
    order; labels whose class has no fused vector are dropped, and a batch
    that keeps none has inputs of shape (0, 0)."""
    y = np.asarray(pred_labels)
    if y.ndim != 1 or y.size == 0 or not np.issubdtype(y.dtype, np.integer):
        raise InvalidInputError("pred_labels must be a non-empty 1-d integer index array")
    k = len(fused)
    if y.min() < 0 or y.max() >= k:
        raise InvalidInputError(f"predicted labels must lie in [0, {k})")
    kept = [j for j in y.tolist() if fused[j] is not None]
    inputs = np.stack([fused[j] for j in kept]) if kept else np.zeros((0, 0))
    return FusedBatch(inputs, np.array(kept, dtype=np.int64))


def harvest_pseudo_strong(inputs, probs, lam: float, cap: int = 16) -> PseudoStrongSet:
    """Per class, keep the up-to-cap highest-probability samples whose argmax
    lands on the class with probability above lam."""
    X, P = _check_pair(inputs, probs, "inputs", "probs")
    if cap < 1:
        raise InvalidInputError("cap must be >= 1")
    rows, top, _ = _confident_rows(P, lam)
    ranking = np.split(rows, np.searchsorted(top[rows], np.arange(1, P.shape[1])))
    return PseudoStrongSet([[X[i].copy() for i in pool[:cap]] for pool in ranking])


# --- checkpoint-format serialization -----------------------------------------

def pseudo_to_arrays(pseudo: PseudoStrongSet) -> dict:
    out = {"pseudo.k": np.array(len(pseudo.pools), dtype=np.int64)}
    for j, pool in enumerate(pseudo.pools):
        if pool:
            out[f"pseudo.{j}"] = np.stack(pool)
    return out
