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

Centroids and feature norms are summed with math.fsum, which is exactly
rounded and therefore order-independent. The nearest-centroid and
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
from .mathutils import Array, as_float_array, cosine_distance_with_norms, exact_norm


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
    d = V.shape[1]
    if n == 0:
        raise InvalidInputError("need at least one sample to form centroids")
    C = np.empty((k, d))
    for j in range(k):
        w = P[:, j]
        denom = math.fsum(w.tolist())
        if denom == 0.0:
            raise EmptyClassError(f"class {j} has zero total probability mass")
        for dd in range(d):
            C[j, dd] = math.fsum((w * V[:, dd]).tolist()) / denom
    return C


# Safe norm range for the certificate in _nearest: with both operand norms
# in [2^-250, 2^250], no product or partial sum of a dot product
# overflows, and underflow adds under 4d * 2^-575 relative error, far
# below the unit roundoff.
_SAFE_NORM_LO, _SAFE_NORM_HI = 2.0**-250, 2.0**250


def _in_safe_range(norms: Array) -> Array:
    return (norms >= _SAFE_NORM_LO) & (norms <= _SAFE_NORM_HI)


def _row_norms(M: Array, what: str, ids=None) -> Array:
    """Exact norm of every row; a zero row (row ``ids[r]`` in messages) raises."""
    norms = np.array([exact_norm(row) for row in M])
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        row = zero[0] if ids is None else ids[zero[0]]
        raise DegenerateInputError(f"{what} {row} has zero norm; its cosine distance is undefined")
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
    count = float(rows.size)
    return np.array([math.fsum(V[rows, dd].tolist()) / count for dd in range(V.shape[1])])


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
    X = as_float_array(inputs, ndim=2)
    P, V = _check_pair(probs, norm_features, "probs", "norm_features")
    if X.shape[0] != P.shape[0]:
        raise InvalidInputError("inputs row count does not match probs")
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


def update_weak_set(weak: WeakSet, inputs, probs, lam: float) -> WeakSet:
    """Per-batch threshold replacement: for each class that is some row's
    argmax with probability above lam, store that batch's best such sample.
    Classes not represented above the threshold keep their old entry."""
    X = as_float_array(inputs, ndim=2)
    P = as_float_array(probs, ndim=2)
    if X.shape[0] != P.shape[0]:
        raise InvalidInputError("inputs row count does not match probs")
    n, k = P.shape
    if len(weak.entries) != k:
        raise InvalidInputError(f"weak set has {len(weak.entries)} classes, probs has {k}")
    entries = list(weak.entries)
    if n:
        top = np.argmax(P, axis=1)
        top_p = P[np.arange(n), top]
        for j in range(k):
            rows = np.flatnonzero((top == j) & (top_p > lam))
            if rows.size:
                best = int(rows[np.argmax(top_p[rows])])
                entries[j] = WeakEntry(X[best].copy(), float(top_p[best]))
    return WeakSet(entries)


def fuse(strong: StrongSet, weak: WeakSet, rng) -> list:
    """Blend x_sw = r*x_strong + (1-r)*x_weak with r ~ U(0,1), one fresh r
    per class; a class without a weak entry keeps its strong sample (r=1)."""
    if not strong.populated:
        raise NotInitializedError("strong set is empty; fusion unavailable")
    if len(weak.entries) != len(strong.entries):
        raise InvalidInputError("strong and weak sets disagree on class count")
    fused = []
    for st, wk in zip(strong.entries, weak.entries):
        if st is None:
            fused.append(None)
        elif wk is None:
            fused.append(st.x.copy())
        else:
            r = float(rng.uniform(0.0, 1.0))
            while r == 0.0:  # the blend coefficient lives in the open interval
                r = float(rng.uniform(0.0, 1.0))
            fused.append(r * st.x + (1.0 - r) * wk.x)
    return fused


def select_sw_batch(fused: list, pred_labels) -> FusedBatch:
    """One fused sample per predicted label, preserving multiplicity and
    order; labels whose class has no fused vector are dropped."""
    y = np.asarray(pred_labels)
    if y.ndim != 1 or y.size == 0:
        raise InvalidInputError("pred_labels must be a non-empty 1-d index array")
    k = len(fused)
    if y.min() < 0 or y.max() >= k:
        raise InvalidInputError(f"predicted labels must lie in [0, {k})")
    rows = [(fused[int(c)], int(c)) for c in y if fused[int(c)] is not None]
    if not rows:
        dim = next((v.shape[0] for v in fused if v is not None), 0)
        return FusedBatch(np.zeros((0, dim)), np.zeros(0, dtype=np.int64))
    inputs = np.stack([r[0] for r in rows])
    labels = np.array([r[1] for r in rows], dtype=np.int64)
    return FusedBatch(inputs, labels)


def harvest_pseudo_strong(inputs, probs, lam: float, cap: int = 16) -> PseudoStrongSet:
    """Per class, keep the up-to-cap highest-probability samples whose argmax
    lands on the class with probability above lam."""
    X = as_float_array(inputs, ndim=2)
    P = as_float_array(probs, ndim=2)
    if X.shape[0] != P.shape[0]:
        raise InvalidInputError("inputs row count does not match probs")
    if cap < 1:
        raise InvalidInputError("cap must be >= 1")
    n, k = P.shape
    pools = [[] for _ in range(k)]
    if n:
        top = np.argmax(P, axis=1)
        top_p = P[np.arange(n), top]
        for j in range(k):
            rows = np.flatnonzero((top == j) & (top_p > lam))
            order = rows[np.argsort(-top_p[rows], kind="stable")][:cap]
            pools[j] = [X[int(i)].copy() for i in order]
    return PseudoStrongSet(pools)


# --- checkpoint-format serialization -----------------------------------------

def pseudo_to_arrays(pseudo: PseudoStrongSet) -> dict:
    out = {"pseudo.k": np.array(len(pseudo.pools), dtype=np.int64)}
    for j, pool in enumerate(pseudo.pools):
        if pool:
            out[f"pseudo.{j}"] = np.stack(pool)
    return out


def pseudo_from_arrays(arrays: dict) -> PseudoStrongSet:
    k = int(arrays["pseudo.k"])
    pools = []
    for j in range(k):
        block = arrays.get(f"pseudo.{j}")
        pools.append([] if block is None else [row.copy() for row in block])
    return PseudoStrongSet(pools)
