"""Independent brute-force reference implementations used by the tests.

Every oracle but adaptation_run is written with plain Python loops and
math.fsum, sharing no code with the library beyond the exception-free
input contract. fsum is exactly rounded, so wherever the library also
sums through fsum the two sides agree bit for bit, not just
approximately.

adaptation_run is the training loop, composed from the library's public,
checked functions, which the tests check on their own: the loop the
trainer runs on their unchecked kernels, written the plain way.
"""

import math

import numpy as np

from swda.config import STREAM_FUSION, STREAM_PEER, STREAM_SOURCE, STREAM_TARGET, BatchSampler, stream_rng
from swda.losses import adversarial_logit_loss, cross_entropy, info_max_loss, strong_weak_loss
from swda.network import backward, forward, init_params, lr_schedule, sgd_step
from swda.repsets import (
    StrongEntry,
    StrongSet,
    empty_weak_set,
    fuse,
    harvest_pseudo_strong,
    update_strong_set,
    update_weak_set,
)


def softmax_rows(logits):
    out = []
    for row in logits:
        m = max(row)
        exps = [math.exp(v - m) for v in row]
        z = math.fsum(exps)
        out.append([e / z for e in exps])
    return out


def cosine_distance(a, b):
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(x * x for x in b))
    dot = math.fsum(x * y for x, y in zip(a, b))
    d = 1.0 - dot / (na * nb)
    return min(max(d, 0.0), 2.0)


def centroids(P, V):
    """c[j][dd] = sum_i P[i][j] V[i][dd] / sum_i P[i][j], loops only."""
    n = len(P)
    k = len(P[0])
    d = len(V[0])
    C = []
    for j in range(k):
        denom = math.fsum(P[i][j] for i in range(n))
        C.append([math.fsum(P[i][j] * V[i][dd] for i in range(n)) / denom for dd in range(d)])
    return C


def assign_labels(V, C):
    labels = []
    for v in V:
        best_j, best_d = 0, math.inf
        for j, c in enumerate(C):
            dist = cosine_distance(v, c)
            if dist < best_d:
                best_j, best_d = j, dist
        labels.append(best_j)
    return labels


def strong_choices(X, V, P):
    """Two-round self-learning; returns the chosen sample index per class."""
    n = len(P)
    k = len(P[0])
    d = len(V[0])
    labels = assign_labels(V, centroids(P, V))
    picks = []
    for j in range(k):
        assigned = [i for i in range(n) if labels[i] == j]
        if not assigned:
            best_i, best_p = 0, -math.inf
            for i in range(n):
                if P[i][j] > best_p:
                    best_i, best_p = i, P[i][j]
            picks.append(best_i)
            continue
        c1 = [math.fsum(V[i][dd] for i in assigned) / float(len(assigned)) for dd in range(d)]
        best_i, best_d = 0, math.inf
        for i in range(n):
            dist = cosine_distance(V[i], c1)
            if dist < best_d:
                best_i, best_d = i, dist
        picks.append(best_i)
    return picks


def distance_graph(centroid_mats):
    """tensor[a][b][l]; diagonal zero by convention."""
    M = len(centroid_mats)
    k = len(centroid_mats[0])
    tensor = [[[0.0] * k for _ in range(M)] for _ in range(M)]
    for a in range(M):
        for b in range(M):
            if a == b:
                continue
            for l in range(k):
                tensor[a][b][l] = cosine_distance(centroid_mats[a][l], centroid_mats[b][l])
    return tensor


def peer_qualifies(tensor, i, j, l):
    d_si = tensor[0][i][l]
    return tensor[0][j][l] < d_si and tensor[i][j][l] < d_si


def adaptation_run(config, source, target, donors):
    """One adaptation run, as pipeline._adaptation_run makes it, from public
    functions. donors is None, or per class an (m, d) matrix of peer rows
    (m may be 0); after the first strong refresh every iteration swaps each
    class with donor rows for one of them, drawn uniformly class by class.

    Returns (params, curves, accuracy_iterations, accuracy_series,
    final_accuracy, pools): curves are the four loss lists L_CE, L_IM,
    L_ALL and L_SW; the accuracies are those of a labeled target, and
    pools harvest_pseudo_strong's of the final network."""
    w, k = config.weights, config.network.num_classes
    params = init_params(config.network, config.seed)
    velocity = np.zeros_like(params.flat)
    source_batches = BatchSampler(source.n, config.batch_size, stream_rng(config.seed, STREAM_SOURCE))
    target_batches = BatchSampler(target.n, config.batch_size, stream_rng(config.seed, STREAM_TARGET))
    fusion_rng, peer_rng = stream_rng(config.seed, STREAM_FUSION), stream_rng(config.seed, STREAM_PEER)
    strong, weak = None, empty_weak_set(k)
    curves, accuracy_iterations, accuracy_series = ([], [], [], []), [], []

    def target_accuracy():
        probs = forward(params, target.samples).probs
        return float(np.mean(np.argmax(probs, axis=1) == target.labels))

    for it in range(config.max_iterations):
        q = it / config.max_iterations
        lr_head, lr_gen = lr_schedule(q, config.eta0_head), lr_schedule(q, config.eta0_generator)
        idx = source_batches.next_batch()
        fwd = forward(params, source.samples[idx])
        ce = cross_entropy(fwd.probs, source.labels[idx])
        sgd_step(params, backward(params, fwd, ce.grad_wrt_logits), velocity, lr_head, lr_gen)

        batch = target.samples[target_batches.next_batch()]
        n = batch.shape[0]
        rows = batch
        if strong is not None:
            entries = list(strong.entries)
            for l in range(k):
                if donors is not None and len(donors[l]):
                    entries[l] = StrongEntry(donors[l][peer_rng.integers(len(donors[l]))], "peer")
            rows = np.concatenate([batch, np.stack(fuse(StrongSet(entries), weak, fusion_rng))])
        fwd = forward(params, rows)
        probs = fwd.probs[:n]
        pred = np.argmax(probs, axis=1)
        im = info_max_loss(probs)
        adv = adversarial_logit_loss(fwd.logits[:n], probs, w.lam)
        g_im, g_all = w.k1 * im.grad_wrt_logits, w.k2 * adv.grad_wrt_logits
        g_cls, g_feat = g_im + g_all, g_im - g_all  # L_ALL reaches the features reversed
        sw = 0.0
        if strong is not None:
            out = strong_weak_loss(fwd.probs[n + pred], pred)
            g_fused = np.zeros((k, k))  # each fused row gathers the gradient of every label that read it
            np.add.at(g_fused, pred, w.k3 * out.grad_wrt_logits)
            g_cls, g_feat, sw = np.concatenate([g_cls, g_fused]), np.concatenate([g_feat, g_fused]), out.value
        sgd_step(params, backward(params, fwd, g_cls, g_feat), velocity, lr_head, lr_gen)
        weak = update_weak_set(weak, batch, probs, w.lam)
        if (it + 1) % config.strong_refresh_period == 0:
            full = forward(params, target.samples)
            strong = update_strong_set(target.samples, full.norm_features, full.probs, target.name)

        for curve, value in zip(curves, (ce.value, im.value, adv.value, sw)):
            curve.append(value)
        if (it + 1) % config.accuracy_eval_period == 0 and target.labels is not None:
            accuracy_iterations.append(it + 1)
            accuracy_series.append(target_accuracy())

    final = None if target.labels is None else target_accuracy()
    pools = harvest_pseudo_strong(target.samples, forward(params, target.samples).probs, w.lam)
    return params, curves, accuracy_iterations, accuracy_series, final, pools
