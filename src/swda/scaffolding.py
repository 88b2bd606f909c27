"""Multi-target scaffolding: source-only pretraining, the class-wise
distance graph between domain centroids, the two peer criteria, and
strong-set replacement from qualifying peer domains. The supervised
source step and the accuracy check live here too; both trainers use them.

The distance graph is a (N+1) x (N+1) x k tensor of cosine distances
between per-class centroids, computed once from a source-only network and
then frozen. Domain slot 0 is always the source. A peer target j helps
target i on class l when j's class-l centroid is (1) closer to the source
than i's is, and (2) closer to i than the source is -- i.e. j lies
between the source and i for that class. Both inequalities are strict;
ties disqualify.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import STREAM_SOURCE, ExperimentConfig, BatchSampler, stream_rng
from .datasets import Domain
from .errors import (
    DegenerateInputError,
    InvalidDatasetError,
    InvalidInputError,
    NotInitializedError,
)
from .losses import cross_entropy
from .mathutils import Array, cosine_distance, serial_blas
from .network import (
    NetworkParams,
    backward,
    forward,
    init_params,
    lr_schedule,
    sgd_step,
)
from .repsets import PseudoStrongSet, StrongEntry, StrongSet, compute_centroids

log = logging.getLogger(__name__)

SOURCE_EVAL_PERIOD = 50  # iterations between source-only early-stopping checks


@dataclass
class DomainCentroids:
    centroids: list  # per domain: (k, d) matrix
    valid: list  # per domain: (k,) bool mask, False where no probability mass


@dataclass
class DistanceGraph:
    tensor: Array  # (M, M, k), M = num targets + 1, slot 0 = source
    valid: Array  # (M, M, k) bool

    @property
    def num_domains(self) -> int:
        return self.tensor.shape[0]

    @property
    def num_classes(self) -> int:
        return self.tensor.shape[2]


def check_source_classes(domain: Domain, num_classes: int) -> None:
    if domain.labels is None:
        raise InvalidDatasetError(f"domain {domain.name!r} has no labels")
    present = set(int(c) for c in domain.labels)
    outside = sorted(c for c in present if not 0 <= c < num_classes)
    if outside:
        raise InvalidDatasetError(f"domain {domain.name!r} has labels {outside} outside [0, {num_classes})")
    missing = [c for c in range(num_classes) if c not in present]
    if missing:
        raise InvalidDatasetError(f"domain {domain.name!r} is missing classes {missing}")


def evaluate(params: NetworkParams, domain: Domain) -> float:
    """Fraction of samples whose argmax probability hits the label."""
    if domain.labels is None:
        raise InvalidDatasetError(f"domain {domain.name!r} has no labels to evaluate against")
    if domain.n == 0:
        raise InvalidDatasetError(f"domain {domain.name!r} is empty")
    probs = forward(params, domain.samples).probs
    return float(np.mean(np.argmax(probs, axis=1) == domain.labels))


def source_step(config: ExperimentConfig, params, velocity, source: Domain, sampler: BatchSampler, q: float):
    """The supervised half of every iteration: a cross-entropy step on the
    next source batch at training progress q. Returns (cross-entropy value,
    head learning rate, generator learning rate)."""
    lr_head, lr_gen = lr_schedule(q, config.eta0_head), lr_schedule(q, config.eta0_generator)
    idx = sampler.next_batch()
    fwd = forward(params, source.samples[idx])
    ce = cross_entropy(fwd.probs, source.labels[idx])
    sgd_step(params, backward(params, fwd, ce.grad_wrt_logits), velocity, lr_head, lr_gen)
    return ce.value, lr_head, lr_gen


@serial_blas()
@np.errstate(over="raise", invalid="raise", divide="raise")
def train_source_only(config: ExperimentConfig, source: Domain) -> NetworkParams:
    """Cross-entropy training on the labeled source with early stopping.

    Source accuracy is evaluated every SOURCE_EVAL_PERIOD iterations; the
    best-scoring parameters are kept, and training stops once accuracy has
    fallen below the running best on two consecutive evaluations.
    """
    check_source_classes(source, config.network.num_classes)
    budget = config.max_iterations if config.source_iterations is None else config.source_iterations
    params = init_params(config.network, config.seed)
    best_params = params.copy()
    if budget == 0:
        return best_params
    velocity = np.zeros_like(params.flat)
    sampler = BatchSampler(source.n, config.batch_size, stream_rng(config.seed, STREAM_SOURCE))

    best_acc = -1.0
    consecutive_drops = 0
    try:
        for it in range(budget):
            source_step(config, params, velocity, source, sampler, it / budget)
            if (it + 1) % SOURCE_EVAL_PERIOD == 0:
                acc = evaluate(params, source)
                if acc > best_acc:
                    best_acc = acc
                    best_params = params.copy()
                    consecutive_drops = 0
                elif acc < best_acc:
                    consecutive_drops += 1
                    if consecutive_drops >= 2:
                        break
                else:
                    consecutive_drops = 0
    except (FloatingPointError, DegenerateInputError) as exc:
        raise DegenerateInputError(f"source-only training, iteration {it + 1}: {exc}") from exc
    return best_params


def compute_domain_centroids(params: NetworkParams, samples) -> tuple:
    """Probability-weighted class centroids of one domain's normalized
    features. Returns (centroids (k, d), valid (k,) mask); a class with zero
    total probability mass is marked invalid instead of raising."""
    fwd = forward(params, samples)
    P, V = fwd.probs, fwd.norm_features
    valid = np.array([math.fsum(P[:, j].tolist()) != 0.0 for j in range(P.shape[1])], dtype=bool)
    for j in np.flatnonzero(~valid):
        log.warning("class %d has zero probability mass; centroid marked unusable", j)
    # each centroid row depends only on its own probability column
    C = np.zeros((P.shape[1], V.shape[1]))
    C[valid] = compute_centroids(P[:, valid], V)
    return C, valid


def centroids_for_domains(params: NetworkParams, domains: list) -> DomainCentroids:
    cents, masks = [], []
    for dom in domains:
        if dom.n == 0:
            raise InvalidDatasetError(f"domain {dom.name!r} is empty")
        C, valid = compute_domain_centroids(params, dom.samples)
        cents.append(C)
        masks.append(valid)
    return DomainCentroids(cents, masks)


def build_distance_graph(dc: DomainCentroids) -> DistanceGraph:
    """Pairwise per-class cosine distances; symmetric, zero diagonal."""
    M = len(dc.centroids)
    if M < 2:
        raise InvalidInputError("distance graph needs at least 2 domains")
    k = dc.centroids[0].shape[0]
    if any(c.shape != dc.centroids[0].shape for c in dc.centroids):
        raise InvalidInputError("centroid matrices disagree on shape")
    tensor = np.zeros((M, M, k))
    valid = np.zeros((M, M, k), dtype=bool)
    for a in range(M):
        for l in range(k):
            valid[a, a, l] = dc.valid[a][l]
    for a in range(M):
        for b in range(a + 1, M):
            for l in range(k):
                if not (dc.valid[a][l] and dc.valid[b][l]):
                    continue
                try:
                    dist = cosine_distance(dc.centroids[a][l], dc.centroids[b][l])
                except DegenerateInputError:
                    log.warning("zero-norm centroid for class %d (domains %d,%d)", l, a, b)
                    continue
                tensor[a, b, l] = tensor[b, a, l] = dist
                valid[a, b, l] = valid[b, a, l] = True
    return DistanceGraph(tensor, valid)


def peer_qualifies(G: DistanceGraph, i: int, j: int, l: int) -> bool:
    """True iff target j sits between the source and target i for class l:
    d(S, Tj) < d(S, Ti) and d(Ti, Tj) < d(S, Ti), both strictly."""
    M, k = G.num_domains, G.num_classes
    if not (1 <= i < M and 1 <= j < M):
        raise InvalidInputError(f"target indices must lie in [1, {M}); got i={i}, j={j}")
    if i == j:
        raise InvalidInputError("a target cannot be its own peer")
    if not 0 <= l < k:
        raise InvalidInputError(f"class {l} outside [0, {k})")
    if not (G.valid[0, j, l] and G.valid[0, i, l] and G.valid[i, j, l]):
        log.info("peer check (i=%d, j=%d, l=%d) skipped: unusable graph entry", i, j, l)
        return False
    d_si = G.tensor[0, i, l]
    return bool(G.tensor[0, j, l] < d_si and G.tensor[i, j, l] < d_si)


def qualifying_fraction(G: DistanceGraph, i: int) -> float:
    """Fraction of classes for which at least one peer qualifies for target i."""
    hits = 0
    for l in range(G.num_classes):
        if any(
            peer_qualifies(G, i, j, l)
            for j in range(1, G.num_domains)
            if j != i
        ):
            hits += 1
    return hits / G.num_classes


def replace_with_peers(
    own_strong: StrongSet,
    peers: dict,
    G: DistanceGraph,
    i: int,
    rng: np.random.Generator,
) -> StrongSet:
    """Per class, swap the strong entry for a uniformly chosen sample from
    the pooled pseudo-strong sets of all qualifying peers; classes without a
    qualifying, non-empty peer pool keep their own entry.

    peers maps graph slot j (>= 1) to that target's PseudoStrongSet.
    """
    if not own_strong.populated:
        raise NotInitializedError("own strong set is empty; nothing to replace")
    entries = list(own_strong.entries)
    for l in range(len(entries)):
        union = []
        for j in sorted(peers):
            pool: PseudoStrongSet = peers[j]
            if j == i or not pool.pools[l]:
                continue
            if peer_qualifies(G, i, j, l):
                union.extend((sample, j) for sample in pool.pools[l])
        if union:
            sample, j = union[int(rng.integers(len(union)))]
            entries[l] = StrongEntry(sample.copy(), f"target{j}")
    return StrongSet(entries)


# --- reporting ----------------------------------------------------------------

def format_distance_report(G: DistanceGraph, names: list) -> str:
    """Per-class distance matrices plus the class-averaged matrix; unusable
    entries print as nan."""
    if len(names) != G.num_domains:
        raise InvalidInputError("one name per domain required")
    masked = np.where(G.valid, G.tensor, np.nan)
    lines = [f"distance-graph domains={G.num_domains} classes={G.num_classes}"]
    lines.append("names: " + " ".join(names))
    for l in range(G.num_classes):
        lines.append(f"class {l}")
        for a in range(G.num_domains):
            lines.append(" ".join(f"{masked[a, b, l]:.6f}" for b in range(G.num_domains)))
    lines.append("average")
    counts = G.valid.sum(axis=2)
    sums = np.where(G.valid, G.tensor, 0.0).sum(axis=2)
    with np.errstate(invalid="ignore"):
        avg = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    for a in range(G.num_domains):
        lines.append(" ".join(f"{avg[a, b]:.6f}" for b in range(G.num_domains)))
    return "\n".join(lines) + "\n"

