"""Multi-target scaffolding: source-only pretraining, the class-wise
distance graph between domain centroids, the two peer criteria, and
strong-set replacement from qualifying peer domains. The supervised
source step, the accuracy check and full_pass, the pass over a whole
domain in row blocks, live here too; both trainers use them.

The distance graph is a (N+1) x (N+1) x k tensor of cosine distances
between per-class centroids, computed once from a source-only network and
then frozen, one exact table per class. Domain slot 0 is always the
source. A peer target j helps target i on class l when j's class-l
centroid is (1) closer to the source than i's is, and (2) closer to i
than the source is -- i.e. j lies between the source and i for that
class. Both inequalities are strict; ties disqualify. One (peer, class)
mask per target (_qualifying) holds the rule for all its readers; a
target that qualifies for no one is no donor, and part 1 skips it.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .config import STREAM_SOURCE, ExperimentConfig, BatchSampler, stream_rng
from .datasets import Domain
from .errors import DegenerateInputError, InvalidDatasetError, InvalidInputError, NotInitializedError
from .losses import _cross_entropy
from .mathutils import BLOCK_ROWS, Array, as_float_array, column_fsums, cosine_distances, row_norms, serial_blas
from .network import (
    NetworkParams,
    backward,
    forward,
    init_params,
    lr_schedule,
    sgd_step,
)
from .repsets import StrongEntry, StrongSet, compute_centroids

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


def check_label_range(domain: Domain, num_classes: int) -> None:
    """Reject a labeled domain with a label outside [0, num_classes)."""
    labels = domain.labels
    outside = sorted(set(labels[(labels < 0) | (labels >= num_classes)].tolist()))
    if outside:
        raise InvalidDatasetError(f"domain {domain.name!r} has labels {outside} outside [0, {num_classes})")


def check_source_classes(domain: Domain, num_classes: int) -> None:
    if domain.labels is None:
        raise InvalidDatasetError(f"domain {domain.name!r} has no labels")
    check_label_range(domain, num_classes)
    present = set(domain.labels.tolist())
    # every label lies in [0, num_classes), so this counts the absent classes
    # without listing them all: a config file's num_classes can be huge
    absent = num_classes - len(present)
    if absent:
        missing = list(itertools.islice((c for c in range(num_classes) if c not in present), 10))
        more = f" and {absent - len(missing)} more" if absent > len(missing) else ""
        raise InvalidDatasetError(f"domain {domain.name!r} is missing classes {missing}{more}")


def evaluate(params: NetworkParams, domain: Domain) -> float:
    """Fraction of samples whose argmax probability hits the label."""
    if domain.labels is None:
        raise InvalidDatasetError(f"domain {domain.name!r} has no labels to evaluate against")
    if domain.n == 0:
        raise InvalidDatasetError(f"domain {domain.name!r} is empty")
    return accuracy(full_pass(params, domain.samples, features=False)[1], domain.labels)


def full_pass(params: NetworkParams, samples: Array, features: bool = True) -> tuple:
    """(normalized features, probabilities) of every row of samples, from
    one forward call per BLOCK_ROWS-row block; with features=False only the
    probabilities are kept, and None stands for the features. A pass's
    backward cache dies with its block, and each row's outputs depend on
    that row alone, so the arrays are those of one forward over all rows,
    bit for bit. Samples that fit one block get that pass's own arrays."""
    samples = as_float_array(samples, ndim=2)
    n = samples.shape[0]
    if n <= BLOCK_ROWS:
        fwd = forward(params, samples)
        return (fwd.norm_features if features else None), fwd.probs
    V = np.empty((n, params.bottleneck.weight.shape[0])) if features else None
    P = np.empty((n, params.classifier.shape[0]))
    for lo in range(0, n, BLOCK_ROWS):
        fwd = forward(params, samples[lo : lo + BLOCK_ROWS])
        P[lo : lo + BLOCK_ROWS] = fwd.probs
        if features:
            V[lo : lo + BLOCK_ROWS] = fwd.norm_features
        del fwd  # before the next block's pass allocates
    return V, P


def accuracy(probs: Array, labels: Array) -> float:
    """Fraction of rows of probs whose argmax hits the label."""
    return float(np.mean(np.argmax(probs, axis=1) == labels))


class ClampCount:
    """Cross-entropy clamps (see losses.cross_entropy) over one trainer run,
    reported in one line at its end instead of one per iteration."""

    def __init__(self):
        self.entries = self.iterations = 0

    def add(self, clamped: int) -> None:
        self.entries += clamped
        self.iterations += clamped > 0

    def report(self, run: str) -> None:
        if self.entries:
            log.warning(
                "%s: cross_entropy clamped %d zero-probability entries over %d iterations",
                run,
                self.entries,
                self.iterations,
            )


def source_step(
    config: ExperimentConfig, params, velocity, grads, source: Domain, sampler: BatchSampler, q: float, clamps: ClampCount
):
    """The supervised half of every iteration: a cross-entropy step on the
    next source batch at training progress q, with its gradients written
    into the tree ``grads`` and its clamped entries added to ``clamps``.
    Returns (cross-entropy value, head learning rate, generator learning
    rate)."""
    lr_head, lr_gen = lr_schedule(q, config.eta0_head), lr_schedule(q, config.eta0_generator)
    idx = sampler.next_batch()
    fwd = forward(params, source.samples[idx])
    ce, grad, clamped = _cross_entropy(fwd.probs, source.labels[idx])
    clamps.add(clamped)
    sgd_step(params, backward(params, fwd, grad, out=grads), velocity, lr_head, lr_gen)
    return ce, lr_head, lr_gen


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
    grads = params.with_flat(np.empty_like(params.flat))
    sampler = BatchSampler(source.n, config.batch_size, stream_rng(config.seed, STREAM_SOURCE))
    clamps = ClampCount()

    best_acc = -1.0
    consecutive_drops = 0
    try:
        for it in range(budget):
            source_step(config, params, velocity, grads, source, sampler, it / budget, clamps)
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
    finally:
        clamps.report("source-only training")
    return best_params


def compute_domain_centroids(params: NetworkParams, samples) -> tuple:
    """Probability-weighted class centroids of one domain's normalized
    features. Returns (centroids (k, d), valid (k,) mask); a class with zero
    total probability mass is marked invalid instead of raising."""
    V, P = full_pass(params, samples)
    valid = column_fsums(P) != 0.0
    # each centroid row depends only on its own probability column
    C = np.zeros((P.shape[1], V.shape[1]))
    C[valid] = compute_centroids(P[:, valid], V)
    return C, valid


def centroids_for_domains(params: NetworkParams, domains: list) -> DomainCentroids:
    """Each domain's compute_domain_centroids; features that overflow the
    network are a DegenerateInputError naming the domain, as in training."""
    cents, masks = [], []
    for dom in domains:
        if dom.n == 0:
            raise InvalidDatasetError(f"domain {dom.name!r} is empty")
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                C, valid = compute_domain_centroids(params, dom.samples)
        except FloatingPointError as exc:
            raise DegenerateInputError(f"domain {dom.name!r}: {exc}") from exc
        for j in np.flatnonzero(~valid):
            log.warning("domain %r: class %d has zero probability mass; centroid marked unusable", dom.name, j)
        cents.append(C)
        masks.append(valid)
    return DomainCentroids(cents, masks)


def build_distance_graph(dc: DomainCentroids) -> DistanceGraph:
    """Pairwise per-class cosine distances; symmetric, zero diagonal. Every
    entry of a centroid that is not valid, or has a zero or non-finite norm
    (warned once), is invalid."""
    M = len(dc.centroids)
    if M < 2:
        raise InvalidInputError("distance graph needs at least 2 domains")
    k = dc.centroids[0].shape[0]
    if any(c.shape != dc.centroids[0].shape for c in dc.centroids):
        raise InvalidInputError("centroid matrices disagree on shape")
    C = as_float_array(dc.centroids)  # (M, k, d)
    norms = row_norms(C.reshape(M * k, -1)).reshape(M, k)
    usable = np.array(dc.valid, dtype=bool)
    for why, bad in (("zero", norms == 0.0), ("non-finite", ~np.isfinite(norms))):
        for a, l in np.argwhere(usable & bad):
            log.warning("class %d centroid of domain %d has %s norm; marked unusable", l, a, why)
        usable &= ~bad
    tensor = np.zeros((M, M, k))
    for l in range(k):
        u = np.flatnonzero(usable[:, l])
        table = cosine_distances(C[u, l], norms[u, l], C[u, l], norms[u, l])
        np.fill_diagonal(table, 0.0)
        tensor[u[:, None], u, l] = table
    return DistanceGraph(tensor, usable[:, None] & usable[None])


def _qualifying(G: DistanceGraph, i: int) -> Array:
    """(M, k) mask: [j, l] says peer_qualifies(G, i, j, l); rows 0 and i are False."""
    M = G.num_domains
    if not 1 <= i < M:
        raise InvalidInputError(f"target index must lie in [1, {M}); got i={i}")
    T, V = G.tensor, G.valid
    mask = V[0] & V[0, i] & V[i] & (T[0] < T[0, i]) & (T[i] < T[0, i])
    mask[[0, i]] = False
    return mask


def peer_qualifies(G: DistanceGraph, i: int, j: int, l: int) -> bool:
    """True iff target j sits between the source and target i for class l:
    d(S, Tj) < d(S, Ti) and d(Ti, Tj) < d(S, Ti), both strictly, on usable
    graph entries."""
    M, k = G.num_domains, G.num_classes
    if not (1 <= i < M and 1 <= j < M):
        raise InvalidInputError(f"target indices must lie in [1, {M}); got i={i}, j={j}")
    if i == j:
        raise InvalidInputError("a target cannot be its own peer")
    if not 0 <= l < k:
        raise InvalidInputError(f"class {l} outside [0, {k})")
    return bool(_qualifying(G, i)[j, l])


def qualifying_fraction(G: DistanceGraph, i: int) -> float:
    """Fraction of classes for which at least one peer qualifies for target i."""
    return int(_qualifying(G, i).any(axis=0).sum()) / G.num_classes


def peer_masks(G: DistanceGraph) -> Array:
    """(M, M, k) stack of every target's mask: [i, j, l] says target j
    qualifies as a peer of target i for class l; row 0, the source, is all
    False. One _qualifying call per target."""
    masks = np.zeros((G.num_domains, G.num_domains, G.num_classes), dtype=bool)
    for i in range(1, G.num_domains):
        masks[i] = _qualifying(G, i)
    return masks


def donor_slots(masks: Array) -> list:
    """The slots j, ascending, that qualify as a peer of some target for
    some class under peer_masks: the only targets whose pools part 3 reads."""
    return np.flatnonzero(masks.any(axis=(0, 2))).tolist()


def _donors(qualifies: Array, peers: dict) -> list:
    """peer_donors for a target whose (peer, class) mask is qualifies."""
    return [
        [(sample, j) for j in sorted(peers) if qualifies[j, l] for sample in peers[j].pools[l]]
        for l in range(qualifies.shape[1])
    ]


def peer_donors(G: DistanceGraph, i: int, peers: dict) -> list:
    """Per class l, the (sample, j) pairs that may replace target i's
    class-l strong entry: every class-l pool sample of every peer j != i
    that qualifies for class l, in slot order, then pool order. peers maps
    graph slot j (>= 1) to that target's PseudoStrongSet; the graph and
    the pools are frozen before part 3, so one call serves a whole run."""
    return _donors(_qualifying(G, i), peers)


def _donor_table(donors: list) -> tuple:
    """(classes, pairs, starts, counts): the classes l with a non-empty
    donors[l] (see peer_donors), ascending; those lists concatenated; and
    where each class's list starts in pairs, and its length."""
    classes = [l for l, union in enumerate(donors) if union]
    counts = np.array([len(donors[l]) for l in classes], dtype=np.int64)
    return classes, [pair for l in classes for pair in donors[l]], np.cumsum(counts) - counts, counts


def _draw_donors(starts: Array, counts: Array, rng: np.random.Generator) -> Array:
    """Positions in a _donor_table's pairs of one uniform donor per class:
    one rng.integers(counts), the same values and generator state as
    rng.integers(n) for each n in counts in turn."""
    return starts + rng.integers(counts)


def replace_with_peers(own_strong: StrongSet, donors: list, rng: np.random.Generator) -> StrongSet:
    """Per class, swap the strong entry for a pair of donors[l] (see
    peer_donors) drawn by _draw_donors; classes with an empty donor list,
    or past the end of donors, keep their own entry object."""
    if not own_strong.populated:
        raise NotInitializedError("own strong set is empty; nothing to replace")
    entries = list(own_strong.entries)
    classes, pairs, starts, counts = _donor_table(donors)
    for l, i in zip(classes, _draw_donors(starts, counts, rng).tolist()):
        sample, j = pairs[i]
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

