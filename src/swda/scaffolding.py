"""Multi-target scaffolding: source-only pretraining, the class-wise
distance graph between domain centroids, the two peer criteria, and
strong-set replacement from qualifying peer domains. Both trainers use
the rest: TrainingRun, every run's state and source step; named_faults,
the one fault boundary of a run or a whole-domain pass; full_pass, that
pass in row blocks, always (features, probabilities); and accuracy.

The distance graph is a (N+1) x (N+1) x k tensor of cosine distances
between per-class centroids, computed once from a source-only network and
then frozen, one exact table per class. Domain slot 0 is always the
source. A peer target j helps target i on class l when j's class-l
centroid is (1) closer to the source than i's is, and (2) closer to i
than the source is -- i.e. j lies between the source and i for that
class. Both inequalities are strict; ties disqualify. One (M, M, k) mask
tensor (peer_masks) holds the rule for all its readers; a target that
qualifies for no one is no donor, and part 1 skips it. A target's donors
are one table of stacked peer rows (_donor_table), drawn from per class.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .config import STREAM_SOURCE, ExperimentConfig, BatchSampler, stream_rng
from .datasets import Domain
from .errors import DegenerateInputError, InvalidDatasetError, InvalidInputError, NotInitializedError, SwdaError
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
    # without listing them all: num_classes, the largest source label + 1 or
    # an API caller's NetworkConfig, can be huge
    absent = num_classes - len(present)
    if absent:
        missing = list(itertools.islice((c for c in range(num_classes) if c not in present), 10))
        more = f" and {absent - len(missing)} more" if absent > len(missing) else ""
        raise InvalidDatasetError(f"domain {domain.name!r} is missing classes {missing}{more}")


def evaluate(params: NetworkParams, domain: Domain) -> float:
    """Fraction of samples whose argmax probability hits the label."""
    if domain.labels is None:
        raise InvalidDatasetError(f"domain {domain.name!r} has no labels to evaluate against")
    return accuracy(full_pass(params, domain.samples)[1], domain.labels)


def full_pass(params: NetworkParams, samples: Array) -> tuple:
    """(normalized features, probabilities) of every row of samples, from
    one forward call per block of at most BLOCK_ROWS rows. A pass's
    backward cache dies with its block, and each row's outputs depend on
    that row alone, so the arrays are those of one forward over all rows,
    bit for bit. Samples that fit one block get that pass's own arrays."""
    samples = as_float_array(samples, ndim=2)
    n = samples.shape[0]
    if n <= BLOCK_ROWS:
        fwd = forward(params, samples)
        return fwd.norm_features, fwd.probs
    V = np.empty((n, params.bottleneck.weight.shape[0]))
    P = np.empty((n, params.classifier.shape[0]))
    starts = list(range(0, n, BLOCK_ROWS))
    if n - starts[-1] == 1:  # a one-row product takes BLAS's gemv, which rounds unlike gemm
        starts[-1] -= 1
    for lo, hi in zip(starts, starts[1:] + [n]):
        fwd = forward(params, samples[lo:hi])
        P[lo:hi] = fwd.probs
        V[lo:hi] = fwd.norm_features
        del fwd  # before the next block's pass allocates
    return V, P


def accuracy(probs: Array, labels: Array) -> float:
    """Fraction of rows of probs whose argmax hits the label."""
    return float(np.mean(np.argmax(probs, axis=1) == labels))


@contextlib.contextmanager
def named_faults(where):
    """The one fault boundary, entered once around a whole trainer run or
    full-domain pass: inside it numpy overflow, invalid and divide-by-zero
    raise, a FloatingPointError becomes a DegenerateInputError, and any
    SwdaError keeps its class, and so its exit code. Either message is
    prefixed with str(where), taken when the fault happens, so a run can
    name the iteration it had reached."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise DegenerateInputError(f"{where}: {exc}") from exc
    except SwdaError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


class TrainingRun:
    """What every trainer run builds: parameters, momentum, the gradient
    tree every backward pass of the run writes into, the source batch
    sampler, the iteration count and the cross-entropy clamp counts (see
    losses.cross_entropy). str(run) is the run's name and iteration."""

    def __init__(self, config: ExperimentConfig, source: Domain, name: str):
        self.config, self.source, self.name = config, source, name
        self.params = init_params(config.network, config.seed)
        self.velocity = np.zeros_like(self.params.flat)
        self.grads = self.params.with_flat(np.empty_like(self.params.flat))
        self.sampler = BatchSampler(source.n, config.batch_size, stream_rng(config.seed, STREAM_SOURCE))
        self.iteration = 0  # iterations begun
        self.clamped = self.clamped_iterations = 0

    def __str__(self) -> str:
        return f"{self.name}, iteration {self.iteration}"

    def step(self, q: float):
        """Begin the next iteration with its supervised half: a
        cross-entropy step on the next source batch at training progress q.
        A fault of the batch's forward pass names the source. Returns
        (cross-entropy value, head learning rate, generator learning rate)."""
        self.iteration += 1
        lr_head, lr_gen = lr_schedule(q, self.config.eta0_head), lr_schedule(q, self.config.eta0_generator)
        idx = self.sampler.next_batch()
        try:  # numpy raises here: the run's named_faults set errstate
            fwd = forward(self.params, self.source.samples[idx])
        except (FloatingPointError, DegenerateInputError) as exc:
            raise DegenerateInputError(f"source {self.source.name!r}: {exc}") from exc
        ce, grad, clamped = _cross_entropy(fwd.probs, self.source.labels[idx])
        self.clamped += clamped
        self.clamped_iterations += clamped > 0
        sgd_step(self.params, backward(self.params, fwd, grad, out=self.grads), self.velocity, lr_head, lr_gen)
        return ce, lr_head, lr_gen

    @contextlib.contextmanager
    def faults(self):
        """named_faults(self) around the whole run; then the run's clamps in
        one line, whether it ends or fails, instead of one per iteration."""
        try:
            with named_faults(self):
                yield
        finally:
            if self.clamped:
                log.warning(
                    "%s: cross_entropy clamped %d zero-probability entries over %d iterations",
                    self.name,
                    self.clamped,
                    self.clamped_iterations,
                )


@serial_blas()
def train_source_only(config: ExperimentConfig, source: Domain) -> NetworkParams:
    """Cross-entropy training on the labeled source for up to
    config.max_iterations iterations, with early stopping.

    Source accuracy is evaluated every SOURCE_EVAL_PERIOD iterations; the
    best-scoring parameters are kept, and training stops once accuracy has
    fallen below the running best on two consecutive evaluations.
    """
    check_source_classes(source, config.network.num_classes)
    run = TrainingRun(config, source, "source-only training")
    best_params, best_acc, drops = run.params.copy(), -1.0, 0  # drops: consecutive checks below the best
    with run.faults():
        for it in range(config.max_iterations):
            run.step(it / config.max_iterations)
            if (it + 1) % SOURCE_EVAL_PERIOD == 0:
                acc = evaluate(run.params, source)
                if acc > best_acc:
                    best_params, best_acc = run.params.copy(), acc
                drops = drops + 1 if acc < best_acc else 0
                if drops == 2:
                    break
    return best_params


def centroids_for_domains(params: NetworkParams, domains: list) -> DomainCentroids:
    """Each domain's probability-weighted class centroids, from one
    full_pass inside named_faults for that domain: a failure names the
    domain. A class with zero probability mass gets an invalid zero centroid."""
    cents, masks = [], []
    for dom in domains:
        with named_faults(f"domain {dom.name!r}"):
            V, P = full_pass(params, dom.samples)
            valid = column_fsums(P) != 0.0
            # each centroid row depends only on its own probability column
            C = np.zeros((P.shape[1], V.shape[1]))
            C[valid] = compute_centroids(P[:, valid], V)
            del V, P  # before the next domain's pass allocates
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


def peer_masks(G: DistanceGraph) -> Array:
    """(M, M, k) mask: [i, j, l] says target j sits between the source and
    target i for class l, d(S, Tj) < d(S, Ti) and d(Ti, Tj) < d(S, Ti),
    both strictly, on usable graph entries. Slot 0, the source, is all
    False, and so is the diagonal, where criterion 1 would need d(S, Ti)
    below itself."""
    T, V = G.tensor, G.valid
    d_si = T[0][:, None]  # [i, 0, l] = d(S, Ti)
    target = np.arange(G.num_domains) > 0
    return (target[:, None] & target)[:, :, None] & V[0] & V[0][:, None] & V & (T[0] < d_si) & (T < d_si)


def peer_qualifies(G: DistanceGraph, i: int, j: int, l: int) -> bool:
    """peer_masks(G)[i, j, l] for targets i != j and a class l."""
    M, k = G.num_domains, G.num_classes
    if not (1 <= i < M and 1 <= j < M):
        raise InvalidInputError(f"target indices must lie in [1, {M}); got i={i}, j={j}")
    if i == j:
        raise InvalidInputError("a target cannot be its own peer")
    if not 0 <= l < k:
        raise InvalidInputError(f"class {l} outside [0, {k})")
    return bool(peer_masks(G)[i, j, l])


def qualifying_fraction(G: DistanceGraph, i: int) -> float:
    """Fraction of classes for which at least one peer qualifies for target i."""
    if not 1 <= i < G.num_domains:
        raise InvalidInputError(f"target index must lie in [1, {G.num_domains}); got i={i}")
    return int(peer_masks(G)[i].any(axis=0).sum()) / G.num_classes


def donor_slots(masks: Array) -> list:
    """The slots j, ascending, that qualify as a peer of some target for
    some class under peer_masks: the only targets whose pools part 3 reads."""
    return np.flatnonzero(masks.any(axis=(0, 2))).tolist()


def _donor_table(qualifies: Array, pools: dict):
    """A target's peer donors, from its (peer, class) mask qualifies, a row
    of peer_masks, and pools, which maps a graph slot j >= 1 to that
    target's harvest: class l's donors are the class-l rows of every peer
    that qualifies for class l, in slot order, then pool order. None when
    no class has a donor, else (classes, rows, slots, starts, counts): the
    classes with donors, ascending; their donor rows stacked class by
    class; each row's slot; and each class's first row and row count."""
    blocks = [(l, j, pools[j][l]) for l in range(qualifies.shape[1]) for j in sorted(pools) if qualifies[j, l]]
    sizes = [len(rows) for _, _, rows in blocks]
    if not sum(sizes):
        return None
    owners, slots, mats = zip(*blocks)
    classes, starts, counts = np.unique(np.repeat(owners, sizes), return_index=True, return_counts=True)
    return classes, np.concatenate(mats), np.repeat(slots, sizes), starts, counts


def _draw_donors(starts: Array, counts: Array, rng: np.random.Generator) -> Array:
    """Rows of a _donor_table of one uniform donor per class: one
    rng.integers(counts), the same values and generator state as
    rng.integers(n) for each n in counts in turn."""
    return starts + rng.integers(counts)


def replace_with_peers(own_strong: StrongSet, table, rng: np.random.Generator) -> StrongSet:
    """Per class of a _donor_table, swap the strong entry for a donor row
    drawn by _draw_donors; every other class, and every class when table is
    None, keeps its own entry object."""
    if not own_strong.populated:
        raise NotInitializedError("own strong set is empty; nothing to replace")
    entries = list(own_strong.entries)
    if table is not None:
        classes, rows, slots, starts, counts = table
        for l, n in zip(classes.tolist(), _draw_donors(starts, counts, rng).tolist()):
            entries[l] = StrongEntry(rows[n].copy(), f"target{slots[n]}")
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

