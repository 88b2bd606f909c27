"""End-to-end trainers: single-target adaptation, the three-part
multi-target procedure, evaluation, and metrics export.

Per adaptation iteration, in order: (1) source batch, cross-entropy step;
(2) once the strong set exists, fuse each class's strong and weak samples
into one row; (3) one forward pass over the target batch with the fused
rows stacked below it; (4) from it, the information-maximization and
adversarial-logit losses on the target rows and, once the strong set
exists, the strong-weak loss on a pseudo-labeled batch mirroring the
batch's predicted label distribution: every class has a strong entry
after a refresh, so that batch is fused row c for each predicted label
c; (5) one backward pass and one optimizer step on the weighted sum of
the three losses, routing the adversarial term through gradient
reversal; (6) weak-set update from the target batch; (7) periodic
strong-set refresh over all target samples, sharing its forward pass
with an accuracy check due on the same iteration. Step (2) first swaps
each class's strong entry for a sample drawn from that class's peer
donors; only multi-target part 3 has donors, fixed once per run and
re-drawn from every iteration, and a run without donors makes no
replacement call.

The trainers validate domains and config once, at their boundary; see
_adaptation_run for what the loop then leaves unchecked.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    STREAM_FUSION,
    STREAM_PEER,
    STREAM_SOURCE,
    STREAM_TARGET,
    BatchSampler,
    ExperimentConfig,
    derive_seed,
    stream_rng,
)
from .datasets import Domain
from .errors import DegenerateInputError, InvalidDatasetError, InvalidInputError
from .losses import _adversarial_logit, _info_max, _strong_weak
from .mathutils import serial_blas
from .network import NetworkParams, backward, forward, init_params, sgd_step
from .repsets import _fused, _weak_rows, harvest_pseudo_strong, update_strong_set
from .scaffolding import (
    ClampCount,
    DistanceGraph,
    accuracy,
    build_distance_graph,
    centroids_for_domains,
    check_label_range,
    check_source_classes,
    evaluate,
    peer_donors,
    replace_with_peers,
    source_step,
    train_source_only,
)

log = logging.getLogger(__name__)

# sub-seed tags for nested runs
_TAG_PART1 = 10
_TAG_PART2 = 11
_TAG_PART3 = 12


@dataclass
class RunMetrics:
    loss_ce: list
    loss_im: list
    loss_all: list
    loss_sw: list
    accuracy_iterations: list  # iterations at which target accuracy was measured
    accuracy_series: list
    final_accuracy: float | None  # None when the target carries no labels


def _warn_if_no_strong_set(config: ExperimentConfig) -> None:
    if config.strong_refresh_period >= config.max_iterations:
        log.warning(
            "strong_refresh_period %d >= max_iterations %d: no strong set exists before the "
            "last iteration, so the strong-weak loss L_SW never runs",
            config.strong_refresh_period,
            config.max_iterations,
        )


def _check_domains(config: ExperimentConfig, source: Domain, targets: list) -> None:
    """Reject a source or target an adaptation run cannot train on."""
    check_source_classes(source, config.network.num_classes)
    for target in targets:
        if target.n == 0:
            raise InvalidDatasetError(f"target domain {target.name!r} is empty")
        if target.samples.shape[1] != source.samples.shape[1]:
            raise InvalidInputError(f"source and target {target.name!r} dimensionality differ")
        if target.labels is not None:
            check_label_range(target, config.network.num_classes)


@serial_blas()
@np.errstate(over="raise", invalid="raise", divide="raise")
def _adaptation_run(
    config: ExperimentConfig,
    source: Domain,
    target: Domain,
    donors: list,
):
    """One adaptation run on domains _check_domains accepts; donors[l] holds
    the (sample, peer slot) pairs that may replace the class-l strong entry
    (see peer_donors), and a run without peers passes [].

    Nothing inside the loop re-checks what _check_domains and the config
    dataclasses checked: the losses, the weak-set pick and the fusion run
    as the unchecked kernels behind the public functions of losses and
    repsets, on the strong and weak sets held as (k, d) row matrices.
    forward still rejects zero-norm features and non-finite logits."""
    w = config.weights
    k = config.network.num_classes
    params = init_params(config.network, config.seed)
    velocity = np.zeros_like(params.flat)
    grads = params.with_flat(np.empty_like(params.flat))  # both steps' backward writes here
    src_sampler = BatchSampler(source.n, config.batch_size, stream_rng(config.seed, STREAM_SOURCE))
    tgt_sampler = BatchSampler(target.n, config.batch_size, stream_rng(config.seed, STREAM_TARGET))
    fusion_rng = stream_rng(config.seed, STREAM_FUSION)
    peer_rng = stream_rng(config.seed, STREAM_PEER)
    clamps = ClampCount()
    swaps = any(donors)

    strong = S = None  # the strong set, and its rows as a (k, d) matrix
    W = np.zeros((k, target.samples.shape[1]))  # weak set rows, valid where has_weak
    has_weak = np.zeros(k, dtype=bool)
    metrics = RunMetrics([], [], [], [], [], [], None)

    try:
        for it in range(config.max_iterations):
            # (1) supervised step on the source
            q = it / config.max_iterations
            ce, lr_head, lr_gen = source_step(config, params, velocity, grads, source, src_sampler, q, clamps)

            # (2) fused strong-weak rows once the strong set exists; each
            # iteration re-draws peer replacements so no single draw
            # dominates a refresh window
            batch = target.samples[tgt_sampler.next_batch()]
            n = batch.shape[0]
            if S is None:
                rows = batch
            else:
                own = np.array([e.x for e in replace_with_peers(strong, donors, peer_rng).entries]) if swaps else S
                rows = np.concatenate([batch, _fused(own, W, has_weak, fusion_rng)])

            # (3) one forward pass over the batch and the fused rows below it
            fwd = forward(params, rows)
            probs = fwd.probs[:n]

            # (4) the three target losses; every class has a fused row, so
            # L_SW reads row pred of them for each predicted label pred, and
            # its logit gradient is summed back onto that row
            im, g_im = _info_max(probs)
            adv, g_all = _adversarial_logit(fwd.logits[:n], probs, w.lam)
            g_im *= w.k1
            g_all *= w.k2
            g_cls = np.zeros((rows.shape[0], k))
            g_feat = np.empty_like(g_cls)
            sw = 0.0
            if S is not None:
                pred = probs.argmax(1)
                sw, g_sw = _strong_weak(fwd.probs[n + pred], pred)
                g_sw *= w.k3
                np.add.at(g_cls[n:], pred, g_sw)
                g_feat[n:] = g_cls[n:]

            # (5) one backward pass and one optimizer step for the combined
            # target objective: L_ALL reaches the classifier as is and the
            # feature path reversed
            np.add(g_im, g_all, out=g_cls[:n])
            np.subtract(g_im, g_all, out=g_feat[:n])
            sgd_step(params, backward(params, fwd, g_cls, g_feat, out=grads), velocity, lr_head, lr_gen)

            # (6) weak set follows every batch
            best, hit = _weak_rows(probs, w.lam)
            W[hit] = batch[best[hit]]
            has_weak |= hit

            # (7) periodic strong refresh over the whole target
            full = None
            if (it + 1) % config.strong_refresh_period == 0:
                full = forward(params, target.samples)
                strong = update_strong_set(target.samples, full.norm_features, full.probs, target.name)
                S = np.array([e.x for e in strong.entries])

            metrics.loss_ce.append(ce)
            metrics.loss_im.append(im)
            metrics.loss_all.append(adv)
            metrics.loss_sw.append(sw)
            if (it + 1) % config.accuracy_eval_period == 0 and target.labels is not None:
                metrics.accuracy_iterations.append(it + 1)
                acc = evaluate(params, target) if full is None else accuracy(full.probs, target.labels)
                metrics.accuracy_series.append(acc)
    except (FloatingPointError, DegenerateInputError) as exc:
        raise DegenerateInputError(f"target {target.name!r}, iteration {it + 1}: {exc}") from exc
    finally:
        clamps.report(f"target {target.name!r}")

    full = forward(params, target.samples)
    if target.labels is not None:
        metrics.final_accuracy = accuracy(full.probs, target.labels)
    pseudo = harvest_pseudo_strong(target.samples, full.probs, w.lam)
    return params, metrics, pseudo


def train_single_target(config: ExperimentConfig, source: Domain, target: Domain):
    """Adaptation to one unlabeled target; returns (params, metrics,
    harvested pseudo strong set)."""
    _check_domains(config, source, [target])
    _warn_if_no_strong_set(config)
    return _adaptation_run(config, source, target, [])


@dataclass
class MultiTargetResult:
    per_target: list  # [(NetworkParams, RunMetrics)] in input target order
    graph: DistanceGraph
    pseudo_sets: dict  # slot -> PseudoStrongSet from part 1
    source_params: NetworkParams


def _part1_task(args):
    config, source, target, slot = args
    cfg = replace(config, seed=derive_seed(config.seed, _TAG_PART1, slot))
    _, _, pseudo = _adaptation_run(cfg, source, target, [])
    return slot, pseudo


def _part3_task(args):
    config, source, target, slot, donors = args
    cfg = replace(config, seed=derive_seed(config.seed, _TAG_PART3, slot))
    params, metrics, _ = _adaptation_run(cfg, source, target, donors)
    return slot, params, metrics


def _run_tasks(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # under fork the pool starts all max_workers processes at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def train_multi_target(
    config: ExperimentConfig,
    source: Domain,
    targets: list,
    jobs: int = 1,
) -> MultiTargetResult:
    """Three-part multi-target adaptation.

    Part 1 runs single-target adaptation per target and harvests its
    pseudo strong set. Part 2 trains a source-only network and builds the
    frozen class-wise distance graph over source + targets. Part 3
    re-trains each target from a fresh initialization, replacing strong
    entries with samples from its qualifying peers' pseudo pools; which
    peers donate for each class is fixed once, before part 3 starts.
    To isolate what peer scaffolding adds, compare each part-3 run with
    the single-target run seeded by part3_seed.
    """
    if not targets:
        raise InvalidInputError("need at least one target domain")
    _check_domains(config, source, targets)
    _warn_if_no_strong_set(config)

    part1 = _run_tasks(
        _part1_task,
        [(config, source, t, slot) for slot, t in enumerate(targets, start=1)],
        jobs,
    )
    pseudo_sets = dict(part1)

    cfg_src = replace(config, seed=derive_seed(config.seed, _TAG_PART2))
    source_params = train_source_only(cfg_src, source)
    graph = build_distance_graph(centroids_for_domains(source_params, [source] + list(targets)))

    part3 = _run_tasks(
        _part3_task,
        [
            (config, source, t, slot, peer_donors(graph, slot, pseudo_sets))
            for slot, t in enumerate(targets, start=1)
        ],
        jobs,
    )
    by_slot = {slot: (params, metrics) for slot, params, metrics in part3}
    per_target = [by_slot[slot] for slot in range(1, len(targets) + 1)]
    return MultiTargetResult(per_target, graph, pseudo_sets, source_params)


def part3_seed(config_seed: int, target_index: int) -> int:
    """Seed of the part-3 run for targets[target_index] under train_multi_target.

    A single-target baseline started from this seed shares every random
    stream with the corresponding part-3 run, so the two differ only by
    peer replacement; ablations can compare them as matched pairs.
    """
    return derive_seed(config_seed, _TAG_PART3, target_index + 1)


# --- metrics export -----------------------------------------------------------

def metrics_to_json(metrics: RunMetrics, config_echo: dict | None = None) -> str:
    """Deterministic JSON document; wall clock deliberately left out so
    identical runs produce identical files."""
    doc = {
        "config": config_echo or {},
        "loss_ce": metrics.loss_ce,
        "loss_im": metrics.loss_im,
        "loss_all": metrics.loss_all,
        "loss_sw": metrics.loss_sw,
        "accuracy_iterations": metrics.accuracy_iterations,
        "accuracy_series": metrics.accuracy_series,
        "final_accuracy": metrics.final_accuracy,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loss_curves_csv(metrics: RunMetrics) -> str:
    lines = ["iteration,loss_ce,loss_im,loss_all,loss_sw"]
    for i in range(len(metrics.loss_ce)):
        lines.append(
            f"{i},{metrics.loss_ce[i]:.17g},{metrics.loss_im[i]:.17g},"
            f"{metrics.loss_all[i]:.17g},{metrics.loss_sw[i]:.17g}"
        )
    return "\n".join(lines) + "\n"
