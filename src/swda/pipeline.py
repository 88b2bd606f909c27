"""End-to-end trainers: single-target adaptation, the three-part
multi-target procedure, evaluation, and metrics export.

Per adaptation iteration, in order: (1) source batch, cross-entropy step;
(2) target batch, information-maximization and adversarial-logit losses;
(3) if the strong set is initialized, fuse strong+weak samples, select a
pseudo-labeled batch mirroring the predicted label distribution, and
compute the strong-weak loss on it; (4) one optimizer step on the
weighted sum of the three target losses, routing the adversarial term
through gradient reversal; (5) weak-set update from the target batch;
(6) periodic strong-set refresh over all target samples. In multi-target
part 3 the strong entries of classes with a qualifying peer are swapped
for peer pseudo samples at fusion time, re-drawn every iteration.
"""

from __future__ import annotations

import json
import logging
import time
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
from .losses import adversarial_logit_loss, info_max_loss, strong_weak_loss
from .mathutils import serial_blas
from .network import NetworkParams, add_trees, backward, forward, init_params, sgd_step
from .repsets import (
    empty_weak_set,
    fuse,
    harvest_pseudo_strong,
    select_sw_batch,
    update_strong_set,
    update_weak_set,
)
from .scaffolding import (
    DistanceGraph,
    build_distance_graph,
    centroids_for_domains,
    check_source_classes,
    evaluate,
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
    wall_clock_seconds: float = 0.0  # informational; never serialized


@dataclass
class PeerContext:
    """Everything part 3 needs to swap strong entries after each refresh."""

    graph: DistanceGraph
    target_slot: int  # this target's row in the graph (>= 1)
    peers: dict  # slot -> PseudoStrongSet of every other target
    rng: np.random.Generator


def _warn_if_no_strong_set(config: ExperimentConfig) -> None:
    if config.strong_refresh_period >= config.max_iterations:
        log.warning(
            "strong_refresh_period %d >= max_iterations %d: no strong set exists before the "
            "last iteration, so the strong-weak loss L_SW never runs",
            config.strong_refresh_period,
            config.max_iterations,
        )


@serial_blas()
@np.errstate(over="raise", invalid="raise", divide="raise")
def _adaptation_run(
    config: ExperimentConfig,
    source: Domain,
    target: Domain,
    peer_ctx: PeerContext | None,
):
    check_source_classes(source, config.network.num_classes)
    if target.n == 0:
        raise InvalidDatasetError(f"target domain {target.name!r} is empty")
    if target.samples.shape[1] != source.samples.shape[1]:
        raise InvalidInputError("source and target dimensionality differ")

    start = time.perf_counter()
    w = config.weights
    params = init_params(config.network, config.seed)
    velocity = np.zeros_like(params.flat)
    src_sampler = BatchSampler(source.n, config.batch_size, stream_rng(config.seed, STREAM_SOURCE))
    tgt_sampler = BatchSampler(target.n, config.batch_size, stream_rng(config.seed, STREAM_TARGET))
    fusion_rng = stream_rng(config.seed, STREAM_FUSION)

    strong = None
    weak = empty_weak_set(config.network.num_classes)
    metrics = RunMetrics([], [], [], [], [], [], None)

    try:
        for it in range(config.max_iterations):
            # (1) supervised step on the source
            q = it / config.max_iterations
            ce, lr_head, lr_gen = source_step(config, params, velocity, source, src_sampler, q)

            # (2) unsupervised losses on a target batch
            tidx = tgt_sampler.next_batch()
            fwd_t = forward(params, target.samples[tidx])
            im = info_max_loss(fwd_t.probs)
            all_ = adversarial_logit_loss(fwd_t.logits, fwd_t.probs, w.lam)
            grads = add_trees(
                backward(params, fwd_t, w.k1 * im.grad_wrt_logits),
                backward(params, fwd_t, w.k2 * all_.grad_wrt_logits, reverse_below_classifier=True),
            )

            # (3) strong-weak supervision once the strong set exists; with peers,
            # each iteration re-draws replacement samples so no single draw
            # dominates a refresh window
            sw_value = 0.0
            if strong is not None:
                effective = strong
                if peer_ctx is not None:
                    effective = replace_with_peers(
                        strong, peer_ctx.peers, peer_ctx.graph, peer_ctx.target_slot, peer_ctx.rng
                    )
                fused = fuse(effective, weak, fusion_rng)
                pred = np.argmax(fwd_t.probs, axis=1)
                sw_batch = select_sw_batch(fused, pred)
                if sw_batch.inputs.shape[0]:
                    fwd_sw = forward(params, sw_batch.inputs)
                    sw = strong_weak_loss(fwd_sw.probs, sw_batch.pseudo_labels)
                    sw_value = sw.value
                    grads = add_trees(grads, backward(params, fwd_sw, w.k3 * sw.grad_wrt_logits))

            # (4) one optimizer step for the combined target objective
            sgd_step(params, grads, velocity, lr_head, lr_gen)

            # (5) weak set follows every batch
            weak = update_weak_set(weak, target.samples[tidx], fwd_t.probs, w.lam)

            # (6) periodic strong refresh over the whole target
            if (it + 1) % config.strong_refresh_period == 0:
                fwd_full = forward(params, target.samples)
                strong = update_strong_set(target.samples, fwd_full.norm_features, fwd_full.probs, target.name)

            metrics.loss_ce.append(ce)
            metrics.loss_im.append(im.value)
            metrics.loss_all.append(all_.value)
            metrics.loss_sw.append(sw_value)
            if (it + 1) % config.accuracy_eval_period == 0 and target.labels is not None:
                metrics.accuracy_iterations.append(it + 1)
                metrics.accuracy_series.append(evaluate(params, target))
    except (FloatingPointError, DegenerateInputError) as exc:
        raise DegenerateInputError(f"target {target.name!r}, iteration {it + 1}: {exc}") from exc

    if target.labels is not None:
        metrics.final_accuracy = evaluate(params, target)
    probs_full = forward(params, target.samples).probs
    pseudo = harvest_pseudo_strong(target.samples, probs_full, w.lam)
    metrics.wall_clock_seconds = time.perf_counter() - start
    return params, metrics, pseudo


def train_single_target(config: ExperimentConfig, source: Domain, target: Domain):
    """Adaptation to one unlabeled target; returns (params, metrics,
    harvested pseudo strong set)."""
    _warn_if_no_strong_set(config)
    return _adaptation_run(config, source, target, peer_ctx=None)


@dataclass
class MultiTargetResult:
    per_target: list  # [(NetworkParams, RunMetrics)] in input target order
    graph: DistanceGraph
    pseudo_sets: dict  # slot -> PseudoStrongSet from part 1
    source_params: NetworkParams


def _part1_task(args):
    config, source, target, slot = args
    cfg = replace(config, seed=derive_seed(config.seed, _TAG_PART1, slot))
    _, _, pseudo = _adaptation_run(cfg, source, target, peer_ctx=None)
    return slot, pseudo


def _part3_task(args):
    config, source, target, slot, graph, peers = args
    cfg = replace(config, seed=derive_seed(config.seed, _TAG_PART3, slot))
    ctx = PeerContext(graph, slot, peers, stream_rng(cfg.seed, STREAM_PEER))
    params, metrics, _ = _adaptation_run(cfg, source, target, ctx)
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
    entries with qualifying peers' pseudo samples after every refresh.
    To isolate what peer scaffolding adds, compare each part-3 run with
    the single-target run seeded by part3_seed.
    """
    if not targets:
        raise InvalidInputError("need at least one target domain")
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
            (config, source, t, slot, graph, {j: ps for j, ps in pseudo_sets.items() if j != slot})
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
