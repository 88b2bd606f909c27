"""Loss functions for the adaptation objective.

Each loss returns its scalar value together with the gradient with respect
to the logits it was computed from, ready to hand to network.backward. The
trainer back-propagates the adversarial logit loss, and only that loss,
through gradient reversal: the classifier minimizes it while the feature
path maximizes it.

Each loss is one private kernel (``_cross_entropy``, ``_info_max``,
``_adversarial_logit``, ``_strong_weak``) that returns (value, gradient)
for a non-empty (n, k) float64 probability matrix and integer labels in
[0, k), without checking them, and a public function that checks its
arguments and calls the kernel. The trainers call the kernels: their
operands come from a forward pass over domains the trainer validated
once, before its first iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .mathutils import Array, as_float_array, bounded, check_fields

PROB_FLOOR = 1e-12


@dataclass
class LossOutput:
    value: float
    grad_wrt_logits: Array  # (n, k)
    clamped: int = 0  # cross_entropy: true-class probabilities raised to PROB_FLOOR


@dataclass
class LossWeights:
    k1: float = bounded(0.1, low=0)
    k2: float = bounded(0.05, low=0)
    k3: float = bounded(1.0, low=0)
    lam: float = 0.8

    def __post_init__(self):
        check_fields(self)
        # lam=1.0 admitted so the weak-set gate can be switched off entirely
        if not 0.0 < self.lam <= 1.0:
            raise InvalidInputError(f"threshold lam={self.lam} outside (0, 1]")


def _check_labels(labels, n: int, k: int) -> Array:
    y = np.asarray(labels)
    if y.shape != (n,):
        raise InvalidInputError(f"labels shape {y.shape} does not match batch size {n}")
    if y.size and (y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= k):
        raise InvalidInputError(f"labels must be integers in [0, {k})")
    return y.astype(np.int64)


# --- kernels ------------------------------------------------------------------
# np.add.reduce is the reduction np.sum and np.mean run, and x / n is
# np.mean's division, so the values equal those forms bit for bit.

def _cross_entropy(p: Array, y: Array) -> tuple:
    """(value, grad, clamped) of cross_entropy."""
    n = p.shape[0]
    rows = np.arange(n)
    p_true = p[rows, y]
    clamped = int(np.count_nonzero(p_true < PROB_FLOOR))
    if clamped:
        p_true = np.maximum(p_true, PROB_FLOOR)
    grad = p.copy()  # (p - onehot) / n
    grad[rows, y] -= 1.0
    grad /= n
    return float(np.add.reduce(-np.log(p_true)) / n), grad, clamped


def _info_max(p: Array) -> tuple:
    """(value, grad) of info_max_loss."""
    n = p.shape[0]
    marginal = np.add.reduce(p, 0) / n
    log_marginal = np.log(np.maximum(marginal, PROB_FLOOR))
    log_p = np.log(np.maximum(p, PROB_FLOOR))
    value = float(np.add.reduce(marginal * log_marginal) - np.add.reduce(np.add.reduce(p * log_p, 1)) / n)
    # d value / d p_ij = (1/n)(log m_j + 1) + (1/n)(-log p_ij - 1), chained
    # through the softmax Jacobian: p * (dL/dp - rowsum(dL/dp * p))
    dloss_dp = log_marginal - log_p
    dloss_dp /= n
    dloss_dp -= np.add.reduce(dloss_dp * p, 1, keepdims=True)
    dloss_dp *= p
    return value, dloss_dp


def _adversarial_logit(l: Array, p: Array, lam: float) -> tuple:
    """(value, grad) of adversarial_logit_loss."""
    n = l.shape[0]
    rows = np.arange(n)
    top = l.argmax(1)  # ties break to the lowest index
    gate = p[rows, top] > lam
    grad = np.zeros(l.shape)
    grad[rows[gate], top[gate]] = 1.0 / n
    return float(np.add.reduce(l[rows, top] * gate) / n), grad


def _strong_weak(p: Array, y: Array) -> tuple:
    """(value, grad) of strong_weak_loss."""
    n = p.shape[0]
    rows = np.arange(n)
    p_true = p[rows, y]
    d = 0.0 - p  # onehot - p: +0.0, not -0.0, where p is 0
    d[rows, y] += 1.0
    # chain the flat derivative -1/n through the softmax rows
    return float(np.add.reduce(1.0 - p_true) / n), (-1.0 / n) * p_true[:, None] * d


# --- checked losses -----------------------------------------------------------

def _nonempty(batch, name: str) -> Array:
    x = as_float_array(batch, ndim=2)
    if x.shape[0] == 0:
        raise InvalidInputError(f"{name} needs a non-empty batch")
    return x


def cross_entropy(probs, labels) -> LossOutput:
    """Mean negative log-probability of the true class. A probability below
    PROB_FLOOR counts as PROB_FLOOR, and the output's ``clamped`` says how
    many did; the trainers report the total once per run."""
    p = _nonempty(probs, "cross_entropy")
    return LossOutput(*_cross_entropy(p, _check_labels(labels, *p.shape)))


def info_max_loss(probs) -> LossOutput:
    """Marginal-entropy maximization plus conditional-entropy minimization.

    value = sum_j m_j log m_j + mean_i sum_j -p_ij log p_ij, where m is the
    column mean of probs. Minimized (at -log k) by confident predictions
    spread uniformly across classes.
    """
    return LossOutput(*_info_max(_nonempty(probs, "info_max_loss")))


def adversarial_logit_loss(logits, probs, lam: float) -> LossOutput:
    """Mean max logit over confidently predicted samples.

    A sample contributes its largest logit iff its largest probability
    exceeds lam; other samples contribute 0. The gate is a constant during
    differentiation, so the gradient is 1/n at each gated argmax position.
    """
    l = as_float_array(logits, ndim=2)
    p = as_float_array(probs, ndim=2)
    if l.shape != p.shape:
        raise InvalidInputError(f"logits {l.shape} and probs {p.shape} shape mismatch")
    return LossOutput(*_adversarial_logit(_nonempty(l, "adversarial_logit_loss"), p, lam))


def strong_weak_loss(probs, pseudo_labels) -> LossOutput:
    """Mean (1 - p at the pseudo-label); its derivative wrt that probability
    is the constant -1/n, so supervision strength does not fade as the
    prediction approaches the pseudo-label."""
    p = as_float_array(probs, ndim=2)
    n, k = p.shape
    if n == 0:
        return LossOutput(0.0, np.zeros((0, k)))
    return LossOutput(*_strong_weak(p, _check_labels(pseudo_labels, n, k)))
