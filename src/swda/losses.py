"""Loss functions for the adaptation objective.

Each loss returns its scalar value together with the gradient with respect
to the logits it was computed from, ready to hand to network.backward. The
trainer back-propagates the adversarial logit loss, and only that loss,
through gradient reversal: the classifier minimizes it while the feature
path maximizes it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .mathutils import Array, as_float_array

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


@dataclass
class LossOutput:
    value: float
    grad_wrt_logits: Array  # (n, k)


@dataclass
class LossWeights:
    k1: float = 0.1
    k2: float = 0.05
    k3: float = 1.0
    lam: float = 0.8

    def __post_init__(self):
        if min(self.k1, self.k2, self.k3) < 0.0:
            raise InvalidInputError("loss weights k1, k2, k3 must be non-negative")
        # lam=1.0 admitted so the weak-set gate can be switched off entirely
        if not 0.0 < self.lam <= 1.0:
            raise InvalidInputError(f"threshold lam={self.lam} outside (0, 1]")


def _check_labels(labels, n: int, k: int) -> Array:
    y = np.asarray(labels)
    if y.shape != (n,):
        raise InvalidInputError(f"labels shape {y.shape} does not match batch size {n}")
    if y.size and (not np.issubdtype(y.dtype, np.integer) or y.min() < 0 or y.max() >= k):
        raise InvalidInputError(f"labels must be integers in [0, {k})")
    return y.astype(np.int64)


def _softmax_chain(probs: Array, dloss_dprobs: Array) -> Array:
    """Chain dL/dp through the softmax Jacobian to dL/dlogits."""
    inner = np.sum(dloss_dprobs * probs, axis=1, keepdims=True)
    return probs * (dloss_dprobs - inner)


def cross_entropy(probs, labels) -> LossOutput:
    """Mean negative log-probability of the true class."""
    p = as_float_array(probs, ndim=2)
    n, k = p.shape
    if n == 0:
        raise InvalidInputError("cross_entropy needs a non-empty batch")
    y = _check_labels(labels, n, k)
    p_true = p[np.arange(n), y]
    if np.any(p_true < PROB_FLOOR):
        log.warning("clamping %d zero-probability entries in cross_entropy", int(np.sum(p_true < PROB_FLOOR)))
        p_true = np.maximum(p_true, PROB_FLOOR)
    value = float(np.mean(-np.log(p_true)))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    grad = (p - onehot) / n
    return LossOutput(value, grad)


def info_max_loss(probs) -> LossOutput:
    """Marginal-entropy maximization plus conditional-entropy minimization.

    value = sum_j m_j log m_j + mean_i sum_j -p_ij log p_ij, where m is the
    column mean of probs. Minimized (at -log k) by confident predictions
    spread uniformly across classes.
    """
    p = as_float_array(probs, ndim=2)
    n, _ = p.shape
    if n == 0:
        raise InvalidInputError("info_max_loss needs a non-empty batch")
    marginal = p.mean(axis=0)
    log_marginal = np.log(np.maximum(marginal, PROB_FLOOR))
    log_p = np.log(np.maximum(p, PROB_FLOOR))
    value = float(np.sum(marginal * log_marginal) - np.mean(np.sum(p * log_p, axis=1)))
    # d value / d p_ij = (1/n)(log m_j + 1) + (1/n)(-log p_ij - 1)
    dloss_dp = (log_marginal[None, :] - log_p) / n
    return LossOutput(value, _softmax_chain(p, dloss_dp))


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
    n, _ = l.shape
    if n == 0:
        raise InvalidInputError("adversarial_logit_loss needs a non-empty batch")
    top = np.argmax(l, axis=1)  # ties break to the lowest index
    gate = p[np.arange(n), top] > lam
    value = float(np.sum(l[np.arange(n), top] * gate) / n)
    grad = np.zeros_like(l)
    grad[np.arange(n)[gate], top[gate]] = 1.0 / n
    return LossOutput(value, grad)


def strong_weak_loss(probs, pseudo_labels) -> LossOutput:
    """Mean (1 - p at the pseudo-label); its derivative wrt that probability
    is the constant -1/n, so supervision strength does not fade as the
    prediction approaches the pseudo-label."""
    p = as_float_array(probs, ndim=2)
    n, k = p.shape
    if n == 0:
        return LossOutput(0.0, np.zeros((0, k)))
    y = _check_labels(pseudo_labels, n, k)
    p_true = p[np.arange(n), y]
    value = float(np.mean(1.0 - p_true))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    # chain the flat derivative -1/n through the softmax rows
    grad = (-1.0 / n) * p_true[:, None] * (onehot - p)
    return LossOutput(value, grad)

