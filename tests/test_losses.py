import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swda import losses
from swda.errors import InvalidInputError
from swda.losses import (
    PROB_FLOOR,
    LossWeights,
    adversarial_logit_loss,
    cross_entropy,
    info_max_loss,
    strong_weak_loss,
)
from swda.mathutils import finite_diff_gradient, softmax


def logit_grad_check(loss_fn, logits, rel_tol=1e-4, abs_floor=1e-7):
    """Finite-difference check of grad_wrt_logits, softmax applied inside."""
    out = loss_fn(softmax(logits))
    flat = logits.ravel().copy()

    def value_at(v):
        return loss_fn(softmax(v.reshape(logits.shape))).value

    numeric = finite_diff_gradient(value_at, flat).reshape(logits.shape)
    ok = np.abs(out.grad_wrt_logits - numeric) <= np.maximum(
        rel_tol * np.abs(numeric), abs_floor
    )
    assert np.all(ok), f"max err {np.max(np.abs(out.grad_wrt_logits - numeric))}"


def test_weights_validation():
    LossWeights()  # defaults are legal
    LossWeights(lam=1.0)  # gate can be switched off
    with pytest.raises(InvalidInputError):
        LossWeights(k1=-0.1)
    with pytest.raises(InvalidInputError):
        LossWeights(lam=0.0)
    with pytest.raises(InvalidInputError):
        LossWeights(lam=1.2)


# --- cross entropy ------------------------------------------------------------

def test_cross_entropy_known_value():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    out = cross_entropy(probs, np.array([0, 1]))
    assert abs(out.value - (-(math.log(0.7) + math.log(0.8)) / 2.0)) < 1e-12
    grad = (probs - np.eye(3)[[0, 1]]) / 2.0
    assert np.allclose(out.grad_wrt_logits, grad, atol=1e-12)


def test_cross_entropy_perfect_prediction_zero_loss():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = cross_entropy(probs, np.array([0, 1]))
    assert out.value == 0.0


def test_cross_entropy_logit_gradient():
    rng = np.random.default_rng(0)
    for seed in range(5):
        logits = np.random.default_rng(seed).normal(size=(5, 4))
        y = rng.integers(0, 4, size=5)
        logit_grad_check(lambda p: cross_entropy(p, y), logits)


def test_cross_entropy_rejects_bad_labels():
    probs = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(InvalidInputError):
        cross_entropy(probs, np.array([0, 3]))
    with pytest.raises(InvalidInputError):
        cross_entropy(probs, np.array([0]))
    with pytest.raises(InvalidInputError):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_cross_entropy_counts_clamped_entries_without_logging(caplog):
    probs = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 1e-300]])
    out = cross_entropy(probs, np.array([1, 0, 1]))
    assert out.clamped == 2
    assert out.value == pytest.approx((2.0 * -math.log(PROB_FLOOR) - math.log(0.5)) / 3.0)
    assert cross_entropy(probs, np.array([0, 0, 0])).clamped == 0
    assert not caplog.records  # the trainers report clamps, once per run


# --- information maximization -------------------------------------------------

def test_info_max_uniform_predictions_zero():
    p = np.full((7, 4), 0.25)
    assert abs(info_max_loss(p).value) < 1e-9


def test_info_max_one_hot_uniform_marginal_hits_lower_bound():
    # each class predicted confidently by an equal share of the batch
    k = 4
    p = np.eye(k)[np.arange(8) % k]
    out = info_max_loss(p)
    assert abs(out.value - (-math.log(k))) < 1e-9


def test_info_max_value_formula():
    rng = np.random.default_rng(1)
    p = softmax(rng.normal(size=(6, 3)))
    m = p.mean(axis=0)
    expected = float(np.sum(m * np.log(m)) + np.mean(np.sum(-p * np.log(p), axis=1)))
    assert abs(info_max_loss(p).value - expected) < 1e-12


def test_info_max_logit_gradient():
    for seed in range(5):
        logits = np.random.default_rng(seed).normal(size=(6, 3))
        logit_grad_check(info_max_loss, logits)


def test_info_max_collapse_worse_than_spread():
    # all mass on one class: conditional entropy 0 but marginal entropy 0 too
    collapsed = np.eye(3)[np.zeros(6, dtype=int)]
    spread = np.eye(3)[np.arange(6) % 3]
    assert info_max_loss(collapsed).value > info_max_loss(spread).value


# --- adversarial logit loss ---------------------------------------------------

def test_adversarial_gate_and_value():
    logits = np.array([[5.0, 1.0], [2.0, 3.0], [0.5, 0.4]])
    probs = np.array([[0.9, 0.1], [0.6, 0.4], [0.99, 0.01]])
    out = adversarial_logit_loss(logits, probs, lam=0.8)
    # rows 0 and 2 pass the gate (0.9 > 0.8, 0.99 > 0.8); row 1's max prob
    # 0.6 fails. Row 1's argmax logit is ignored entirely.
    assert abs(out.value - (5.0 + 0.5) / 3.0) < 1e-12
    expected = np.zeros_like(logits)
    expected[0, 0] = expected[2, 0] = 1.0 / 3.0
    assert np.array_equal(out.grad_wrt_logits, expected)


def test_adversarial_gate_strict():
    logits = np.array([[1.0, 0.0]])
    probs = np.array([[0.8, 0.2]])
    assert adversarial_logit_loss(logits, probs, lam=0.8).value == 0.0


def test_adversarial_all_gated_closed():
    logits = np.random.default_rng(2).normal(size=(4, 5))
    probs = np.full((4, 5), 0.2)
    out = adversarial_logit_loss(logits, probs, lam=0.8)
    assert out.value == 0.0
    assert np.all(out.grad_wrt_logits == 0.0)


def test_adversarial_tie_breaks_to_lowest_index():
    logits = np.array([[2.0, 2.0, 1.0]])
    probs = np.array([[0.9, 0.05, 0.05]])
    out = adversarial_logit_loss(logits, probs, lam=0.5)
    assert out.grad_wrt_logits[0, 0] == 1.0
    assert out.grad_wrt_logits[0, 1] == 0.0


def test_adversarial_shape_mismatch():
    with pytest.raises(InvalidInputError):
        adversarial_logit_loss(np.zeros((2, 3)), np.zeros((2, 2)), lam=0.8)


# --- strong-weak loss ---------------------------------------------------------

def test_strong_weak_value():
    probs = np.array([[0.6, 0.4], [0.3, 0.7]])
    out = strong_weak_loss(probs, np.array([0, 1]))
    assert abs(out.value - ((1 - 0.6) + (1 - 0.7)) / 2.0) < 1e-12


def test_strong_weak_flat_derivative_wrt_probability():
    # perturbing one sample's pseudo-label probability moves the loss at
    # slope exactly -1/n, no matter how confident the prediction already is
    n, eps = 4, 1e-6
    y = np.zeros(n, dtype=int)
    for p_true in (0.1, 0.5, 0.9):
        base = np.column_stack([np.full(n, p_true), np.full(n, 1.0 - p_true)])
        lo, hi = base.copy(), base.copy()
        lo[0] = [p_true - eps, 1.0 - p_true + eps]
        hi[0] = [p_true + eps, 1.0 - p_true - eps]
        slope = (strong_weak_loss(hi, y).value - strong_weak_loss(lo, y).value) / (2 * eps)
        assert abs(slope - (-1.0 / n)) < 1e-9


def test_strong_weak_logit_gradient():
    rng = np.random.default_rng(3)
    for seed in range(5):
        logits = np.random.default_rng(seed).normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        logit_grad_check(lambda p: strong_weak_loss(p, y), logits)


def test_strong_weak_empty_batch_is_silent_zero():
    out = strong_weak_loss(np.zeros((0, 3)), np.zeros(0, dtype=int))
    assert out.value == 0.0
    assert out.grad_wrt_logits.shape == (0, 3)


# --- kernels: the checked losses and the formulas the kernels replaced --------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def former_cross_entropy(p, y):
    n, k = p.shape
    p_true = p[np.arange(n), y]
    clamped = int(np.count_nonzero(p_true < PROB_FLOOR))
    if clamped:
        p_true = np.maximum(p_true, PROB_FLOOR)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    return float(np.mean(-np.log(p_true))), (p - onehot) / n, clamped


def former_info_max(p):
    n = p.shape[0]
    marginal = p.mean(axis=0)
    log_marginal = np.log(np.maximum(marginal, PROB_FLOOR))
    log_p = np.log(np.maximum(p, PROB_FLOOR))
    value = float(np.sum(marginal * log_marginal) - np.mean(np.sum(p * log_p, axis=1)))
    dloss_dp = (log_marginal[None, :] - log_p) / n
    inner = np.sum(dloss_dp * p, axis=1, keepdims=True)
    return value, p * (dloss_dp - inner)


def former_adversarial(l, p, lam):
    n = l.shape[0]
    top = np.argmax(l, axis=1)
    gate = p[np.arange(n), top] > lam
    grad = np.zeros_like(l)
    grad[np.arange(n)[gate], top[gate]] = 1.0 / n
    return float(np.sum(l[np.arange(n), top] * gate) / n), grad


def former_strong_weak(p, y):
    n, k = p.shape
    p_true = p[np.arange(n), y]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    return float(np.mean(1.0 - p_true)), (-1.0 / n) * p_true[:, None] * (onehot - p)


# exact zeros and probabilities below PROB_FLOOR make cross_entropy clamp;
# repeated values make ties and probabilities equal to lam
PROB = st.one_of(st.sampled_from([0.0, 1e-300, 5e-13, PROB_FLOOR, 0.25, 0.5, 0.8, 1.0]), st.floats(0.0, 1.0))
LOGIT = st.one_of(st.sampled_from([-3.0, 0.0, 2.5]), st.floats(-50.0, 50.0))


@st.composite
def loss_operands(draw):
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    p = draw(arrays(np.float64, (n, k), elements=PROB))
    logits = draw(arrays(np.float64, (n, k), elements=LOGIT))
    y = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return p, logits, y, draw(st.sampled_from([0.25, 0.5, 0.8, 1.0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(operands=loss_operands())
def test_kernels_match_checked_losses_and_former_formulas_bitwise(operands):
    p, logits, y, lam = operands
    cases = [
        (losses._cross_entropy(p, y), cross_entropy(p, y), former_cross_entropy(p, y)),
        (losses._info_max(p), info_max_loss(p), former_info_max(p)),
        (
            losses._adversarial_logit(logits, p, lam),
            adversarial_logit_loss(logits, p, lam),
            former_adversarial(logits, p, lam),
        ),
        (losses._strong_weak(p, y), strong_weak_loss(p, y), former_strong_weak(p, y)),
    ]
    for kernel, checked, former in cases:
        public = (checked.value, checked.grad_wrt_logits, checked.clamped)[: len(kernel)]
        for a, b, c in zip(kernel, public, former):
            assert same_bits(a, b) and same_bits(a, c)
    assert cases[0][0][2] == int(np.count_nonzero(p[np.arange(len(y)), y] < PROB_FLOOR))


def test_label_dtype_check_accepts_unsigned_and_rejects_bool():
    p = np.full((2, 2), 0.5)
    assert cross_entropy(p, np.array([0, 1], dtype=np.uint8)).value == cross_entropy(p, np.array([0, 1])).value
    for bad in (np.array([True, False]), np.array([0.0, 1.0])):
        with pytest.raises(InvalidInputError):
            cross_entropy(p, bad)
