import math

import numpy as np
import pytest

from swda.errors import DegenerateInputError, InvalidInputError
from swda.mathutils import (
    as_float_array,
    cosine_distance,
    exact_norm,
    finite_diff_gradient,
    softmax,
)

from oracles import cosine_distance as oracle_cosine
from oracles import softmax_rows


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(12, 5)) * 10
    p = softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)


def test_softmax_known_value():
    p = softmax(np.array([[5.0, 1.0]]))
    # oracle: exp(4)/(exp(4)+1)
    assert abs(p[0, 0] - 0.9820137900379083) < 1e-15


def test_softmax_matches_oracle():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 4)) * 3
    mine = softmax(logits)
    ref = softmax_rows(logits.tolist())
    assert np.allclose(mine, ref, atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 6))
    assert np.allclose(softmax(logits), softmax(logits + 123.0), atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        softmax(np.array([[1.0, np.nan]]))


def test_exact_norm_matches_fsum():
    rng = np.random.default_rng(4)
    v = rng.normal(size=17)
    assert exact_norm(v) == math.sqrt(math.fsum(x * x for x in v))


def test_cosine_distance_matches_oracle_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        assert cosine_distance(a, b) == oracle_cosine(a.tolist(), b.tolist())


def test_cosine_distance_bounds_and_extremes():
    a = np.array([1.0, 0.0])
    assert abs(cosine_distance(a, a)) < 1e-15
    assert abs(cosine_distance(a, -a) - 2.0) < 1e-15
    assert abs(cosine_distance(a, np.array([0.0, 1.0])) - 1.0) < 1e-15


def test_cosine_distance_zero_vector_raises():
    with pytest.raises(DegenerateInputError):
        cosine_distance(np.zeros(3), np.ones(3))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_cosine_distance_non_finite_raises(bad):
    # unchecked, the nan distance of [nan, 1] and [1, 0] would clip to 0.0
    with pytest.raises(DegenerateInputError, match="non-finite"):
        cosine_distance(np.array([bad, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(DegenerateInputError, match="non-finite"):
        cosine_distance(np.array([1.0, 0.0]), np.array([bad, 1.0]))


def test_finite_diff_gradient_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(x):
        return float(x @ A @ x)

    x0 = np.array([0.3, -0.7])
    fd = finite_diff_gradient(f, x0)
    exact = 2.0 * A @ x0
    assert np.allclose(fd, exact, atol=1e-6)


def test_as_float_array_ndim_check():
    with pytest.raises(InvalidInputError):
        as_float_array(np.zeros((2, 2)), ndim=1)
