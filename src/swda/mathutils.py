"""Dense float64 math primitives the rest of the package builds on.

Everything is pure and deterministic. Norms and cosine distances
accumulate with ``math.fsum`` (exactly rounded, order independent), so
any two code paths that evaluate the same formula on the same operands
agree bit for bit. The distance graph relies on that, and the
nearest-centroid searches in ``repsets`` use these fsum distances as the
reference that their certified BLAS tables are checked against.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

Array = np.ndarray

#: default step for central finite differences
FD_EPS = 1e-5


def as_float_array(x, ndim: int | None = None) -> Array:
    """Coerce to a float64 ndarray, optionally checking dimensionality."""
    arr = np.asarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise InvalidInputError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


def softmax(logits) -> Array:
    """Stable softmax over the last axis (max subtraction before exp).

    Output entries lie in (0, 1] and each row sums to 1 up to rounding.
    """
    z = as_float_array(logits)
    if z.size == 0:
        raise InvalidInputError("softmax of an empty input")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax input must be finite")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def exact_norm(v: Array) -> float:
    """Euclidean norm via exactly rounded summation."""
    return math.sqrt(math.fsum((v * v).tolist()))


def cosine_distance_with_norms(a: Array, b: Array, norm_a: float, norm_b: float) -> float:
    """Cosine distance when the operand norms are already known (and nonzero)."""
    dot = math.fsum((a * b).tolist())
    d = 1.0 - dot / (norm_a * norm_b)
    return min(2.0, max(0.0, d))


def cosine_distance(a, b) -> float:
    """1 - cos(angle between a and b); range [0, 2], 0 iff positively aligned."""
    x = as_float_array(a, ndim=1)
    y = as_float_array(b, ndim=1)
    if x.shape != y.shape:
        raise InvalidInputError(f"shape mismatch {x.shape} vs {y.shape}")
    na = exact_norm(x)
    nb = exact_norm(y)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine distance of a zero vector is undefined")
    return cosine_distance_with_norms(x, y, na, nb)


def finite_diff_gradient(f: Callable[[Array], float], x, eps: float = FD_EPS) -> Array:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    The independent oracle for every analytic gradient in this package.
    """
    x0 = as_float_array(x, ndim=1).copy()
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        orig = x0[i]
        x0[i] = orig + eps
        f_plus = float(f(x0))
        x0[i] = orig - eps
        f_minus = float(f(x0))
        x0[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad
