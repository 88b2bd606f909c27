"""Dense float64 math primitives the rest of the package builds on.

Everything is pure and deterministic. Norms and cosine distances
accumulate with ``math.fsum`` (exactly rounded, order independent), so
any two code paths that evaluate the same formula on the same operands
agree bit for bit. The distance graph relies on that, and the
nearest-centroid searches in ``repsets`` use these fsum distances as the
reference that their certified BLAS tables are checked against.

``serial_blas`` pins the loaded OpenBLAS to one thread while a trainer
runs; see its docstring for why that is safe and faster.
"""

from __future__ import annotations

import contextlib
import ctypes
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
    """Cosine distance when the operand norms are already known (finite and
    nonzero); a nan would clip to 0.0, so callers check norms first."""
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
    if not (math.isfinite(na) and math.isfinite(nb)):
        raise DegenerateInputError("cosine distance of a non-finite vector (or an overflowing norm) is undefined")
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


# where Linux lists the shared objects mapped into this process
_PROC_MAPS = "/proc/self/maps"
# (get, set) thread-count entry points of numpy's bundled OpenBLAS and of
# a system OpenBLAS, with and without the 64-bit-integer symbol suffix
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None when there is none (another BLAS, or no /proc)."""
    try:
        with open(_PROC_MAPS) as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                return get, set_
    return None


@contextlib.contextmanager
def serial_blas():
    """Run the block (or, as a decorator, each call) with OpenBLAS on one
    thread and restore the previous thread count afterwards.

    Training multiplies small batches (48 rows by default), too small for
    a second BLAS thread to help; the extra thread only spins, and in a
    process pool it takes a core from the other worker. dgemm does not split a dot product's
    reduction across threads, so results are bit-identical at any count.
    Without a mapped OpenBLAS this does nothing. The count is process-wide:
    trainers running concurrently in threads of one process share it.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
