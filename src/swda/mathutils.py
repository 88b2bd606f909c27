"""Dense float64 math primitives the rest of the package builds on.

Everything is pure and deterministic. ``column_fsums``, the package's one
caller of math.fsum, gives fsum's exactly rounded, order-independent sum
of every column of a matrix at once: a vectorized error-free cascade
whose certified error bound decides, per column, whether its result is
fsum's, and math.fsum itself for the other columns. ``row_norms`` and
``cosine_distances`` sum through it, so any two code paths that evaluate
the same formula on the same operands agree bit for bit: the distance
graph, and the fallback of the certified BLAS nearest searches in repsets.

``serial_blas`` pins the loaded OpenBLAS to one thread while a trainer
runs, and ``import swda`` loads it on one thread when it loads numpy; see
serial_blas for why that is safe and faster.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import InvalidInputError

Array = np.ndarray

#: default step for central finite differences
FD_EPS = 1e-5
MAX_FLOAT64_ENTRIES = np.iinfo(np.intp).max // 8  # the longest float64 array numpy can make
#: rows per block of a pass over a whole domain (scaffolding.full_pass) and
#: of row_norms: bounds their scratch, and no bit depends on it
BLOCK_ROWS = 1024


def as_float_array(x, ndim: int | None = None) -> Array:
    """Coerce to a float64 ndarray, optionally checking dimensionality."""
    arr = np.asarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise InvalidInputError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite int or float; an int too large for a float64 is no number."""
    try:
        return (_is_int(v) or isinstance(v, (float, np.floating))) and math.isfinite(v)
    except OverflowError:
        return False


def _list_of(accepts):
    return lambda v: isinstance(v, (list, tuple)) and all(map(accepts, v))


# (name, test) of the values each field annotation accepts, keyed by its
# source text: the dataclasses postpone annotations
_FIELD_RULES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_number),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "tuple[int, ...]": ("a list of positive integers", _list_of(lambda h: _is_int(h) and h >= 1)),
    "tuple": ("a list of finite numbers", _list_of(_is_number)),
}


def check_fields(obj) -> None:
    """Raise InvalidInputError unless each field of the dataclass ``obj`` holds
    a value its annotation accepts; numpy scalars do, and a bool is no number."""
    for f in dataclasses.fields(obj):
        name, accepts = _FIELD_RULES.get(f.type, (None, None))
        if accepts is not None and not accepts(value := getattr(obj, f.name)):
            raise InvalidInputError(f"{f.name} must be {name}, got {value!r}")


def softmax(logits) -> Array:
    """Stable softmax over the last axis (max subtraction before exp).

    Output entries lie in (0, 1] and each row sums to 1 up to rounding.
    """
    z = as_float_array(logits)
    if z.size == 0:
        raise InvalidInputError("softmax of an empty input")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax input must be finite")
    return softmax_of_finite(z.reshape(-1, z.shape[-1])).reshape(z.shape)


def softmax_of_finite(z: Array) -> Array:
    """softmax() of a non-empty, finite 2-d float64 array, unchecked. Each
    row's max is exact, gathered at its argmax: cheaper than a reduction."""
    e = z - z[np.arange(z.shape[0]), z.argmax(1)][:, None]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


# Range of sum |x| over a column in which column_fsums trusts its
# certificate: below it the bound could underflow, above it a partial sum
# could overflow.
_SAFE_ABS_SUM_LO, _SAFE_ABS_SUM_HI = 2.0**-900, 2.0**900


def column_fsums(M: Array) -> Array:
    """math.fsum(M[:, c]) for every column c of a 2-d float64 array, bit for
    bit, in one vectorized pass; M is not modified.

    Method. A pairwise cascade of Knuth's error-free TwoSum (the
    vectorized form of Sum2 in Ogita, Rump and Oishi, "Accurate Sum and
    Dot Product", SIAM J. Sci. Comput. 26, 2005): each of L = ceil(log2 n)
    levels adds the top half of the rows to the bottom half, carrying an
    odd middle row, and adds the level's rounding errors e into E. Then
    (hi, lo) = TwoSum(S, E) for the one row S left.

    Certificate. Let u = 2^-53 and T = sum |x| of a column. Without
    overflow TwoSum is exact, so sum x = S + sum e over the n - 1 TwoSums.
    Each |e| <= u|s|, and a level's partial sums have sum |s| <= (1+u)^L T,
    so sum |e| <= L u (1+u)^L T. E is a floating-point sum of those terms
    in some order, within gamma_n sum |e| of their exact sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 4.2; addition is exact
    in the subnormal range, so this holds there too), and hi + lo = S + E
    exactly. Hence |sum x - hi - lo| <= gamma_n L u (1+u)^L T <= 1.01 n L
    u^2 T, as n u <= 2^-13 for any array that fits in memory. The computed
    sum of |x|, A, is at least (1 - gamma_n) T, and B = fl(2 n L u^2 A)
    loses at most one rounding, so B exceeds that error. A >= 2^-900
    keeps B normal (L = 0, n = 1, needs no bound), A <= 2^900 keeps every
    partial sum and TwoSum intermediate finite.

    So sum x lies within B of hi + lo. With t = lo sign(hi), that whole
    interval lies strictly inside hi's rounding interval when t + B is
    below half the gap from |hi| up to the next float and B - t below
    half the gap down (rounding is monotone, so the exact sums are too;
    halving a gap is exact except for the smallest subnormal, where it
    gives 0), and then the exactly rounded fsum returns hi. A power of two
    has a smaller gap below than above, and unit vectors' squared norms
    land on 1.0 often, so each side keeps its own gap. The column's answer
    is hi when both hold, hi and lo are finite and A lies in the safe
    range. hi = 0 never passes, as its gap below is 0: a zero sum follows
    fsum's signed-zero rules. Any other column, such as a near tie, an inf
    or nan entry, or a sum that overflows, takes math.fsum itself, with
    its results and exceptions.

    Memory. One (n + 1, m) buffer A holds |M| and then all the scratch. A
    level that halves r rows computes its errors in the last 2h rows of A
    and then writes its r - h partial sums to the first rows, which the
    next level reads. The first level reads only M; a later one reads
    A[:r], and r + 2h <= 2 ceil(n/2) <= n + 1 keeps its scratch below
    that. So every column's result is the same exact sum as with
    separate buffers.
    """
    n, m = M.shape
    out = np.zeros(m)
    if n == 0:
        return out
    with np.errstate(all="ignore"):
        A = np.empty((n + 1, m))  # |M|, then the only scratch: see Memory
        abs_sum = np.abs(M, out=A[:n]).sum(axis=0)
        E = np.zeros(m)
        src, r, levels = M, n, 0
        while r > 1:
            h = r // 2
            a, b = src[:h], src[r - h : r]
            S, s, z = A[: r - h], A[-2 * h : -h], A[-h:]  # the level's sums, and its scratch
            np.add(a, b, out=s)
            np.subtract(s, a, out=z)
            np.subtract(s, z, out=s)
            np.subtract(a, s, out=s)
            np.subtract(b, z, out=z)
            s += z  # the TwoSum error (a - (s - z)) + (b - z), z = s - a
            E += s.sum(axis=0)
            if r % 2:
                S[h] = src[h]  # the middle row, carried
            np.add(a, b, out=S[:h])  # s again; a and b are intact
            src, r, levels = S, r - h, levels + 1
        top = src[0]
        hi = top + E
        z = hi - top
        lo = (top - (hi - z)) + (E - z)
        bound = (2.0 * n * levels * 2.0**-106) * abs_sum
        mag, t = np.abs(hi), lo * np.sign(hi)
        exact = (
            np.isfinite(hi)
            & np.isfinite(lo)
            & (abs_sum >= _SAFE_ABS_SUM_LO)
            & (abs_sum <= _SAFE_ABS_SUM_HI)
            & (t + bound < 0.5 * (np.nextafter(mag, np.inf) - mag))
            & (bound - t < 0.5 * (mag - np.nextafter(mag, 0.0)))
        )
    out[exact] = hi[exact]
    for c in np.flatnonzero(~exact):
        out[c] = math.fsum(M[:, c].tolist())
    return out


def row_norms(M: Array) -> Array:
    """sqrt(fsum(r * r)) for every row r of a 2-d float64 array, BLOCK_ROWS
    rows at a time: each row is its own column_fsums column, so blocking
    bounds the scratch and changes no bit."""
    out = np.empty(M.shape[0])
    for lo in range(0, M.shape[0], BLOCK_ROWS):
        B = M[lo : lo + BLOCK_ROWS].T
        np.sqrt(column_fsums(np.multiply(B, B, order="C")), out=out[lo : lo + B.shape[1]])
    return out


def cosine_distances(A: Array, a_norms: Array, B: Array, b_norms: Array) -> Array:
    """min(2, max(0, 1 - fsum(a * b) / (|a| |b|))), bit for bit, for each row
    a of A and b of B, given finite, nonzero row norms, with one column_fsums
    call per row of the shorter operand. It raises where that formula does:
    OverflowError for a dot product fsum overflows on, and ArithmeticError for
    a norm product that underflows to 0."""
    if A.shape[0] > B.shape[0]:
        return cosine_distances(B, b_norms, A, a_norms).T
    dots = np.empty((A.shape[0], B.shape[0]))
    for r, a in enumerate(A):
        dots[r] = column_fsums(np.multiply(B.T, a[:, None], order="C"))
    with np.errstate(over="ignore", divide="raise", invalid="raise"):
        return np.clip(1.0 - dots / np.outer(a_norms, b_norms), 0.0, 2.0)


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


def _mapped_openblas() -> list:
    """The OpenBLAS libraries mapped into this process, loaded with ctypes;
    none under another BLAS, or without /proc."""
    try:
        with open(_PROC_MAPS) as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None when there is none."""
    for lib in _mapped_openblas():
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
    a second BLAS thread to help; the extra thread only spins, and beside
    train_multi_target's forked lanes it takes a core from another lane.
    An idle BLAS worker busy-waits about 2^28 cycles after it starts or after a multi-threaded
    product, and lowering the count does not stop a spin under way; hence
    ``import swda`` loads numpy with OPENBLAS_NUM_THREADS=1 unless numpy is
    loaded already (as under pytest) or the user set the variable. dgemm
    does not split a dot product's reduction across threads, so results
    are bit-identical at any count.
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
