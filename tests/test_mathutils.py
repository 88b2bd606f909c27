import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swda import mathutils
from swda.errors import DegenerateInputError, InvalidInputError
from swda.mathutils import (
    as_float_array,
    column_fsums,
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


# --- column_fsums: exactly rounded column sums ----------------------------------

TINY = 5e-324  # the smallest subnormal


def fsum_outcome(column):
    """math.fsum's result, or the type of the exception it raises."""
    try:
        return math.fsum(column)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def same_float(a, b):
    """Equal bits up to the nan payload: value and sign of zero."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


@st.composite
def adversarial_column(draw, n):
    """One column of n doubles built to stress the certificate."""
    kind = draw(st.sampled_from(["any", "cancel", "tie", "wide", "subnormal", "zeros", "overflow"]))
    if kind == "any":
        return draw(st.lists(st.floats(width=64), min_size=n, max_size=n))
    if kind == "cancel":  # big terms cancel exactly, small residues decide the sum
        big = draw(st.lists(st.floats(-1e250, 1e250), min_size=n // 2, max_size=n // 2))
        rest = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=n - 2 * len(big), max_size=n - 2 * len(big)))
        return draw(st.permutations(big + [-x for x in big] + rest))
    if kind == "tie":  # base plus half a gap next to it: an exact midpoint, then tiny nudges
        powers_of_two = st.integers(-990, 990).map(lambda e: math.ldexp(1.0, e))
        base = draw(st.one_of(st.floats(1e-300, 1e300), powers_of_two))
        half = math.ulp(base) / 2.0  # half the gap above; below a power of two the gap is half as wide
        steps = [half, -half, half / 2.0, -half / 2.0, half * 2.0**-60, -half * 2.0**-60]
        extra = max(n - 2, 0)
        rest = draw(st.lists(st.sampled_from([0.0, -0.0, base, -base, *steps]), min_size=extra, max_size=extra))
        return draw(st.permutations([draw(st.sampled_from([base, -base])), draw(st.sampled_from(steps[:4]))] + rest))[:n]
    if kind == "wide":  # mantissa times 2^e over the whole exponent range
        return [
            math.ldexp(draw(st.floats(-1.0, 1.0)), draw(st.integers(-1074, 1000)))
            for _ in range(n)
        ]
    if kind == "subnormal":
        return [draw(st.integers(-(2**20), 2**20)) * TINY for _ in range(n)]
    if kind == "zeros":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    # "overflow": same-sign terms near the top of the range make fsum raise
    return draw(st.lists(st.floats(1e307, 1.7e308), min_size=n, max_size=n))


@st.composite
def adversarial_matrix(draw):
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 4))
    columns = [draw(adversarial_column(n)) for _ in range(m)]
    return np.array(columns, dtype=np.float64).reshape(m, n).T


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(M=adversarial_matrix())
def test_column_fsums_equals_fsum_bit_for_bit(M):
    outcomes = [fsum_outcome(M[:, c].tolist()) for c in range(M.shape[1])]
    raised = [o for o in outcomes if isinstance(o, type)]
    if raised:  # the first column whose fsum raises raises the same exception
        with pytest.raises(raised[0]):
            column_fsums(M)
        return
    got = column_fsums(M)
    assert got.dtype == np.float64 and got.shape == (M.shape[1],)
    assert all(same_float(g, want) for g, want in zip(got.tolist(), outcomes))


def test_column_fsums_random_columns_need_no_fallback(monkeypatch):
    # two or three terms often sum to an exact tie, which falls back; longer
    # random columns almost never do
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(mathutils.math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    rng = np.random.default_rng(7)
    for n in (1, 17, 720, 3600):
        M = rng.normal(size=(n, 5)) * 2.0 ** rng.integers(-40, 40, size=5)
        got = column_fsums(M)
        assert np.array_equal(got, [fsum(M[:, c].tolist()) for c in range(5)])
    assert calls == []


def test_column_fsums_falls_back_to_fsum_on_ties(monkeypatch):
    # 1 + 2^-53 lies exactly halfway between 1 and its successor, and 3 +
    # 2^-52 between 3 and its successor; fsum rounds both to even. 1 -
    # 2^-54 is the midpoint below 1, where the gap is half as wide, and
    # the last 2^-110 tips it down, a term the cascade's error sum loses.
    # Only fsum can settle such a column, so each takes the fallback.
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(mathutils.math, "fsum", lambda xs: calls.append(list(xs)) or fsum(xs))
    half = 2.0**-53
    M = np.array([[1.0, 3.0, 1.0, 2.0], [half, 2 * half, -half / 2, 0.5], [0.0, 0.0, -(2.0**-110), 0.25]])
    assert np.array_equal(column_fsums(M), [1.0, 3.0, 1.0 - half, 2.75])
    assert calls == [list(M[:, c]) for c in range(3)]  # the last column is certified


def test_column_fsums_zero_sum_takes_fsum_sign():
    M = np.array([[-0.0, 1.0, -0.0], [-0.0, -1.0, 0.0]])
    got = column_fsums(M)
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, math.fsum(M[:, c].tolist())) for c in range(3)]
    assert not got.any()


def test_column_fsums_raises_no_floating_point_error():
    # the trainers run under raise-on-overflow; the kernel's own rounding
    # arithmetic (subnormal gaps, a bound that underflows, inf and nan
    # columns that fall back) must not trip it
    big, sub = 1.7e308, 3 * TINY
    M = np.array([
        [big, sub, math.inf, math.nan, 1e-300, -0.0],
        [-big, -sub, 1.0, 1.0, 1e-300, -0.0],
        [big, sub, 2.0, 2.0, -2e-300, -0.0],
    ])
    with np.errstate(all="raise"):
        got = column_fsums(M)
    assert all(same_float(g, math.fsum(M[:, c].tolist())) for c, g in enumerate(got.tolist()))
