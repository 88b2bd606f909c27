import math

import numpy as np
import pytest

from swda.datasets import (
    CIRCLE_RADIUS,
    Domain,
    DomainTransform,
    IDENTITY,
    SyntheticSpec,
    class_means,
    generate,
    interpolate_transform,
    load_csv,
    make_between_geometry,
    rotation_matrix,
    save_csv,
    standard_between_spec,
    standard_shift_spec,
)
from swda.errors import InvalidInputError, ParseError


def test_domain_validation():
    with pytest.raises(InvalidInputError):
        Domain("bad", np.zeros((3, 2)), labels=np.array([0, 1]))
    dom = Domain("ok", np.zeros((3, 2)), labels=[0, 1, 0])
    assert dom.n == 3
    assert dom.labels.dtype == np.int64


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        SyntheticSpec(num_classes=1)
    with pytest.raises(InvalidInputError):
        SyntheticSpec(input_dim=1)
    with pytest.raises(InvalidInputError):
        DomainTransform(noise_scale=-0.1)
    with pytest.raises(InvalidInputError):
        SyntheticSpec(transforms=[DomainTransform(translation=(1.0,))], input_dim=4)
    with pytest.raises(InvalidInputError):
        SyntheticSpec(num_classes=3, transforms=[DomainTransform(class_skew=(1.0, 1.0))])


def test_rotation_matrix_properties():
    R = rotation_matrix(35.0, 5)
    assert np.allclose(R @ R.T, np.eye(5), atol=1e-12)
    assert np.allclose(R[2:, 2:], np.eye(3), atol=1e-15)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_class_means_tilt_splits_variance():
    spec = SyntheticSpec(num_classes=6, input_dim=8)
    mus = class_means(spec)
    norms = np.linalg.norm(mus, axis=1)
    assert np.allclose(norms, CIRCLE_RADIUS, atol=1e-12)
    # equal energy in the rotated plane (0,1) and the anchored plane (2,3)
    assert np.allclose(
        np.linalg.norm(mus[:, :2], axis=1), np.linalg.norm(mus[:, 2:4], axis=1), atol=1e-12
    )
    assert np.all(mus[:, 4:] == 0.0)


def test_class_means_flat_below_four_dims():
    mus = class_means(SyntheticSpec(num_classes=4, input_dim=3))
    assert np.all(mus[:, 2] == 0.0)
    assert np.allclose(np.linalg.norm(mus[:, :2], axis=1), CIRCLE_RADIUS, atol=1e-12)


def test_generate_identity_transform_reproduces_source():
    spec = SyntheticSpec(num_classes=3, input_dim=4, samples_per_class=10, transforms=[IDENTITY, IDENTITY])
    src, tgt = generate(spec)
    assert np.array_equal(src.samples, tgt.samples)
    assert np.array_equal(src.labels, tgt.labels)


def test_generate_translation_shifts_means_exactly():
    t = (1.5, -2.0, 0.5, 3.0)
    spec = SyntheticSpec(
        num_classes=3, input_dim=4, samples_per_class=50,
        transforms=[IDENTITY, DomainTransform(translation=t)],
    )
    src, tgt = generate(spec)
    for c in range(3):
        mask = src.labels == c
        shift = tgt.samples[mask].mean(axis=0) - src.samples[mask].mean(axis=0)
        assert np.allclose(shift, t, atol=1e-12)


def test_generate_rotation_invertible():
    spec = SyntheticSpec(
        num_classes=2, input_dim=4, samples_per_class=5,
        transforms=[IDENTITY, DomainTransform(rotation_deg=35.0)],
    )
    src, tgt = generate(spec)
    R = rotation_matrix(-35.0, 4)
    assert np.allclose(tgt.samples @ R.T, src.samples, atol=1e-12)


def test_generate_deterministic_per_seed():
    a = generate(SyntheticSpec(seed=6))[0]
    b = generate(SyntheticSpec(seed=6))[0]
    c = generate(SyntheticSpec(seed=7))[0]
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_generate_class_skew_scales_clusters():
    spec = SyntheticSpec(
        num_classes=2, input_dim=4, samples_per_class=20,
        transforms=[IDENTITY, DomainTransform(class_skew=(1.0, 2.0))],
    )
    src, tgt = generate(spec)
    assert np.array_equal(tgt.samples[tgt.labels == 0], src.samples[src.labels == 0])
    assert np.allclose(tgt.samples[tgt.labels == 1], 2.0 * src.samples[src.labels == 1], atol=1e-12)


def test_interpolate_transform_endpoints_and_midpoint():
    far = DomainTransform(rotation_deg=50.0, translation=(2.0, -4.0), noise_scale=1.4, class_skew=(0.8, 1.2))
    zero = interpolate_transform(IDENTITY, far, 0.0)
    assert zero.rotation_deg == 0.0 and zero.noise_scale == 1.0
    assert zero.translation == (0.0, 0.0)
    assert zero.class_skew == (1.0, 1.0)
    one = interpolate_transform(IDENTITY, far, 1.0)
    assert one.rotation_deg == 50.0 and one.translation == (2.0, -4.0)
    mid = interpolate_transform(IDENTITY, far, 0.5)
    assert mid.rotation_deg == 25.0
    assert mid.translation == (1.0, -2.0)
    assert abs(mid.noise_scale - 1.2) < 1e-15
    assert mid.class_skew == (0.9, 1.1)


def test_between_geometry_structure():
    S, T_mid, T_far = make_between_geometry(standard_between_spec(0))
    assert (S.name, T_mid.name, T_far.name) == ("source", "target_mid", "target_far")
    assert S.n == T_mid.n == T_far.n
    # per-class means of T_mid sit near the S/T_far midpoints; the
    # half-angle rotation bows the path slightly inward, so tolerance is
    # proportional to (1 - cos(theta/2)) of the class-mean radius
    spec = standard_between_spec(0)
    theta = spec.transforms[1].rotation_deg
    tol = (1.0 - math.cos(math.radians(theta / 2.0))) * CIRCLE_RADIUS + 0.35
    for c in range(spec.num_classes):
        mid_mean = T_mid.samples[T_mid.labels == c].mean(axis=0)
        midpoint = 0.5 * (
            S.samples[S.labels == c].mean(axis=0) + T_far.samples[T_far.labels == c].mean(axis=0)
        )
        assert np.linalg.norm(mid_mean - midpoint) < tol, f"class {c}"


def test_between_geometry_mid_closer_to_source():
    S, T_mid, T_far = make_between_geometry(standard_between_spec(1))
    for c in range(6):
        s_mean = S.samples[S.labels == c].mean(axis=0)
        d_mid = np.linalg.norm(T_mid.samples[T_mid.labels == c].mean(axis=0) - s_mean)
        d_far = np.linalg.norm(T_far.samples[T_far.labels == c].mean(axis=0) - s_mean)
        assert d_mid < d_far


def test_between_geometry_needs_two_transforms():
    with pytest.raises(InvalidInputError):
        make_between_geometry(SyntheticSpec(transforms=[IDENTITY]))


def test_standard_shift_spec_shape():
    spec = standard_shift_spec(3)
    assert spec.seed == 3
    assert spec.transforms[0] is IDENTITY
    assert spec.transforms[1].rotation_deg == 35.0
    assert spec.transforms[1].noise_scale == 1.3
    src, tgt = generate(spec)
    assert src.n == tgt.n == 6 * 120


# --- CSV ----------------------------------------------------------------------

def test_csv_round_trip_labeled(tmp_path):
    dom = generate(standard_shift_spec(0))[0]
    p = tmp_path / "source.csv"
    save_csv(dom, p)
    back = load_csv(p)
    assert np.array_equal(back.samples, dom.samples)
    assert np.array_equal(back.labels, dom.labels)
    assert back.name == "source"


def test_csv_round_trip_unlabeled(tmp_path):
    dom = Domain("t", np.random.default_rng(0).normal(size=(4, 3)))
    p = tmp_path / "t.csv"
    save_csv(dom, p)
    back = load_csv(p)
    assert back.labels is None
    assert np.array_equal(back.samples, dom.samples)


def test_csv_save_load_save_idempotent(tmp_path):
    dom = generate(standard_shift_spec(1))[1]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_csv(dom, p1)
    save_csv(load_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("", 1, "empty"),
        ("label,f0\n", 1, "no data rows: error points at the last line present"),
        ("wrong,f0\n0,1.0\n", 1, "bad header"),
        ("label,f0,f2\n0,1.0,2.0\n", 1, "bad header"),
        ("label,f0\n0,1.0,2.0\n", 2, "field count"),
        ("label,f0\n0,1.0\nx,2.0\n", 3, "bad label"),
        ("label,f0\n0,1.0\n-1,2.0\n", 3, "negative label"),
        ("label,f0\n0,1.0\n99999999999999999999999,2.0\n", 3, "label outside int64"),
        ("label,f0\n0,abc\n", 2, "bad feature"),
        ("label,f0\n0,1.0\n?,2.0\n", 2, "mixed"),
        ("label,f0,f1\n0,1.0,nan\n", 2, "nan feature"),
        ("label,f0,f1\n0,1.0,2.0\n\n1,-inf,4.0\n", 4, "-inf feature after a blank line"),
        ("label,f0\n0,1.0\n1,1e999\n", 3, "overflow to inf"),
    ]
    for text, line, why in cases:
        p = tmp_path / "case.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.line == line, why


def test_csv_blank_lines_skipped(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("label,f0,f1\n0,1.0,2.0\n\n1,3.0,4.0\n")
    dom = load_csv(p)
    assert dom.n == 2
    assert dom.labels.tolist() == [0, 1]
