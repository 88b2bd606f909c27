"""Synthetic multi-domain datasets and CSV I/O.

The base domain places one isotropic Gaussian blob per class on a circle
in the first two input dimensions. Every domain applies its own affine
transform to the SAME base draws:

    x = R(rotation) @ (skew_c * (mu_c + noise_scale * eps)) + translation

so inter-domain differences are controlled geometry, not sampling noise.
Per-class skew factors make the class-wise distances genuinely differ
across classes. All domains carry labels; trainers simply never read
target labels except for evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, ParseError
from .mathutils import MAX_FLOAT64_ENTRIES, Array, as_float_array, check_fields

CIRCLE_RADIUS = 4.0


@dataclass
class Domain:
    name: str
    samples: Array  # (n, input_dim)
    labels: Array | None = None  # (n,) int64 or None

    def __post_init__(self):
        self.samples = as_float_array(self.samples, ndim=2)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.samples.shape[0],):
                raise InvalidInputError("label count does not match sample count")

    @property
    def n(self) -> int:
        return self.samples.shape[0]


@dataclass
class DomainTransform:
    rotation_deg: float = 0.0
    translation: tuple = ()  # empty means zero shift
    noise_scale: float = 1.0
    class_skew: tuple = ()  # empty means no per-class scaling

    def __post_init__(self):
        check_fields(self)
        if self.noise_scale < 0.0:
            raise InvalidInputError("noise_scale must be >= 0")
        self.translation = tuple(self.translation)
        self.class_skew = tuple(self.class_skew)


IDENTITY = DomainTransform()


@dataclass
class SyntheticSpec:
    num_classes: int = 6
    input_dim: int = 8
    samples_per_class: int = 120
    transforms: list = field(default_factory=lambda: [IDENTITY])
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.num_classes < 2:
            raise InvalidInputError("need at least 2 classes")
        if self.input_dim < 2:
            raise InvalidInputError("rotation needs input_dim >= 2")
        if self.samples_per_class < 1:
            raise InvalidInputError("need at least 1 sample per class")
        if not self.transforms:
            raise InvalidInputError("need at least one domain transform")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        # generate() fills (k, m, d) and (d, d) arrays; counted in Python ints, as
        # NetworkConfig counts, either one too large blames the largest size
        sizes = {f: getattr(self, f) for f in ("num_classes", "samples_per_class", "input_dim")}
        if max(math.prod(sizes.values()), self.input_dim**2) > MAX_FLOAT64_ENTRIES:
            raise InvalidInputError(f"{max(sizes, key=sizes.get)} is too large: the samples would not fit a float64 array")
        for t in self.transforms:
            if t.translation and len(t.translation) != self.input_dim:
                raise InvalidInputError(f"translation length {len(t.translation)} != input_dim {self.input_dim}")
            if t.class_skew and len(t.class_skew) != self.num_classes:
                raise InvalidInputError(f"class_skew length {len(t.class_skew)} != num_classes {self.num_classes}")


def rotation_matrix(deg: float, dim: int) -> Array:
    """Rotation by deg degrees in the (0, 1) plane, identity elsewhere."""
    theta = math.radians(deg)
    R = np.eye(dim)
    R[0, 0] = R[1, 1] = math.cos(theta)
    R[0, 1] = -math.sin(theta)
    R[1, 0] = math.sin(theta)
    return R


def class_means(spec: SyntheticSpec) -> Array:
    """Blob centers: evenly spaced on a circle tilted out of the rotation
    plane.

    With input_dim >= 4 the circle's plane splits its variance evenly
    between dims (0, 1) and dims (2, 3). Domain rotations act on dims
    (0, 1) only, so the untouched (2, 3) components anchor each rotated
    class to its own source position; without the tilt, rotations past
    half the inter-class angle would favor aligning every cluster with
    its neighbor, which no adaptation method could undo. Below 4 input
    dims the circle lies flat in (0, 1).
    """
    mus = np.zeros((spec.num_classes, spec.input_dim))
    tilt = spec.input_dim >= 4
    scale = CIRCLE_RADIUS / math.sqrt(2.0) if tilt else CIRCLE_RADIUS
    for c in range(spec.num_classes):
        angle = 2.0 * math.pi * c / spec.num_classes
        mus[c, 0] = scale * math.cos(angle)
        mus[c, 1] = scale * math.sin(angle)
        if tilt:
            mus[c, 2] = scale * math.cos(angle)
            mus[c, 3] = scale * math.sin(angle)
    return mus


def _domain_name(i: int) -> str:
    return "source" if i == 0 else f"target{i}"


def generate(spec: SyntheticSpec) -> list:
    """One Domain per transform, all built from shared base draws."""
    rng = np.random.default_rng(spec.seed)
    k, m, dim = spec.num_classes, spec.samples_per_class, spec.input_dim
    mus = class_means(spec)
    eps = rng.standard_normal((k, m, dim))
    labels = np.repeat(np.arange(k, dtype=np.int64), m)

    domains = []
    for i, t in enumerate(spec.transforms):
        R = rotation_matrix(t.rotation_deg, dim)
        shift = np.array(t.translation) if t.translation else np.zeros(dim)
        skew = np.array(t.class_skew) if t.class_skew else np.ones(k)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            samples = np.concatenate([(skew[c] * (mus[c] + t.noise_scale * eps[c])) @ R.T + shift for c in range(k)])
        if not np.isfinite(samples).all():
            raise InvalidInputError(f"transforms[{i}] gives non-finite samples: its scales or shift overflow a float64")
        domains.append(Domain(_domain_name(i), samples, labels.copy()))
    return domains


def _lerp_tuple(a: tuple, b: tuple, fill: float, frac: float) -> tuple:
    n = max(len(a), len(b))
    av = a if a else (fill,) * n
    bv = b if b else (fill,) * n
    return tuple((1.0 - frac) * x + frac * y for x, y in zip(av, bv))


def interpolate_transform(a: DomainTransform, b: DomainTransform, frac: float) -> DomainTransform:
    """Parameter-wise blend of two transforms; frac 0 gives a, frac 1 gives b."""
    return DomainTransform(
        rotation_deg=(1.0 - frac) * a.rotation_deg + frac * b.rotation_deg,
        translation=_lerp_tuple(a.translation, b.translation, 0.0, frac),
        noise_scale=(1.0 - frac) * a.noise_scale + frac * b.noise_scale,
        class_skew=_lerp_tuple(a.class_skew, b.class_skew, 1.0, frac),
    )


def make_between_geometry(spec: SyntheticSpec):
    """(S, T_mid, T_far) where T_mid's transform is the halfway blend of
    the source and far transforms, so T_mid sits between S and T_far in
    input space (class means near, not exactly at, the midpoints; the
    half-angle rotation bows slightly inward).

    spec.transforms must hold exactly two entries: the source transform
    and the far target's transform.
    """
    if len(spec.transforms) != 2:
        raise InvalidInputError("between-geometry spec needs exactly 2 transforms (source, far)")
    src_t, far_t = spec.transforms
    full = SyntheticSpec(
        num_classes=spec.num_classes,
        input_dim=spec.input_dim,
        samples_per_class=spec.samples_per_class,
        transforms=[src_t, interpolate_transform(src_t, far_t, 0.5), far_t],
        seed=spec.seed,
    )
    source, mid, far = generate(full)
    mid = Domain("target_mid", mid.samples, mid.labels)
    far = Domain("target_far", far.samples, far.labels)
    return source, mid, far


def standard_shift_spec(seed: int = 0) -> SyntheticSpec:
    """The shifted-blob adaptation task used throughout the test suite:
    rotation 35 degrees, a translation, 1.3x noise, mild per-class skew."""
    k = 6
    return SyntheticSpec(
        num_classes=k,
        input_dim=8,
        samples_per_class=120,
        transforms=[
            IDENTITY,
            DomainTransform(
                rotation_deg=35.0,
                translation=(2.5, -2.0, 1.5) + (0.0,) * 5,
                noise_scale=1.3,
                class_skew=tuple(np.linspace(0.85, 1.2, k)),
            ),
        ],
        seed=seed,
    )


def standard_between_spec(seed: int = 0) -> SyntheticSpec:
    """Two-transform spec (source identity, far target shifted) feeding
    make_between_geometry.

    The far shift is translation-dominated (norm ~7.3 against a class
    circle of radius 4) with a mild 25-degree rotation: a gap wide enough
    that self-learning alone bridges it unreliably, which is the regime
    peer scaffolding is built for. The halfway domain adapts easily and
    its pseudo-labeled pool carries the labels across.
    """
    k = 6
    return SyntheticSpec(
        num_classes=k,
        input_dim=8,
        samples_per_class=120,
        transforms=[
            IDENTITY,
            DomainTransform(
                rotation_deg=25.0,
                translation=(5.0, -4.0, 3.0, 2.0) + (0.0,) * 4,
                noise_scale=1.2,
                class_skew=tuple(np.linspace(0.85, 1.2, k)),
            ),
        ],
        seed=seed,
    )


# --- text and CSV I/O ----------------------------------------------------------

def read_utf8(path) -> str:
    """The text of the file at ``path``, decoded as strict UTF-8 (a BOM is
    kept as U+FEFF); a byte that is not UTF-8 raises ParseError with its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {raw[exc.start]:#04x} is not UTF-8 text", line=raw.count(b"\n", 0, exc.start) + 1)


def names_its_file(load):
    """Decorate load(path) so that a ParseError it raises names the path."""

    @functools.wraps(load)
    def load_naming_file(path):
        try:
            return load(path)
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)  # exc.line stays
            raise

    return load_naming_file


def save_csv(domain: Domain, path) -> None:
    """Header label,f0..f{d-1}; 17-significant-digit decimals; '?' labels
    for unlabeled domains. LF endings."""
    d = domain.samples.shape[1]
    lines = ["label," + ",".join(f"f{j}" for j in range(d))]
    for i in range(domain.n):
        label = "?" if domain.labels is None else str(int(domain.labels[i]))
        lines.append(label + "," + ",".join(f"{v:.17g}" for v in domain.samples[i]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@names_its_file
def load_csv(path) -> Domain:
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if header[0] != "label" or any(h != f"f{j}" for j, h in enumerate(header[1:])):
        raise ParseError(f"bad header {lines[0]!r}", line=1)
    d = len(header) - 1
    if d == 0:
        raise ParseError("header has no feature columns", line=1)

    rows, labels = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != d + 1:
            raise ParseError(f"expected {d + 1} fields, found {len(fields)}", line=line_no)
        if fields[0] == "?":
            labels.append(None)
        else:
            try:
                labels.append(int(fields[0]))
            except ValueError:
                raise ParseError(f"bad label {fields[0]!r}", line=line_no)
            if labels[-1] < 0:
                raise ParseError(f"negative label {labels[-1]}", line=line_no)
            if labels[-1] >= 2**63:
                raise ParseError(f"label {labels[-1]} does not fit in int64", line=line_no)
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise ParseError("bad feature value", line=line_no)

    if not rows:
        raise ParseError("no data rows", line=len(lines))
    if any(l is None for l in labels) and any(l is not None for l in labels):
        raise ParseError("mixed labeled and unlabeled rows", line=2)
    samples = np.array(rows)
    finite = np.isfinite(samples)
    if not finite.all():
        r, col = np.argwhere(~finite)[0]
        line_no = [i for i, line in enumerate(lines[1:], start=2) if line.strip()][r]
        raise ParseError(f"non-finite feature value {samples[r, col]!r} in column f{col}", line=line_no)
    label_arr = None if labels[0] is None else np.array(labels, dtype=np.int64)
    return Domain(path.stem, samples, label_arr)
