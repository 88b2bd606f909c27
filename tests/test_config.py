"""Config validation, seed-stream independence and batch sampling."""

import dataclasses
import math

import numpy as np
import pytest

from swda.config import (
    STREAM_FUSION,
    STREAM_PEER,
    STREAM_SOURCE,
    STREAM_TARGET,
    BatchSampler,
    ExperimentConfig,
    derive_seed,
    stream_rng,
)
from swda.datasets import DomainTransform, SyntheticSpec
from swda.errors import InvalidInputError
from swda.losses import LossWeights
from swda.network import MAX_FLOAT64_ENTRIES, NetworkConfig


def small_config(**kw) -> ExperimentConfig:
    return ExperimentConfig(network=NetworkConfig(input_dim=4, num_classes=3), **kw)


def test_defaults_valid():
    cfg = small_config()
    assert cfg.batch_size == 48
    assert cfg.strong_refresh_period == 200
    assert cfg.eta0_head == 0.01
    assert cfg.eta0_generator == 0.001


@pytest.mark.parametrize(
    "kw",
    [
        {"batch_size": 0},
        {"max_iterations": 0},
        {"strong_refresh_period": 0},
        {"eta0_head": 0.0},
        {"eta0_generator": -1e-3},
        {"eta0_head": float("nan")},
        {"max_iterations": -1},
        {"eta0_generator": float("inf")},
        {"accuracy_eval_period": 0},
        {"seed": -1},
    ],
)
def test_invalid_config_rejected(kw):
    with pytest.raises(InvalidInputError):
        small_config(**kw)


@pytest.mark.parametrize(
    "make",
    [
        lambda: NetworkConfig(8, 6, tau=float("nan")),
        lambda: LossWeights(k1=float("nan")),
        lambda: small_config(max_iterations=2.5),
        lambda: small_config(batch_size=True),
        lambda: NetworkConfig(8, 6, generator_hidden_dims=(16.7,)),
        lambda: NetworkConfig(8, 6, generator_hidden_dims=("16",)),
        lambda: SyntheticSpec(samples_per_class=2.5),
        lambda: SyntheticSpec(seed=-1),
        lambda: DomainTransform(rotation_deg="x"),
        lambda: DomainTransform(translation=("a",)),
        lambda: SyntheticSpec(transforms=[]),
    ],
    ids=[
        "tau-nan",
        "k1-nan",
        "max_iterations-float",
        "batch_size-bool",
        "hidden-dims-float",
        "hidden-dims-str",
        "samples_per_class-float",
        "spec-seed-negative",
        "rotation-str",
        "translation-str",
        "spec-no-transforms",
    ],
)
def test_dataclass_field_of_wrong_type_or_range_rejected(make):
    # the dataclasses check their own values, so library callers get the
    # same rules as the CLI and nothing is silently coerced
    with pytest.raises(InvalidInputError):
        make()


BOUNDED_FIELDS = [
    (cls, f)
    for cls in (NetworkConfig, LossWeights, ExperimentConfig, DomainTransform, SyntheticSpec)
    for f in dataclasses.fields(cls)
    if "bound" in f.metadata
]


def with_field(cls, name, value):
    if cls is ExperimentConfig:
        return small_config(**{name: value})
    if cls is NetworkConfig:
        return NetworkConfig(**{"input_dim": 4, "num_classes": 3, name: value})
    return cls(**{name: value})


@pytest.mark.parametrize("cls, f", BOUNDED_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in BOUNDED_FIELDS])
def test_every_bounded_field_rejects_the_value_past_its_bound(cls, f):
    # found through dataclasses.fields, so a field given a bound later is
    # covered here too; the least value inside the bound is accepted
    low, strict = f.metadata["bound"]
    kind = {"int": int, "float": float}[f.type]
    past, inside = kind(low), kind(low)
    if strict:
        inside = low + 1 if kind is int else math.nextafter(low, math.inf)
    else:
        past = low - 1 if kind is int else math.nextafter(low, -math.inf)
    with pytest.raises(InvalidInputError) as err:
        with_field(cls, f.name, past)
    assert str(err.value) == f"{f.name} must be {'>' if strict else '>='} {low}, got {past}"
    assert getattr(with_field(cls, f.name, inside), f.name) == inside


def test_numpy_scalars_accepted():
    cfg = small_config(batch_size=np.int64(48), eta0_head=np.float64(0.1))
    assert cfg.batch_size == 48 and cfg.eta0_head == 0.1


def test_stream_rng_deterministic():
    a = stream_rng(7, STREAM_SOURCE).random(5)
    b = stream_rng(7, STREAM_SOURCE).random(5)
    assert np.array_equal(a, b)


def test_stream_rng_streams_differ():
    tags = [STREAM_SOURCE, STREAM_TARGET, STREAM_FUSION, STREAM_PEER]
    draws = [stream_rng(3, t).random(8) for t in tags]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_stream_rng_seed_sensitivity():
    a = stream_rng(0, STREAM_TARGET).random(8)
    b = stream_rng(1, STREAM_TARGET).random(8)
    assert not np.array_equal(a, b)


def test_derive_seed_deterministic_and_tag_sensitive():
    assert derive_seed(5, 10, 1) == derive_seed(5, 10, 1)
    seen = {derive_seed(5, t, s) for t in (10, 11, 12) for s in range(4)}
    assert len(seen) == 12


def test_derive_seed_differs_from_parent_streams():
    # nested sub-seeds must not replay a parent stream
    child = derive_seed(9, 12, 1)
    a = stream_rng(child, STREAM_SOURCE).random(6)
    b = stream_rng(9, STREAM_SOURCE).random(6)
    assert not np.array_equal(a, b)


def test_batch_sampler_epoch_covers_all():
    rng = np.random.default_rng(0)
    s = BatchSampler(12, 4, rng)
    seen = np.concatenate([s.next_batch() for _ in range(3)])
    assert sorted(seen.tolist()) == list(range(12))


def test_batch_sampler_drop_last():
    # 10 samples, batch 4: two full batches per epoch, remainder dropped
    rng = np.random.default_rng(1)
    s = BatchSampler(10, 4, rng)
    for _ in range(20):
        assert s.next_batch().shape == (4,)


def test_batch_sampler_reshuffles_between_epochs():
    rng = np.random.default_rng(2)
    s = BatchSampler(8, 4, rng)
    first_epoch = [tuple(s.next_batch()) for _ in range(2)]
    later = [tuple(s.next_batch()) for _ in range(40)]
    assert any(b not in first_epoch for b in later)


def test_batch_sampler_small_dataset_returns_everything():
    rng = np.random.default_rng(3)
    s = BatchSampler(3, 48, rng)
    for _ in range(5):
        batch = s.next_batch()
        assert sorted(batch.tolist()) == [0, 1, 2]


def test_batch_sampler_empty_raises():
    with pytest.raises(InvalidInputError):
        BatchSampler(0, 4, np.random.default_rng(0))


def test_batch_sampler_deterministic_given_rng_state():
    a = BatchSampler(20, 6, np.random.default_rng(11))
    b = BatchSampler(20, 6, np.random.default_rng(11))
    for _ in range(10):
        assert np.array_equal(a.next_batch(), b.next_batch())


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"generator_hidden_dims": (10**18,)}, "generator_hidden_dims"),
        ({"generator_hidden_dims": (16, 10**400)}, "generator_hidden_dims"),
        ({"bottleneck_dim": 10**18}, "bottleneck_dim"),
        ({"num_classes": 2**62}, "num_classes"),
    ],
)
def test_network_larger_than_any_float64_array_rejected(kwargs, field):
    # the parameter count is exact in Python ints, so the check allocates
    # nothing and a 400-digit width is no special case
    with pytest.raises(InvalidInputError, match=f"^{field} is too large"):
        NetworkConfig(**{"input_dim": 4, "num_classes": 3, **kwargs})


def test_network_at_the_float64_array_limit_accepted():
    # (4 + 1) * h + (h + 1) * 1 + 1 * 1 parameters: the largest h that fits
    h = (MAX_FLOAT64_ENTRIES - 2) // 6
    NetworkConfig(input_dim=4, num_classes=1, generator_hidden_dims=(h,), bottleneck_dim=1)
    with pytest.raises(InvalidInputError):
        NetworkConfig(input_dim=4, num_classes=1, generator_hidden_dims=(h + 1,), bottleneck_dim=1)
