"""Config validation, seed-stream independence and batch sampling."""

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
from swda.errors import InvalidInputError
from swda.network import NetworkConfig


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
        {"source_iterations": -1},
        {"eta0_generator": float("inf")},
        {"accuracy_eval_period": 0},
        {"seed": -1},
    ],
)
def test_invalid_config_rejected(kw):
    with pytest.raises(InvalidInputError):
        small_config(**kw)


def test_source_iterations_zero_allowed():
    # zero means "skip pretraining", distinct from None (reuse max_iterations)
    cfg = small_config(source_iterations=0)
    assert cfg.source_iterations == 0


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
