"""Experiment configuration and the deterministic RNG/batching plumbing
shared by the source-only and adaptation trainers.

Every stochastic choice in a run draws from its own named stream derived
from (seed, stream tag), so enabling or disabling one mechanism (e.g.
peer replacement) never shifts the draws of another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .losses import LossWeights
from .mathutils import check_fields
from .network import NetworkConfig

# stream tags
STREAM_SOURCE = 1  # source batch order
STREAM_TARGET = 2  # target batch order
STREAM_FUSION = 3  # strong-weak blend coefficients
STREAM_PEER = 4  # peer replacement choices


def stream_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def derive_seed(seed: int, *tags: int) -> int:
    """Collision-resistant integer sub-seed for nested runs."""
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1)[0])


@dataclass
class ExperimentConfig:
    network: NetworkConfig
    weights: LossWeights = field(default_factory=LossWeights)
    batch_size: int = 48
    max_iterations: int = 1000
    strong_refresh_period: int = 200
    eta0_head: float = 0.01  # bottleneck + classifier
    eta0_generator: float = 0.001
    seed: int = 0
    source_iterations: int | None = None  # None: reuse max_iterations
    accuracy_eval_period: int = 100

    def __post_init__(self):
        check_fields(self)
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if self.strong_refresh_period < 1:
            raise InvalidInputError("strong_refresh_period must be >= 1")
        if min(self.eta0_head, self.eta0_generator) <= 0.0:
            raise InvalidInputError("learning rates must be positive")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.source_iterations is not None and self.source_iterations < 0:
            raise InvalidInputError("source_iterations must be >= 0")
        if self.accuracy_eval_period < 1:
            raise InvalidInputError("accuracy_eval_period must be >= 1")


class BatchSampler:
    """Shuffled epoch cycling with constant batch size (drop-last); datasets
    smaller than the batch yield the whole shuffled dataset each call."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise InvalidInputError("cannot sample batches from an empty dataset")
        self.n = n
        self.batch_size = batch_size
        self.rng = rng
        self._perm = rng.permutation(n)
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        if self.batch_size >= self.n:
            self._perm = self.rng.permutation(self.n)
            return self._perm.copy()
        if self._pos + self.batch_size > self.n:
            self._perm = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._perm[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return idx.copy()
