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
from .mathutils import bounded, check_fields
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
    batch_size: int = bounded(48, low=1)
    max_iterations: int = bounded(1000, low=1)
    strong_refresh_period: int = bounded(200, low=1)
    eta0_head: float = bounded(0.01, low=0, strict=True)  # bottleneck + classifier
    eta0_generator: float = bounded(0.001, low=0, strict=True)
    seed: int = bounded(0, low=0)
    accuracy_eval_period: int = bounded(100, low=1)

    def __post_init__(self):
        check_fields(self)


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
