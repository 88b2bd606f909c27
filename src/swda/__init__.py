"""Strong-weak semi-supervised domain adaptation on desk-scale synthetic data.

A labeled source domain plus one or more unlabeled targets; adaptation
combines supervised source training with information maximization, an
adversarial logit loss routed through gradient reversal, and
strong-weak fused pseudo-supervision. Multi-target runs additionally
scaffold each target with peers proven (by a class-wise centroid
distance graph) to lie between it and the source.
"""

import os
import sys

# Load OpenBLAS with no worker thread to busy-wait through a run (see
# mathutils.serial_blas); a count the user set wins, and no child inherits ours.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .config import ExperimentConfig
from .datasets import (
    Domain,
    DomainTransform,
    SyntheticSpec,
    generate,
    load_csv,
    make_between_geometry,
    save_csv,
    standard_between_spec,
    standard_shift_spec,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    EmptyClassError,
    InvalidDatasetError,
    InvalidInputError,
    NotInitializedError,
    ParseError,
    SwdaError,
)
from .losses import LossWeights
from .network import NetworkConfig, NetworkParams, forward, init_params
from .pipeline import (
    MultiTargetResult,
    RunMetrics,
    evaluate,
    part3_seed,
    train_multi_target,
    train_single_target,
)
from .scaffolding import (
    DistanceGraph,
    build_distance_graph,
    centroids_for_domains,
    peer_qualifies,
    train_source_only,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateInputError",
    "DistanceGraph",
    "Domain",
    "DomainTransform",
    "EmptyClassError",
    "ExperimentConfig",
    "InvalidDatasetError",
    "InvalidInputError",
    "LossWeights",
    "MultiTargetResult",
    "NetworkConfig",
    "NetworkParams",
    "NotInitializedError",
    "ParseError",
    "RunMetrics",
    "SwdaError",
    "SyntheticSpec",
    "build_distance_graph",
    "centroids_for_domains",
    "evaluate",
    "forward",
    "generate",
    "init_params",
    "load_csv",
    "make_between_geometry",
    "part3_seed",
    "peer_qualifies",
    "save_csv",
    "standard_between_spec",
    "standard_shift_spec",
    "train_multi_target",
    "train_single_target",
    "train_source_only",
]
