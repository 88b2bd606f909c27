"""One sha256 line per trainer output set, to check that a change which
means to leave the numbers alone leaves them bit for bit:

    PYTHONPATH=src python tests/reference/digests.py > after.txt

Run it on both trees and diff the two files. It trains, in-process:

  single  ``train_single_target`` on ``standard_shift_spec(seed)``;
  multi   ``train_multi_target`` with ``jobs`` 1 and 2 on
          ``make_between_geometry(standard_between_spec(seed))``;

for every seed in SEEDS, ITERATIONS iterations each, with a strong refresh
every ITERATIONS // 5. A line's digest covers every array of
``params_to_arrays`` of each network, ``metrics_to_json`` of each run,
the distance graph and ``pseudo_to_arrays`` of every harvested pool.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from swda.checkpoint import params_to_arrays, pseudo_to_arrays  # noqa: E402
from swda.config import ExperimentConfig  # noqa: E402
from swda.datasets import generate, make_between_geometry, standard_between_spec, standard_shift_spec  # noqa: E402
from swda.network import NetworkConfig  # noqa: E402
from swda.pipeline import metrics_to_json, train_multi_target, train_single_target  # noqa: E402

SEEDS = range(5)
ITERATIONS = 1000


def _update(h, arrays: dict) -> None:
    for name, a in arrays.items():
        a = np.ascontiguousarray(a)
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())


def lines(seeds, iterations: int) -> list:
    """The digest lines of every output set, in print order."""
    out = []
    for seed in seeds:
        config = ExperimentConfig(
            network=NetworkConfig(8, 6),
            seed=seed,
            max_iterations=iterations,
            strong_refresh_period=max(1, iterations // 5),
        )
        h = hashlib.sha256()
        params, metrics, pseudo = train_single_target(config, *generate(standard_shift_spec(seed)))
        _update(h, params_to_arrays(params))
        h.update(metrics_to_json(metrics).encode())
        _update(h, pseudo_to_arrays(pseudo))
        out.append(f"single seed={seed} {h.hexdigest()}")
        source, *targets = make_between_geometry(standard_between_spec(seed))
        for jobs in (1, 2):
            h = hashlib.sha256()
            result = train_multi_target(config, source, targets, jobs=jobs)
            for params, metrics in result.per_target:
                _update(h, params_to_arrays(params))
                h.update(metrics_to_json(metrics).encode())
            _update(h, {"graph.tensor": result.graph.tensor, "graph.valid": result.graph.valid})
            _update(h, params_to_arrays(result.source_params))
            for slot in sorted(result.pseudo_sets):
                h.update(f"slot {slot}\n".encode())
                _update(h, pseudo_to_arrays(result.pseudo_sets[slot]))
            out.append(f"multi seed={seed} jobs={jobs} {h.hexdigest()}")
    return out


def main() -> None:
    for line in lines(SEEDS, ITERATIONS):
        print(line, flush=True)


if __name__ == "__main__":
    main()
