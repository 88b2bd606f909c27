"""Memory guards on a large target: the 3,600-row, 8-column target of the
standard shift task at 600 samples per class, as the CLI loads and refreshes
it. tracemalloc counts every Python and numpy allocation, so a peak is the
same on every run of one numpy build."""

import tracemalloc
from dataclasses import replace

import pytest

from swda.datasets import generate, load_csv, save_csv, standard_shift_spec
from swda.network import NetworkConfig, init_params
from swda.repsets import update_strong_set
from swda.scaffolding import full_pass

MiB = 2**20


@pytest.fixture(scope="module")
def large_target(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "target1.csv"
    save_csv(generate(replace(standard_shift_spec(0), samples_per_class=600))[1], path)
    return path


def traced_peak(fn, *args) -> int:
    """Peak bytes traced during fn(*args), after one untraced warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refresh(params, target):
    """A training run's strong refresh: one full_pass over the target, then
    update_strong_set on its normalized features and probabilities."""
    features, probs = full_pass(params, target.samples)
    return update_strong_set(target.samples, features, probs, target.name), probs


def test_load_csv_parses_rows_straight_into_arrays(large_target):
    # per-row lists of Python floats peaked at 2.20 MiB; rows parsed into
    # preallocated arrays, each line dropped once parsed, at 1.30 MiB
    assert load_csv(large_target).n == 3600
    assert traced_peak(load_csv, large_target) <= 1.75 * MiB


def test_refresh_scratch_stays_bounded(large_target):
    # one forward over all rows (its tanh activations alone are 1.76 MiB)
    # peaked at 3.99 MiB, and row_norms' scratch alone at 2.53 MiB; the
    # blocked full_pass, blocked row_norms and one-buffer column_fsums take
    # 2.81 MiB
    target = load_csv(large_target)
    params = init_params(NetworkConfig(target.samples.shape[1], 6), 0)
    assert traced_peak(refresh, params, target) <= 3.65 * MiB

