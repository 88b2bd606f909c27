"""The committed reference runs (tests/reference/make.py) repeated in-process,
and a short run of the digest script (tests/reference/digests.py).

When this host's numpy and OpenBLAS build is the one that made the
reference, every kept output must match byte for byte and every digest
must match. Otherwise OpenBLAS may pick another kernel and differ in the
last bit, so the loss curves must agree within CURVE_TOL up to each run's
first strong refresh, after which a last-bit difference may flip a
discrete pick. Each test prints the mode it ran in.
"""

import json
import re

import numpy as np
import pytest

from reference import digests, make

# relative to max(1, |reference value|), per loss and iteration
CURVE_TOL = 1e-9


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return make.produce(tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def reference():
    return json.loads(make.REFERENCE.read_text())


def _curves(data: bytes) -> np.ndarray:
    return np.loadtxt(data.decode().splitlines(), delimiter=",", skiprows=1, ndmin=2)


def test_reference_outputs_match(fresh, reference):
    kept, digests, _ = fresh
    exact = make.blas_build() == reference["blas"]
    print(f"reference runs: {'exact' if exact else f'curve tolerance {CURVE_TOL:g}'} mode")
    committed = [p.relative_to(make.HERE).as_posix() for p in make.HERE.rglob("*") if p.name in make.KEPT]
    assert sorted(kept) == sorted(committed)
    assert sorted(digests) == sorted(reference["digests"])
    if exact:
        for rel, data in kept.items():
            assert data == (make.HERE / rel).read_bytes(), rel
        assert digests == reference["digests"]
        return
    for rel, data in kept.items():
        if rel.endswith("loss_curves.csv"):
            first_refresh = make.RUNS[rel.split("/")[0]][1]["strong_refresh_period"]
            new, old = _curves(data), _curves((make.HERE / rel).read_bytes())
            assert new.shape == old.shape, rel
            new, old = new[:first_refresh], old[:first_refresh]
            assert np.all(np.abs(new - old) <= CURVE_TOL * np.maximum(1.0, np.abs(old))), rel


def test_reference_call_counts_do_not_rise(fresh, reference):
    _, _, calls = fresh
    iterations = make.RUNS["single"][1]["max_iterations"]
    print("single-run calls per iteration: " + ", ".join(f"{n} {calls[n] / iterations:.3f}" for n in make.COUNTED))
    for name in make.COUNTED:
        assert calls[name] <= reference["calls"][name], name


def test_digests_script_prints_one_line_per_output_set(monkeypatch, capsys):
    # digests.py is the bit-for-bit check of a change meant to leave the
    # numbers alone; one seed at 30 iterations keeps it from rotting
    monkeypatch.setattr(digests, "SEEDS", [0])
    monkeypatch.setattr(digests, "ITERATIONS", 30)
    digests.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["single seed=0", "multi seed=0 jobs=1", "multi seed=0 jobs=2"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
    assert lines[1].split()[-1] == lines[2].split()[-1]  # outputs do not depend on jobs
