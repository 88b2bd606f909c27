import re

import numpy as np
import pytest

from swda.checkpoint import (
    HEADER,
    load_arrays,
    load_params,
    params_to_arrays,
    save_arrays,
    save_params,
)
from swda.errors import InvalidInputError, ParseError
from swda.network import NetworkConfig, init_params


def test_round_trip_is_bitwise_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.normal(size=(3, 4)) * 1e-300,  # subnormal territory
        "b": rng.normal(size=7) * 1e300,
        "c": np.array([0.1, -0.0, np.pi]),
        "counts": np.arange(-3, 3, dtype=np.int64),
    }
    path = tmp_path / "ck.txt"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.asarray(arrays[name]).dtype
        assert np.array_equal(loaded[name], arrays[name])
        # -0.0 must survive with its sign
    assert np.signbit(loaded["c"][1])


def test_save_load_save_idempotent(tmp_path):
    params = init_params(NetworkConfig(4, 3), seed=1)
    p1 = tmp_path / "one.txt"
    p2 = tmp_path / "two.txt"
    save_params(p1, params)
    save_params(p2, load_params(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_params_round_trip_exact(tmp_path):
    params = init_params(NetworkConfig(5, 4, generator_hidden_dims=(9, 7), tau=13.5), seed=2)
    path = tmp_path / "params.txt"
    save_params(path, params)
    back = load_params(path)
    assert np.array_equal(back.flat, params.flat)
    assert back.tau == 13.5
    assert len(back.generator) == 2


def test_zero_length_array(tmp_path):
    path = tmp_path / "empty.txt"
    save_arrays(path, {"nothing": np.zeros((0, 3))})
    assert load_arrays(path)["nothing"].shape == (0, 3)


def test_rejects_non_finite_and_bad_keys(tmp_path):
    with pytest.raises(InvalidInputError):
        save_arrays(tmp_path / "x.txt", {"a": np.array([np.inf])})
    with pytest.raises(InvalidInputError):
        save_arrays(tmp_path / "x.txt", {"bad key": np.zeros(1)})
    with pytest.raises(InvalidInputError):
        save_arrays(tmp_path / "x.txt", {"": np.zeros(1)})


def _write(path, text):
    path.write_text(text)
    return path


def test_parse_error_missing_header(tmp_path):
    p = _write(tmp_path / "b.txt", "not a checkpoint\n")
    with pytest.raises(ParseError) as err:
        load_arrays(p)
    assert err.value.line == 1


def test_parse_error_reports_line_numbers(tmp_path):
    cases = [
        (f"{HEADER}\nkey a f32 2\n0x1p+0 0x1p+0\n", 2),  # unknown kind
        (f"{HEADER}\nkey a f64 x\n", 2),  # non-integer dim
        (f"{HEADER}\n0x1p+0\n", 2),  # values before any key
        (f"{HEADER}\nkey a f64 2\n0x1p+0 zzz\n", 3),  # bad token
        (f"{HEADER}\nkey a f64 2\n0x1p+0 0x1p+0 0x1p+0\n", 3),  # too many values
        (f"{HEADER}\nkey a f64 2\n0x1p+0\n", 3),  # too few values at EOF
        (f"{HEADER}\nkey a f64 1\n0x1p+0\nkey a f64 1\n0x1p+0\n", 4),  # duplicate
        (f"{HEADER}\nkey a f64 2\n0x1p+0 nan\n", 3),  # nan, which save_arrays never writes
        (f"{HEADER}\nkey a f64 1\n\n-inf\n", 4),  # infinity after a blank line
        (f"{HEADER}\nkey a i64 2\n1 {2**63}\n", 3),  # beyond int64
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            load_arrays(_write(tmp_path / "case.txt", text))
        assert err.value.line == line, text


def test_too_few_values_detected_at_next_key(tmp_path):
    text = f"{HEADER}\nkey a f64 3\n0x1p+0 0x1p+0\nkey b f64 1\n0x1p+0\n"
    with pytest.raises(ParseError) as err:
        load_arrays(_write(tmp_path / "short.txt", text))
    assert "expected 3 values" in str(err.value)


def test_load_params_rejects_missing_key_and_bad_tau(tmp_path):
    params = init_params(NetworkConfig(3, 2), seed=0)
    arrays = params_to_arrays(params)
    del arrays["classifier"]
    p = tmp_path / "incomplete.txt"
    save_arrays(p, arrays)
    with pytest.raises(InvalidInputError):
        load_params(p)

    arrays = params_to_arrays(params)
    arrays["tau"] = np.array(-1.0)
    p2 = tmp_path / "badtau.txt"
    save_arrays(p2, arrays)
    with pytest.raises(InvalidInputError):
        load_params(p2)


def test_int_arrays_preserve_dtype(tmp_path):
    p = tmp_path / "ints.txt"
    save_arrays(p, {"tags": np.array([[1, 2], [3, 4]], dtype=np.int64)})
    loaded = load_arrays(p)["tags"]
    assert loaded.dtype == np.int64
    assert loaded.shape == (2, 2)


@pytest.mark.parametrize("token", ["10", "1.5", "1p+0", "-1.8p+0", "+0x1p+0", "0X1p+0"])
def test_f64_tokens_must_be_float_hex(tmp_path, token):
    # float.fromhex reads "10" as 16.0 and "1.5" as 1.3125: a hand-edited
    # decimal must not load as some other number
    with pytest.raises(ParseError, match=f"f64 token '{re.escape(token)}' is not in float.hex form") as err:
        load_arrays(_write(tmp_path / "case.txt", f"{HEADER}\nkey a f64 2\n0x1p+0 {token}\n"))
    assert err.value.line == 3


def test_unused_checkpoint_keys_rejected(tmp_path):
    # dropping the middle of a 2-layer generator leaves a 1-layer network
    # whose shapes chain; the stray key must not load silently
    params = init_params(NetworkConfig(3, 2, generator_hidden_dims=(5, 5)), seed=0)
    arrays = params_to_arrays(params)
    del arrays["generator.1.weight"], arrays["generator.1.bias"]
    arrays["extra"] = np.zeros(2)
    save_arrays(tmp_path / "edited.txt", arrays)
    with pytest.raises(InvalidInputError, match=r"checkpoint keys \['extra'\] are not part of a network with 1 generator layers"):
        load_params(tmp_path / "edited.txt")
    arrays = params_to_arrays(params)
    del arrays["generator.0.weight"]  # generator.0.bias and generator.1.* are then unused
    save_arrays(tmp_path / "gap.txt", arrays)
    with pytest.raises(InvalidInputError, match=r"\['generator.0.bias', 'generator.1.bias', 'generator.1.weight'\]"):
        load_params(tmp_path / "gap.txt")


def test_parse_errors_name_the_file_once(tmp_path):
    p = _write(tmp_path / "case.txt", f"{HEADER}\nkey a f64 1\nzz\n")
    with pytest.raises(ParseError) as err:
        load_arrays(p)
    assert str(err.value) == f"{p}: line 3: bad f64 token 'zz'"
    p.write_bytes(f"{HEADER}\n".encode() + b"\xff")
    with pytest.raises(ParseError) as err:
        load_arrays(p)
    assert str(err.value) == f"{p}: line 2: byte 0xff is not UTF-8 text" and err.value.line == 2
