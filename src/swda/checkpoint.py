"""Self-describing text checkpoints.

Format: a header line, then repeated blocks of

    key <name> <kind> <dim0> <dim1> ...
    <whitespace-separated values>

where kind is f64 or i64. Floats are written with float.hex so a
save/load round trip reproduces every 64-bit value exactly. The format
stores named flat arrays. Every key layout lives here: helpers map
NetworkParams to and from it, and the pseudo strong pools to it.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import names_its_file, read_utf8
from .errors import InvalidInputError, ParseError
from .network import Linear, NetworkParams, ParamTree

HEADER = "swda-checkpoint 1"
_VALUES_PER_LINE = 6


def save_arrays(path, arrays: dict) -> None:
    """Write named arrays (float64 or int64) to ``path``."""
    lines = [HEADER]
    for name, arr in arrays.items():
        a = np.asarray(arr)
        if any(ch.isspace() for ch in name) or not name:
            raise InvalidInputError(f"bad checkpoint key {name!r}")
        if np.issubdtype(a.dtype, np.integer):
            kind, tokens = "i64", [str(int(v)) for v in a.ravel()]
        else:
            a = a.astype(np.float64)
            if not np.all(np.isfinite(a)):
                raise InvalidInputError(f"non-finite values under key {name!r}")
            kind, tokens = "f64", [float(v).hex() for v in a.ravel()]
        lines.append(f"key {name} {kind} " + " ".join(str(d) for d in a.shape))
        for i in range(0, len(tokens), _VALUES_PER_LINE):
            lines.append(" ".join(tokens[i : i + _VALUES_PER_LINE]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@names_its_file
def load_arrays(path) -> dict:
    """Read a checkpoint back into {name: ndarray}; raises ParseError on damage."""
    raw_lines = read_utf8(path).splitlines()
    if not raw_lines or raw_lines[0].strip() != HEADER:
        raise ParseError(f"missing checkpoint header {HEADER!r}", line=1)

    arrays: dict = {}
    current = None  # (name, kind, shape, tokens_needed, values)
    line_no = 1

    def finish(block):
        name, kind, shape, needed, values = block
        if len(values) != needed:
            raise ParseError(f"key {name!r} expected {needed} values, found {len(values)}", line=line_no)
        dtype = np.int64 if kind == "i64" else np.float64
        try:
            arrays[name] = np.array(values, dtype=dtype).reshape(shape)
        except ValueError:  # no values, but a dimension too large for numpy
            raise ParseError(f"key {name!r} has shape {shape}, too large for an array", line=line_no)

    for line_no, line in enumerate(raw_lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] == "key":
            if current is not None:
                finish(current)
            if len(parts) < 3 or parts[2] not in ("f64", "i64"):
                raise ParseError(f"malformed key line {stripped!r}", line=line_no)
            name, kind = parts[1], parts[2]
            try:
                shape = tuple(int(d) for d in parts[3:])
            except ValueError:
                raise ParseError(f"non-integer dimension in {stripped!r}", line=line_no)
            if any(d < 0 for d in shape):
                raise ParseError(f"negative dimension in {stripped!r}", line=line_no)
            if name in arrays:
                raise ParseError(f"duplicate key {name!r}", line=line_no)
            current = (name, kind, shape, math.prod(shape), [])
        else:
            if current is None:
                raise ParseError(f"values before any key line: {stripped!r}", line=line_no)
            _, kind, _, needed, values = current
            for tok in parts:
                try:
                    value = int(tok) if kind == "i64" else float.fromhex(tok)
                except (ValueError, OverflowError):  # fromhex overflows on a huge exponent
                    raise ParseError(f"bad {kind} token {tok!r}", line=line_no)
                # save_arrays writes only finite float64 and int64 values; a
                # damaged token is bad input here, not a numerical error later
                if not (math.isfinite(value) if kind == "f64" else -(2**63) <= value < 2**63):
                    raise ParseError(f"{kind} token {tok!r} is not a finite 64-bit value", line=line_no)
                if kind == "f64" and not tok.startswith(("0x", "-0x")):  # fromhex reads 10 as 16.0
                    raise ParseError(f"f64 token {tok!r} is not in float.hex form", line=line_no)
                values.append(value)
            if len(values) > needed:
                raise ParseError(f"too many values for key {current[0]!r}", line=line_no)
    if current is not None:
        finish(current)
    return arrays


def params_to_arrays(params: NetworkParams) -> dict:
    out = {}
    for i, layer in enumerate(params.generator):
        out[f"generator.{i}.weight"] = layer.weight
        out[f"generator.{i}.bias"] = layer.bias
    out["bottleneck.weight"] = params.bottleneck.weight
    out["bottleneck.bias"] = params.bottleneck.bias
    out["classifier"] = params.classifier
    out["tau"] = np.array(params.tau)
    return out


def pseudo_to_arrays(pools: list) -> dict:
    """harvest_pseudo_strong's per-class row matrices under pseudo.<class>,
    an empty one under none, and their count under pseudo.k."""
    out = {"pseudo.k": np.array(len(pools), dtype=np.int64)}
    out.update((f"pseudo.{j}", pool) for j, pool in enumerate(pools) if len(pool))
    return out


def arrays_to_params(arrays: dict) -> NetworkParams:
    """Pack checkpoint arrays into NetworkParams; a missing or unused key, a
    bad tau, or layer shapes that do not chain or have a zero dimension
    raise InvalidInputError."""
    try:
        n_layers = 0
        while f"generator.{n_layers}.weight" in arrays:
            n_layers += 1
        gen = [
            Linear(arrays[f"generator.{i}.weight"], arrays[f"generator.{i}.bias"])
            for i in range(n_layers)
        ]
        bottleneck = Linear(arrays["bottleneck.weight"], arrays["bottleneck.bias"])
        tau = np.asarray(arrays["tau"])
        if tau.ndim != 0:
            raise InvalidInputError(f"checkpoint tau must be a scalar, got shape {tau.shape}")
        tau = float(tau)
        if not math.isfinite(tau) or tau <= 0.0:
            raise InvalidInputError(f"checkpoint tau={tau} must be positive")
        params = ParamTree(gen, bottleneck, arrays["classifier"], tau)
    except KeyError as exc:
        raise InvalidInputError(f"checkpoint is missing key {exc.args[0]!r}")
    if unused := sorted(set(arrays) - set(params_to_arrays(params))):
        raise InvalidInputError(f"checkpoint keys {unused} are not part of a network with {n_layers} generator layers")
    return params


def save_params(path, params: NetworkParams) -> None:
    save_arrays(path, params_to_arrays(params))


def load_params(path) -> NetworkParams:
    return arrays_to_params(load_arrays(path))
