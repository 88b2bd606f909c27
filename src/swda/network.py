"""Baseline classification network with hand-derived backprop.

Architecture: tanh MLP generator -> linear bottleneck -> constant-norm
feature scaling (each feature row rescaled to norm tau) -> bias-free
prototype classifier whose logits are inner products between the scaled
feature and each class prototype row.

Also provides the momentum-SGD optimizer, which keeps its state in one
flat velocity buffer, and the inverse-power learning-rate decay used by
every trainer, plus an optional gradient sign reversal between the
classifier and the rest of the network so a single loss can be minimized
by the classifier while the feature path ascends it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .mathutils import Array, as_float_array, softmax

MOMENTUM = 0.9  # sgd_step's velocity decay


@dataclass
class NetworkConfig:
    input_dim: int
    num_classes: int
    generator_hidden_dims: tuple[int, ...] = (64,)
    bottleneck_dim: int = 32
    tau: float = 20.0

    def __post_init__(self):
        self.generator_hidden_dims = tuple(int(h) for h in self.generator_hidden_dims)
        dims = (self.input_dim, self.num_classes, self.bottleneck_dim, *self.generator_hidden_dims)
        if any(d < 1 for d in dims):
            raise InvalidInputError("all network dimensions must be >= 1")
        if self.tau <= 0.0:
            raise InvalidInputError("tau must be positive")


@dataclass
class Linear:
    weight: Array  # (out, in)
    bias: Array  # (out,)


class ParamTree:
    """Parameter container; also reused for gradients.

    Every learnable leaf is a reshaped view into one contiguous float64
    vector ``flat``, in the order generator[0].weight, generator[0].bias,
    ..., bottleneck.weight, bottleneck.bias, classifier; the generator block
    is therefore a prefix of ``flat``. The constructor packs the given
    leaves once, checking that the layer shapes chain into each other.

    tau rides along with the parameters so forward() needs no extra
    argument; it is not a learnable leaf and has no place in ``flat``.
    """

    def __init__(self, generator: list[Linear], bottleneck: Linear, classifier, tau: float = 20.0):
        layers = [*generator, bottleneck]
        leaves = [as_float_array(a) for layer in layers for a in (layer.weight, layer.bias)]
        leaves.append(as_float_array(classifier))
        shapes = tuple(leaf.shape for leaf in leaves)
        _check_chain(shapes)
        self._bind(np.concatenate([leaf.ravel() for leaf in leaves]), shapes, tau)

    def _bind(self, flat: Array, shapes: tuple, tau: float) -> None:
        self.flat, self.shapes, self.tau = flat, shapes, tau
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        *gen, weight, bias, self.classifier = views
        self.generator = [Linear(w, b) for w, b in zip(gen[::2], gen[1::2])]
        self.bottleneck = Linear(weight, bias)
        self.generator_size = sum(v.size for v in gen)

    # pickling and deepcopy ship flat plus the layout and rebuild the views,
    # so unpickled leaves still alias the unpickled flat
    def __getstate__(self):
        return self.flat, self.shapes, self.tau

    def __setstate__(self, state) -> None:
        self._bind(*state)

    def with_flat(self, vec) -> "ParamTree":
        """A tree with this layout and tau whose leaves are views into ``vec``."""
        vec = np.ascontiguousarray(as_float_array(vec, ndim=1))
        if vec.size != self.flat.size:
            raise InvalidInputError(f"flat vector has {vec.size} entries, tree needs {self.flat.size}")
        out = ParamTree.__new__(ParamTree)
        out._bind(vec, self.shapes, self.tau)
        return out

    def copy(self) -> "ParamTree":
        return self.with_flat(self.flat.copy())


def _check_chain(shapes: tuple) -> None:
    """Reject leaf shapes that do not chain: each weight is (out, in) with
    ``in`` the previous layer's ``out``, each bias is (out,), and the
    classifier is (num_classes, bottleneck out)."""
    names = [f"generator.{i}" for i in range(len(shapes) // 2 - 1)] + ["bottleneck"]
    fan_in = None
    for i, name in enumerate(names):
        w, b = shapes[2 * i], shapes[2 * i + 1]
        if len(w) != 2:
            raise InvalidInputError(f"{name}.weight has shape {w}, expected 2 dimensions")
        if fan_in is not None and w[1] != fan_in:
            raise InvalidInputError(f"{name}.weight has shape {w}, expected (out, {fan_in})")
        if b != w[:1]:
            raise InvalidInputError(f"{name}.bias has shape {b}, expected {w[:1]}")
        fan_in = w[0]
    if len(shapes[-1]) != 2 or shapes[-1][1] != fan_in:
        raise InvalidInputError(f"classifier has shape {shapes[-1]}, expected (num_classes, {fan_in})")


NetworkParams = ParamTree
Gradients = ParamTree


def add_trees(a: ParamTree, b: ParamTree) -> ParamTree:
    return a.with_flat(a.flat + b.flat)


def init_params(config: NetworkConfig, seed: int) -> NetworkParams:
    """Symmetric uniform init with bound sqrt(3)/sqrt(fan_in); biases start at zero."""
    rng = np.random.default_rng(seed)

    def uniform(out_dim: int, in_dim: int) -> Array:
        bound = np.sqrt(3.0) / np.sqrt(in_dim)
        return rng.uniform(-bound, bound, size=(out_dim, in_dim))

    gen = []
    fan_in = config.input_dim
    for hidden in config.generator_hidden_dims:
        gen.append(Linear(uniform(hidden, fan_in), np.zeros(hidden)))
        fan_in = hidden
    bottleneck = Linear(uniform(config.bottleneck_dim, fan_in), np.zeros(config.bottleneck_dim))
    classifier = uniform(config.num_classes, config.bottleneck_dim)
    return ParamTree(gen, bottleneck, classifier, config.tau)


@dataclass
class ForwardResult:
    inputs: Array  # (n, input_dim)
    hidden: list[Array]  # tanh outputs of each generator layer
    raw_features: Array  # (n, d) bottleneck output before norm scaling
    feature_norms: Array  # (n,)
    norm_features: Array  # (n, d), every row has norm tau
    logits: Array  # (n, k)
    probs: Array  # (n, k)


def forward(params: NetworkParams, inputs) -> ForwardResult:
    """Full forward pass, caching every intermediate needed by backward()."""
    x = as_float_array(inputs)
    if x.ndim == 1:
        x = x[None, :]
    in_dim = params.generator[0].weight.shape[1] if params.generator else params.bottleneck.weight.shape[1]
    if x.shape[1] != in_dim:
        raise InvalidInputError(f"inputs have {x.shape[1]} columns, network expects {in_dim}")

    hidden = []
    act = x
    for layer in params.generator:
        act = np.tanh(act @ layer.weight.T + layer.bias)
        hidden.append(act)
    raw = act @ params.bottleneck.weight.T + params.bottleneck.bias
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInputError("a bottleneck feature row has zero norm; cannot scale to tau")
    norm_features = raw * (params.tau / norms)[:, None]
    logits = norm_features @ params.classifier.T
    if not np.all(np.isfinite(logits)):
        raise DegenerateInputError("non-finite logits: the inputs are not finite, or the parameters have diverged")
    probs = softmax(logits)
    return ForwardResult(x, hidden, raw, norms, norm_features, logits, probs)


def backward(
    params: NetworkParams,
    fwd: ForwardResult,
    loss_grad_wrt_logits,
    reverse_below_classifier: bool = False,
) -> Gradients:
    """Exact chain-rule gradients for every parameter.

    With ``reverse_below_classifier`` set, the gradient flowing from the
    classifier into the bottleneck and generator is multiplied by -1; the
    classifier's own gradient is untouched.
    """
    g_logits = as_float_array(loss_grad_wrt_logits)
    if g_logits.shape != fwd.logits.shape:
        raise InvalidInputError(
            f"loss gradient shape {g_logits.shape} does not match logits {fwd.logits.shape}"
        )
    tau = params.tau
    grads = params.with_flat(np.empty_like(params.flat))

    grads.classifier[...] = g_logits.T @ fwd.norm_features
    d_v = g_logits @ params.classifier
    if reverse_below_classifier:
        d_v = -d_v

    # norm-scaling backward: v = tau * u / |u| with u the raw feature row
    raw, norms = fwd.raw_features, fwd.feature_norms
    row_dot = np.sum(d_v * raw, axis=1)
    d_raw = (tau / norms)[:, None] * (d_v - (row_dot / norms**2)[:, None] * raw)

    gen_input = fwd.hidden[-1] if params.generator else fwd.inputs
    grads.bottleneck.weight[...] = d_raw.T @ gen_input
    grads.bottleneck.bias[...] = d_raw.sum(axis=0)
    d_act = d_raw @ params.bottleneck.weight

    for i in reversed(range(len(params.generator))):
        d_z = d_act * (1.0 - fwd.hidden[i] ** 2)
        below = fwd.hidden[i - 1] if i > 0 else fwd.inputs
        grads.generator[i].weight[...] = d_z.T @ below
        grads.generator[i].bias[...] = d_z.sum(axis=0)
        d_act = d_z @ params.generator[i].weight
    return grads


def sgd_step(params: NetworkParams, grads: Gradients, velocity: Array, lr: float, generator_lr: float) -> None:
    """In-place momentum update: velocity <- MOMENTUM*velocity + grad;
    param <- param - step*velocity.

    ``velocity`` holds one entry per entry of ``params.flat``, zeros before
    the first step. The generator prefix of ``flat`` steps by
    ``generator_lr`` so the feature extractor can train slower than the
    bottleneck and classifier, which step by ``lr``.
    """
    if min(lr, generator_lr) <= 0.0:
        raise InvalidInputError("learning rate must be positive")
    g = params.generator_size
    for part, step in ((slice(None, g), generator_lr), (slice(g, None), lr)):
        buf = velocity[part]
        buf *= MOMENTUM
        buf += grads.flat[part]
        params.flat[part] -= step * buf


def lr_schedule(q: float, eta0: float) -> float:
    """DANN's annealed rate eta0 / (1 + 10q)^0.75 over training progress q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"training progress q={q} outside [0, 1]")
    return eta0 / (1.0 + 10.0 * q) ** 0.75
