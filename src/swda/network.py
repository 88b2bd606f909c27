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
from .mathutils import Array, as_float_array, check_fields, softmax_of_finite

MOMENTUM = 0.9  # sgd_step's velocity decay
MAX_FLOAT64_ENTRIES = np.iinfo(np.intp).max // 8  # the longest float64 array numpy can make


@dataclass
class NetworkConfig:
    input_dim: int
    num_classes: int
    generator_hidden_dims: tuple[int, ...] = (64,)
    bottleneck_dim: int = 32
    tau: float = 20.0

    def __post_init__(self):
        check_fields(self)
        self.generator_hidden_dims = tuple(self.generator_hidden_dims)
        dims = (self.input_dim, self.num_classes, self.bottleneck_dim, *self.generator_hidden_dims)
        if any(d < 1 for d in dims):
            raise InvalidInputError("all network dimensions must be >= 1")
        # numpy caps an array at intp-max bytes; counted in Python ints, which
        # do not overflow, so no width reaches numpy's own size errors
        widths = (self.input_dim, *self.generator_hidden_dims, self.bottleneck_dim)
        count = sum((a + 1) * b for a, b in zip(widths, widths[1:])) + self.bottleneck_dim * self.num_classes
        if count > MAX_FLOAT64_ENTRIES:
            widest = min(dims.index(max(dims)), 3)
            name = ("input_dim", "num_classes", "bottleneck_dim", "generator_hidden_dims")[widest]
            raise InvalidInputError(
                f"{name} is too large: the network would have more than the "
                f"{MAX_FLOAT64_ENTRIES} parameters a float64 array can hold"
            )
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


def add_trees(a: ParamTree, b: ParamTree) -> ParamTree:
    """Add ``b`` into ``a`` in place and return ``a``."""
    a.flat += b.flat
    return a


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
    scale: Array  # (n,) tau / feature_norms, the factor each raw row was scaled by
    norm_features: Array  # (n, d), every row has norm tau
    logits: Array  # (n, k)
    probs: Array  # (n, k)


def forward(params: NetworkParams, inputs) -> ForwardResult:
    """Full forward pass, caching every intermediate needed by backward()."""
    x = as_float_array(inputs, ndim=2)
    in_dim = params.generator[0].weight.shape[1] if params.generator else params.bottleneck.weight.shape[1]
    if x.shape[1] != in_dim:
        raise InvalidInputError(f"inputs have {x.shape[1]} columns, network expects {in_dim}")

    hidden = []
    act = x
    for layer in params.generator:
        act = act @ layer.weight.T
        act += layer.bias
        hidden.append(np.tanh(act, out=act))
    raw = act @ params.bottleneck.weight.T
    raw += params.bottleneck.bias
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1))  # np.linalg.norm's formula, minus its dispatch
    if (norms == 0.0).any():
        raise DegenerateInputError("a bottleneck feature row has zero norm; cannot scale to tau")
    scale = params.tau / norms
    norm_features = raw * scale[:, None]
    logits = norm_features @ params.classifier.T
    if not np.isfinite(logits).all():
        raise DegenerateInputError("non-finite logits: the inputs are not finite, or the parameters have diverged")
    return ForwardResult(x, hidden, raw, norms, scale, norm_features, logits, softmax_of_finite(logits))


def _logit_grad(g, fwd: ForwardResult, what: str) -> Array:
    g = as_float_array(g)
    if g.shape != fwd.logits.shape:
        raise InvalidInputError(f"{what} shape {g.shape} does not match logits {fwd.logits.shape}")
    return g


def backward(
    params: NetworkParams,
    fwd: ForwardResult,
    loss_grad_wrt_logits,
    feature_grad_wrt_logits=None,
    reverse_below_classifier: bool = False,
    out: ParamTree | None = None,
) -> ParamTree:
    """Exact chain-rule gradients for every parameter.

    Two logit gradients drive the pass: ``loss_grad_wrt_logits`` (g_cls)
    reaches the classifier, and ``feature_grad_wrt_logits`` (g_feat) flows
    from the classifier into the bottleneck and generator; g_feat defaults
    to g_cls, which is plain backprop of one loss. Gradient reversal is
    linear, so one pass serves a sum of losses where some reach the
    feature path reversed: g_cls sums them all, g_feat flips the reversed
    ones. ``reverse_below_classifier`` is the one-loss case g_feat = -g_cls.

    The gradients go into ``out``, a tree with this layout whose every leaf
    is overwritten, and which is returned; without it a fresh tree is made.
    """
    g_cls = _logit_grad(loss_grad_wrt_logits, fwd, "loss gradient")
    if reverse_below_classifier:
        if feature_grad_wrt_logits is not None:
            raise InvalidInputError("pass a feature gradient or reverse_below_classifier, not both")
        g_feat = -g_cls
    elif feature_grad_wrt_logits is None:
        g_feat = g_cls
    else:
        g_feat = _logit_grad(feature_grad_wrt_logits, fwd, "feature gradient")
    if out is None:
        out = params.with_flat(np.empty_like(params.flat))
    elif out.shapes != params.shapes:
        raise InvalidInputError(f"gradient tree has leaf shapes {out.shapes}, parameters have {params.shapes}")

    np.matmul(g_cls.T, fwd.norm_features, out=out.classifier)
    d_v = g_feat @ params.classifier

    # norm-scaling backward: v = tau * u / |u| with u the raw feature row
    raw, norms = fwd.raw_features, fwd.feature_norms
    row_dot = np.add.reduce(d_v * raw, axis=1)
    d_raw = (row_dot / norms**2)[:, None] * raw
    np.subtract(d_v, d_raw, out=d_raw)
    d_raw *= fwd.scale[:, None]

    gen_input = fwd.hidden[-1] if params.generator else fwd.inputs
    np.matmul(d_raw.T, gen_input, out=out.bottleneck.weight)
    np.add.reduce(d_raw, axis=0, out=out.bottleneck.bias)
    d_act = d_raw @ params.bottleneck.weight

    for i in reversed(range(len(params.generator))):
        d_z = fwd.hidden[i] ** 2
        np.subtract(1.0, d_z, out=d_z)
        d_z *= d_act
        below = fwd.hidden[i - 1] if i > 0 else fwd.inputs
        np.matmul(d_z.T, below, out=out.generator[i].weight)
        np.add.reduce(d_z, axis=0, out=out.generator[i].bias)
        if i > 0:  # the input gradient of the first layer has no use
            d_act = d_z @ params.generator[i].weight
    return out


def sgd_step(params: NetworkParams, grads: ParamTree, velocity: Array, lr: float, generator_lr: float) -> None:
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
    velocity *= MOMENTUM
    velocity += grads.flat
    params.flat[:g] -= generator_lr * velocity[:g]
    params.flat[g:] -= lr * velocity[g:]


def lr_schedule(q: float, eta0: float) -> float:
    """DANN's annealed rate eta0 / (1 + 10q)^0.75 over training progress q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"training progress q={q} outside [0, 1]")
    return eta0 / (1.0 + 10.0 * q) ** 0.75
