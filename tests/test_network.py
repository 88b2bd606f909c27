import copy
import pickle

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swda.errors import DegenerateInputError, InvalidInputError
from swda.losses import cross_entropy
from swda.mathutils import finite_diff_gradient, softmax, softmax_of_finite
from swda.network import (
    Linear,
    NetworkConfig,
    ParamTree,
    backward,
    forward,
    init_params,
    lr_schedule,
    sgd_step,
)

SMALL = NetworkConfig(input_dim=4, generator_hidden_dims=(8,), bottleneck_dim=6, num_classes=3)


def grad_check(analytic, numeric, rel_tol=1e-4, abs_floor=1e-7):
    """Relative tolerance with an absolute floor for tiny entries."""
    close = np.abs(analytic - numeric) <= np.maximum(rel_tol * np.abs(numeric), abs_floor)
    return bool(np.all(close))


def test_init_deterministic_and_seed_sensitive():
    a = init_params(SMALL, 7)
    b = init_params(SMALL, 7)
    c = init_params(SMALL, 8)
    assert np.array_equal(a.flat, b.flat)
    assert not np.array_equal(a.flat, c.flat)


def test_init_bound_scales_with_fan_in():
    cfg = NetworkConfig(input_dim=100, generator_hidden_dims=(), bottleneck_dim=3, num_classes=2)
    params = init_params(cfg, 0)
    bound = 0.1 * np.sqrt(3.0)
    assert np.all(np.abs(params.bottleneck.weight) <= bound)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        NetworkConfig(input_dim=0, num_classes=3)
    with pytest.raises(InvalidInputError):
        NetworkConfig(input_dim=4, num_classes=3, tau=0.0)


def test_forward_invariants():
    params = init_params(SMALL, 0)
    x = np.random.default_rng(0).normal(size=(10, 4))
    fwd = forward(params, x)
    assert np.allclose(fwd.probs.sum(axis=1), 1.0, atol=1e-9)
    norms = np.sqrt((fwd.norm_features**2).sum(axis=1))
    assert np.allclose(norms, SMALL.tau, atol=1e-9)
    # logits are inner products with the prototype rows
    assert np.allclose(fwd.logits, fwd.norm_features @ params.classifier.T, atol=1e-12)
    # Cauchy-Schwarz bound per class
    w_norms = np.sqrt((params.classifier**2).sum(axis=1))
    assert np.all(np.abs(fwd.logits) <= SMALL.tau * w_norms[None, :] + 1e-9)


def test_forward_classifier_row_scaling():
    params = init_params(SMALL, 1)
    x = np.random.default_rng(1).normal(size=(5, 4))
    base = forward(params, x).logits
    scaled = params.copy()
    scaled.classifier[2] *= 3.0
    out = forward(scaled, x).logits
    assert np.allclose(out[:, 2], 3.0 * base[:, 2], atol=1e-12)
    assert np.allclose(out[:, :2], base[:, :2], atol=1e-12)


def test_forward_hand_computed_tiny_net():
    # one tanh unit, then 2-d bottleneck, 2 prototypes; every number checked
    # against a manual evaluation of the architecture's defining equations
    params = ParamTree(
        generator=[Linear(np.array([[2.0]]), np.array([0.5]))],
        bottleneck=Linear(np.array([[1.0], [-1.0]]), np.array([0.25, 0.75])),
        classifier=np.array([[1.0, 0.0], [0.0, 1.0]]),
        tau=2.0,
    )
    x = np.array([[0.3]])
    h = np.tanh(2.0 * 0.3 + 0.5)
    u = np.array([h + 0.25, -h + 0.75])
    v = 2.0 * u / np.sqrt((u**2).sum())
    fwd = forward(params, x)
    assert np.allclose(fwd.hidden[0], [[h]], atol=1e-15)
    assert np.allclose(fwd.norm_features, v[None, :], atol=1e-14)
    assert np.allclose(fwd.logits, v[None, :], atol=1e-14)  # identity prototypes


def test_forward_rejects_wrong_width():
    params = init_params(SMALL, 0)
    with pytest.raises(InvalidInputError):
        forward(params, np.zeros((3, 5)))


@pytest.mark.parametrize("shape", [(4,), (1, 1, 4)], ids=["1-d", "3-d"])
def test_forward_rejects_inputs_that_are_not_2d(shape):
    # one sample is a (1, d) row too; a bare 1-d vector is a bad shape
    params = init_params(SMALL, 0)
    with pytest.raises(InvalidInputError, match="expected a 2-d array"):
        forward(params, np.ones(shape))


def test_forward_zero_feature_row_raises():
    params = init_params(SMALL, 0)
    for layer in params.generator:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    params.bottleneck.weight[...] = 0.0
    params.bottleneck.bias[...] = 0.0
    with pytest.raises(DegenerateInputError, match="^a bottleneck feature row has zero norm; cannot scale to tau$"):
        forward(params, np.ones((2, 4)))


NON_FINITE = "^" + re.escape("non-finite logits: the inputs are not finite, or the parameters have diverged") + "$"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [np.inf, 1e308])
def test_forward_non_finite_logits_raise(scale):
    # an infinite classifier, or a finite one whose logits overflow, is a
    # diverged network: a numerical failure, not bad caller input
    params = init_params(SMALL, 0)
    params.classifier[...] *= scale
    with pytest.raises(DegenerateInputError, match=NON_FINITE):
        forward(params, np.ones((2, 4)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x", [np.nan, np.inf])
def test_forward_non_finite_inputs_raise_as_non_finite_logits(x):
    # a nan feature norm is not zero, so the logits check is what stops it
    params = init_params(SMALL, 0)
    with pytest.raises(DegenerateInputError, match=NON_FINITE):
        forward(params, np.full((2, 4), x))


def former_softmax(z):
    """softmax_of_finite as it was: each row's max from np.maximum.reduce."""
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(1, 60), st.integers(1, 8)),
    values=st.sampled_from(["normal", "ties", "700"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_softmax_gathered_max_equals_the_max_reduction(shape, values, seed):
    # the row max is gathered at the argmax; a max is exact, so the
    # probabilities keep their bits, ties and logits near +-700 included
    rng = np.random.default_rng(seed)
    if values == "normal":
        z = rng.normal(size=shape) * 10.0
    elif values == "ties":
        z = rng.integers(-2, 3, size=shape) * 0.5
    else:
        z = rng.choice([-700.0, -699.5, -0.0, 0.0, 699.25, 700.0], size=shape)
    assert softmax_of_finite(z).tobytes() == former_softmax(z).tobytes()
    # softmax of any shape and memory order takes the same rule over the last axis
    for arr in (z[0], z.reshape(1, *shape), z.T):
        assert softmax(arr).tobytes() == former_softmax(arr).tobytes()


@pytest.mark.parametrize("tau", [20.0, 700.0])
def test_forward_probabilities_equal_the_max_reduction_softmax(tau):
    # tau 700 puts logits near +-700; two equal classifier rows tie exactly
    params = init_params(replace(SMALL, tau=tau), 3)
    params.classifier[2] = params.classifier[0]
    fwd = forward(params, np.random.default_rng(4).normal(size=(54, 4)))
    assert np.abs(fwd.logits).max() > 0.5 * tau
    assert np.array_equal(fwd.logits[:, 0], fwd.logits[:, 2])
    assert fwd.probs.tobytes() == former_softmax(fwd.logits).tobytes()


def test_backward_matches_finite_differences_cross_entropy():
    # moderate tau keeps the softmax away from saturation so central
    # differences stay well conditioned; backward() is tau-generic code
    cfg = NetworkConfig(input_dim=4, generator_hidden_dims=(8,), bottleneck_dim=6, num_classes=3, tau=2.0)
    rng = np.random.default_rng(42)
    for seed in range(5):
        params = init_params(cfg, seed)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)

        def loss_at(flat):
            p = params.with_flat(flat)
            return cross_entropy(forward(p, x).probs, y).value

        fwd = forward(params, x)
        grads = backward(params, fwd, cross_entropy(fwd.probs, y).grad_wrt_logits)
        numeric = finite_diff_gradient(loss_at, params.flat)
        assert grad_check(grads.flat, numeric), f"seed {seed}"


def test_backward_shape_mismatch():
    params = init_params(SMALL, 0)
    fwd = forward(params, np.ones((2, 4)))
    with pytest.raises(InvalidInputError):
        backward(params, fwd, np.zeros((2, 5)))


def test_backward_zero_grad_gives_zero_tree():
    params = init_params(SMALL, 0)
    fwd = forward(params, np.ones((3, 4)))
    grads = backward(params, fwd, np.zeros_like(fwd.logits))
    assert np.all(grads.flat == 0.0)


def test_gradient_reversal_flips_only_lower_tree():
    params = init_params(SMALL, 3)
    x = np.random.default_rng(3).normal(size=(5, 4))
    fwd = forward(params, x)
    g = np.random.default_rng(4).normal(size=fwd.logits.shape)
    plain = backward(params, fwd, g)
    reversed_ = backward(params, fwd, g, reverse_below_classifier=True)
    assert np.array_equal(reversed_.classifier, plain.classifier)
    for a, b in zip(plain.generator, reversed_.generator):
        assert np.array_equal(b.weight, -a.weight)
        assert np.array_equal(b.bias, -a.bias)
    assert np.array_equal(reversed_.bottleneck.weight, -plain.bottleneck.weight)
    assert np.array_equal(reversed_.bottleneck.bias, -plain.bottleneck.bias)


def test_backward_two_logit_gradients_sum_the_separate_passes():
    # one pass with g_cls = a + b and g_feat = a - b is backprop of a plus
    # backprop of b through gradient reversal
    params = init_params(SMALL, 5)
    rng = np.random.default_rng(5)
    fwd = forward(params, rng.normal(size=(7, 4)))
    a, b = rng.normal(size=fwd.logits.shape), rng.normal(size=fwd.logits.shape)
    folded = backward(params, fwd, a + b, a - b)
    reversed_b = backward(params, fwd, b, reverse_below_classifier=True)
    separate = backward(params, fwd, a).flat + reversed_b.flat
    assert np.allclose(folded.flat, separate, rtol=1e-12, atol=1e-14)
    assert np.array_equal(backward(params, fwd, a, a).flat, backward(params, fwd, a).flat)
    flipped = backward(params, fwd, a, reverse_below_classifier=True)
    assert np.array_equal(backward(params, fwd, a, -a).flat, flipped.flat)


def test_backward_overwrites_the_given_tree():
    params = init_params(SMALL, 6)
    fwd = forward(params, np.random.default_rng(6).normal(size=(5, 4)))
    g = np.random.default_rng(7).normal(size=fwd.logits.shape)
    out = params.with_flat(np.full_like(params.flat, np.nan))
    assert backward(params, fwd, g, out=out) is out
    assert np.array_equal(out.flat, backward(params, fwd, g).flat)


def test_backward_rejects_bad_feature_gradient_or_tree():
    params = init_params(SMALL, 0)
    fwd = forward(params, np.ones((2, 4)))
    g = np.zeros_like(fwd.logits)
    with pytest.raises(InvalidInputError, match="not both"):
        backward(params, fwd, g, g, reverse_below_classifier=True)
    with pytest.raises(InvalidInputError, match="feature gradient shape"):
        backward(params, fwd, g, np.zeros((2, 5)))
    other = init_params(NetworkConfig(input_dim=4, generator_hidden_dims=(8,), bottleneck_dim=5, num_classes=3), 0)
    with pytest.raises(InvalidInputError, match="gradient tree"):
        backward(params, fwd, g, out=other)


def test_sgd_zero_grad_no_change():
    params = init_params(SMALL, 0)
    before = params.flat.copy()
    sgd_step(params, params.with_flat(np.zeros_like(params.flat)), np.zeros_like(params.flat), 0.1, 0.1)
    assert np.array_equal(params.flat, before)


def _scalar_tree(value: float) -> ParamTree:
    return ParamTree([], Linear(np.array([[value]]), np.zeros(1)), np.zeros((1, 1)), tau=1.0)


def test_sgd_single_step_and_momentum_unroll():
    params = _scalar_tree(1.0)
    grads = _scalar_tree(0.0)
    grads.bottleneck.weight[...] = 1.0
    velocity = np.zeros_like(params.flat)
    sgd_step(params, grads, velocity, 0.1, 0.1)
    assert abs(params.bottleneck.weight[0, 0] - 0.9) < 1e-15
    # second identical step: buffer 0.9*1 + 1 = 1.9, total decrease 0.29
    sgd_step(params, grads, velocity, 0.1, 0.1)
    assert abs(params.bottleneck.weight[0, 0] - 0.71) < 1e-15


def test_sgd_generator_lr_split():
    cfg = NetworkConfig(input_dim=2, generator_hidden_dims=(2,), bottleneck_dim=2, num_classes=2)
    params = init_params(cfg, 0)
    grads = params.with_flat(np.ones_like(params.flat))
    before_gen = params.generator[0].weight.copy()
    before_cls = params.classifier.copy()
    sgd_step(params, grads, np.zeros_like(params.flat), 0.1, 0.01)
    assert np.allclose(before_gen - params.generator[0].weight, 0.01, atol=1e-15)
    assert np.allclose(before_cls - params.classifier, 0.1, atol=1e-15)


def test_sgd_rejects_bad_lr():
    params = init_params(SMALL, 0)
    zeros = params.with_flat(np.zeros_like(params.flat))
    for lr, generator_lr in ((0.0, 0.1), (0.1, -0.1)):
        with pytest.raises(InvalidInputError):
            sgd_step(params, zeros, np.zeros_like(params.flat), lr, generator_lr)


def test_lr_schedule_values():
    assert lr_schedule(0.0, 0.01) == 0.01
    assert abs(lr_schedule(1.0, 0.01) - 0.0016556002607617017) < 1e-18
    qs = np.linspace(0, 1, 20)
    vals = [lr_schedule(q, 0.01) for q in qs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lr_schedule_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        lr_schedule(-0.1, 0.01)
    with pytest.raises(InvalidInputError):
        lr_schedule(1.1, 0.01)


def layer_arrays(params: ParamTree) -> list:
    """Every learnable array in layer order, the generator first."""
    arrays = [a for layer in (*params.generator, params.bottleneck) for a in (layer.weight, layer.bias)]
    return arrays + [params.classifier]


def test_flatten_unflatten_round_trip():
    params = init_params(SMALL, 5)
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in layer_arrays(params)]))
    assert params.generator_size == SMALL.input_dim * 8 + 8
    back = params.with_flat(params.flat.copy())
    assert np.array_equal(back.flat, params.flat)
    assert back.tau == params.tau
    with pytest.raises(InvalidInputError):
        params.with_flat(params.flat[:-1])


def assert_views_alias_flat(params: ParamTree) -> None:
    """Every leaf is a view into params.flat: a write to flat shows in it."""
    leaves = layer_arrays(params)
    for leaf in leaves:
        assert np.shares_memory(leaf, params.flat)
    params.flat[...] = 7.0
    assert all(np.all(leaf == 7.0) for leaf in leaves)


@pytest.mark.parametrize(
    "duplicate",
    [ParamTree.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_duplicates_keep_views_aliasing_flat(duplicate):
    params = init_params(SMALL, 6)
    before = params.flat.copy()
    dup = duplicate(params)
    assert np.array_equal(dup.flat, before)
    assert dup.tau == params.tau
    assert not np.shares_memory(dup.flat, params.flat)
    assert_views_alias_flat(dup)
    assert np.array_equal(params.flat, before)
    assert_views_alias_flat(params)


def test_rejects_leaf_shapes_that_do_not_chain():
    def tree(**shapes):
        dims = {"gw": (3, 2), "gb": (3,), "bw": (4, 3), "bb": (4,), "c": (5, 4), **shapes}
        return ParamTree(
            [Linear(np.zeros(dims["gw"]), np.zeros(dims["gb"]))],
            Linear(np.zeros(dims["bw"]), np.zeros(dims["bb"])),
            np.zeros(dims["c"]),
        )

    assert tree().flat.size == 6 + 3 + 12 + 4 + 20
    for bad in ({"gw": (6,)}, {"gb": (2,)}, {"bw": (4, 2)}, {"bb": (3,)}, {"c": (5, 3)}, {"c": (20,)}):
        with pytest.raises(InvalidInputError):
            tree(**bad)
