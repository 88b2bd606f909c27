import copy
import pickle

import numpy as np
import pytest

from swda.errors import DegenerateInputError, InvalidInputError
from swda.losses import cross_entropy
from swda.mathutils import finite_diff_gradient
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


def test_forward_zero_feature_row_raises():
    params = init_params(SMALL, 0)
    for layer in params.generator:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    params.bottleneck.weight[...] = 0.0
    params.bottleneck.bias[...] = 0.0
    with pytest.raises(DegenerateInputError):
        forward(params, np.ones((2, 4)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [np.inf, 1e308])
def test_forward_non_finite_logits_raise(scale):
    # an infinite classifier, or a finite one whose logits overflow, is a
    # diverged network: a numerical failure, not bad caller input
    params = init_params(SMALL, 0)
    params.classifier[...] *= scale
    with pytest.raises(DegenerateInputError, match="non-finite logits"):
        forward(params, np.ones((2, 4)))


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
