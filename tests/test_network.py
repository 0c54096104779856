"""Forward/backward correctness against hand arithmetic and finite differences."""

import pickle

import numpy as np
import pytest

from neuralign.network import (
    Dataset,
    DenseLayer,
    InputGradientKernel,
    Network,
    ShapeError,
    TrainConfig,
    TrainingDivergenceError,
    UnknownLayerError,
    accuracy,
    cross_entropy,
    forward,
    init_network,
    networks_equal,
    prune_variant,
    train,
)
from neuralign.data import make_blobs
from neuralign.triggers import layer_outputs


def relu_net():
    """Two layers with small hand-checkable weights."""
    l0 = DenseLayer(
        "dense0",
        np.array([[1.0, -2.0], [0.0, 3.0]], dtype=np.float32),
        np.array([0.5, -1.0], dtype=np.float32),
        "relu",
    )
    l1 = DenseLayer(
        "dense1",
        np.array([[1.0, 1.0], [-1.0, 2.0]], dtype=np.float32),
        np.array([0.0, 0.25], dtype=np.float32),
        "softmax",
    )
    return Network([l0, l1])


def test_forward_matches_hand_arithmetic():
    net = relu_net()
    x = np.array([[2.0, 1.0]])
    # z0 = [2 - 2 + 0.5, 3 - 1] = [0.5, 2.0]; relu keeps both
    np.testing.assert_allclose(layer_outputs(net, "dense0", x), [[0.5], [2.0]], atol=1e-7)
    logits = np.array([0.5 + 2.0, -0.5 + 4.0 + 0.25])
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    np.testing.assert_allclose(forward(net, x)[0], probs, atol=1e-7)


def test_forward_relu_clips_negative_preactivations():
    net = relu_net()
    # z0 = [-2 + 0.5, -1] -> relu -> [0, 0]
    np.testing.assert_allclose(layer_outputs(net, "dense0", np.array([[-2.0, 0.0]])),
                               [[0.0], [0.0]], atol=1e-7)


def test_softmax_rows_normalize():
    net = init_network(5, [7, 4], seed=3)
    out = forward(net, np.random.default_rng(0).normal(size=(11, 5)))
    np.testing.assert_allclose(out.sum(axis=1), np.ones(11), atol=1e-9)
    assert (out >= 0).all()


def test_cross_entropy_matches_log_probability():
    net = relu_net()
    x = np.array([[2.0, 1.0]])
    probs = forward(net, x)[0]
    data = Dataset(x, np.array([1]))
    assert cross_entropy(net, data) == pytest.approx(-np.log(probs[1]), rel=1e-9)


def test_accuracy_counts_argmax_hits():
    net = relu_net()
    x = np.array([[2.0, 1.0], [2.0, 1.0]])
    probs = forward(net, x)
    winner = int(probs[0].argmax())
    data = Dataset(x, np.array([winner, 1 - winner]))
    assert accuracy(net, data) == pytest.approx(0.5)


def test_init_network_is_seeded_and_shaped():
    a = init_network(6, [10, 3], seed=42)
    b = init_network(6, [10, 3], seed=42)
    c = init_network(6, [10, 3], seed=43)
    assert networks_equal(a, b)
    assert not networks_equal(a, c)
    assert [l.name for l in a.layers] == ["dense0", "dense1"]
    assert a.layers[0].activation == "relu"
    assert a.layers[-1].activation == "softmax"
    assert a.layers[0].weights.shape == (10, 6)
    assert a.input_dim == 6 and a.output_dim == 3


def test_clone_is_independent():
    net = relu_net()
    twin = net.clone()
    twin.layers[0].weights[0, 0] = 99.0
    assert net.layers[0].weights[0, 0] == 1.0


def test_unknown_layer_raises():
    with pytest.raises(UnknownLayerError):
        relu_net().layer("dense9")


def test_layer_shape_validation():
    with pytest.raises(ShapeError):
        DenseLayer("bad", np.zeros((2, 3), dtype=np.float32),
                   np.zeros(3, dtype=np.float32), "relu")
    with pytest.raises(ShapeError):
        Network([
            DenseLayer("a", np.zeros((2, 3), dtype=np.float32),
                       np.zeros(2, dtype=np.float32), "relu"),
            DenseLayer("b", np.zeros((2, 4), dtype=np.float32),
                       np.zeros(2, dtype=np.float32), "softmax"),
        ])


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, -1, 0]))


def test_training_fits_separable_blobs():
    data = make_blobs(300, 6, 3, spread=0.2, seed=5)
    net = init_network(6, [16, 3], seed=5)
    snapshot = net.clone()
    before = cross_entropy(net, data)
    fitted = train(net, data, TrainConfig(epochs=20, lr=0.1, seed=5))
    assert cross_entropy(fitted, data) < before
    assert accuracy(fitted, data) > 0.95
    # the input network is never mutated: train fine-tunes a copy
    assert networks_equal(net, snapshot)


def test_training_is_deterministic():
    data = make_blobs(200, 4, 2, seed=1)
    net = init_network(4, [8, 2], seed=1)
    a = train(net, data, TrainConfig(epochs=3, lr=0.05, seed=9))
    b = train(net, data, TrainConfig(epochs=3, lr=0.05, seed=9))
    assert networks_equal(a, b)


def test_training_zero_epochs_returns_copy():
    data = make_blobs(50, 4, 2, seed=2)
    net = init_network(4, [8, 2], seed=2)
    out = train(net, data, TrainConfig(epochs=0, lr=0.1))
    assert networks_equal(net, out)
    assert out is not net


def test_training_reports_divergence():
    data = make_blobs(50, 4, 2, seed=2)
    net = init_network(4, [8, 2], seed=2)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError):
        train(net, data, TrainConfig(epochs=3, lr=1e30))


def test_training_divergence_error_survives_pickling():
    err = pickle.loads(pickle.dumps(TrainingDivergenceError(7)))
    assert type(err) is TrainingDivergenceError
    assert err.epoch == 7 and str(err) == "non-finite training loss in epoch 7"


def test_layers_reject_non_finite_parameters():
    with pytest.raises(ValueError):
        DenseLayer("bad", np.array([[np.nan, 0.0]], dtype=np.float32),
                   np.zeros(1, dtype=np.float32), "relu")


def central_difference(nets, x, targets, layer_name, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        _, lu = InputGradientKernel(nets, targets[None, :], layer_name)(up[None, :])
        _, ld = InputGradientKernel(nets, targets[None, :], layer_name)(down[None, :])
        grad[i] = (lu[0] - ld[0]) / (2 * h)
    return grad


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_input_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    net = init_network(5, [9, 6, 3], seed=seed)
    targets = rng.normal(size=6)
    x = rng.normal(size=5)
    analytic, _ = InputGradientKernel([net], targets[None, :], "dense1")(x[None, :])
    numeric = central_difference([net], x, targets, "dense1")
    np.testing.assert_allclose(analytic[0], numeric, rtol=1e-3, atol=1e-6)


def test_ensemble_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    nets = [init_network(4, [8, 5, 2], seed=s) for s in (10, 11, 12)]
    targets = rng.normal(size=5)
    x = rng.normal(size=4)
    analytic, _ = InputGradientKernel(nets, targets[None, :], "dense1")(x[None, :])
    numeric = central_difference(nets, x, targets, "dense1")
    np.testing.assert_allclose(analytic[0], numeric, rtol=1e-3, atol=1e-6)


def test_batched_gradient_equals_rowwise_calls():
    rng = np.random.default_rng(4)
    net = init_network(5, [7, 4, 2], seed=21)
    targets = rng.normal(size=(6, 4))
    x = rng.normal(size=(6, 5))
    g_batch, l_batch = InputGradientKernel([net], targets, "dense1")(x)
    for b in range(6):
        g_row, l_row = InputGradientKernel([net], targets[b : b + 1], "dense1")(x[b : b + 1])
        np.testing.assert_allclose(g_batch[b], g_row[0], atol=1e-12)
        assert l_batch[b] == pytest.approx(l_row[0], abs=1e-12)


def test_gradient_shape_errors():
    net = init_network(4, [6, 2], seed=0)
    with pytest.raises(ShapeError):
        InputGradientKernel([net], np.zeros((2, 6)), "dense0")(np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        InputGradientKernel([net], np.zeros((2, 5)), "dense0")(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        InputGradientKernel([], np.zeros((2, 6)), "dense0")(np.zeros((2, 4)))
    # one target row is not broadcast over five input rows
    with pytest.raises(ShapeError):
        InputGradientKernel([net], np.zeros((1, 6)), "dense0")(np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        InputGradientKernel([net], np.zeros((1, 6)), "dense0")(np.zeros(4))
    with pytest.raises(ShapeError):
        InputGradientKernel([net], np.zeros(6), "dense0")(np.zeros((1, 4)))
    with pytest.raises(ShapeError):
        InputGradientKernel([net], np.zeros((1, 6)), "dense0")(np.zeros((1, 1, 4)))
    kernel = InputGradientKernel([net], np.zeros((3, 6)), "dense0")
    with pytest.raises(ShapeError):
        kernel(np.zeros((2, 4)))


def allocating_gradient(nets, x, targets, layer_name):
    """The gradient as a plain loop that allocates every temporary and casts
    the weights on every call: the reference the kernel must match bit for bit
    when nothing folds, and to float64 rounding when pruned copies fold."""
    total_grad = np.zeros_like(x)
    total_loss = np.zeros(x.shape[0])
    for net in nets:
        li = net.layer_index(layer_name)
        sub = net.layers[: li + 1]
        a, posts = x, []
        for layer in sub:
            z = a @ layer.weights.astype(np.float64).T + layer.biases.astype(np.float64)
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
            posts.append(a)
        masks = [(p > 0.0).astype(np.float64) if l.activation == "relu" else np.ones_like(p)
                 for p, l in zip(posts, sub)]
        resid = posts[-1] - targets
        total_loss += (resid**2).sum(axis=1)
        delta = 2.0 * resid * masks[li]
        for i in range(li, 0, -1):
            delta = (delta @ sub[i].weights.astype(np.float64)) * masks[i - 1]
        total_grad += delta @ sub[0].weights.astype(np.float64)
    return total_grad, total_loss


def kernel_ensemble():
    data = make_blobs(120, 6, 3, seed=5)
    net = train(init_network(6, [12, 8, 3], seed=5), data, TrainConfig(epochs=3, lr=0.1, seed=5))
    targets = np.random.default_rng(5).uniform(0.0, 2.0, size=(9, 8))
    return net, data, targets


def test_kernel_is_bit_identical_to_allocating_loop():
    net, data, targets = kernel_ensemble()
    tuned = train(net, data, TrainConfig(epochs=1, lr=0.01, seed=6))
    head = net.layers[0]
    linear = Network([DenseLayer("dense0", head.weights, head.biases, "identity"),
                      *net.clone().layers[1:]])  # same weights, other activation
    shifted = net.clone()
    shifted.layers[0].biases[0] += 0.125  # dense0 differs only in one bias
    nets = [net, tuned, linear, shifted]
    kernel = InputGradientKernel(nets, targets, "dense1")
    assert len(kernel.members) == 4  # nothing folds
    assert len({id(m.space) for m in kernel.members}) == 1  # one shape, one workspace
    rng = np.random.default_rng(6)
    for _ in range(2):  # a second call must not read state left by the first
        x = rng.uniform(-3.0, 3.0, size=(9, 6))
        grad, loss = kernel(x)
        ref_grad, ref_loss = allocating_gradient(nets, x, targets, "dense1")
        assert np.array_equal(grad, ref_grad) and np.array_equal(loss, ref_loss)
    grad, loss = InputGradientKernel(nets, targets, "dense1")(x)
    assert np.array_equal(grad, ref_grad) and np.array_equal(loss, ref_loss)


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_kernel_folds_pruned_copies_into_the_first_network(activation):
    net, data, targets = kernel_ensemble()
    net.layers[1].activation = activation  # the named layer
    tuned = train(net, data, TrainConfig(epochs=1, lr=0.01, seed=6))
    pruned = prune_variant(net, "dense1", 0.25)  # zeroes 2 of 8 neurons
    pruned_more = prune_variant(net, "dense1", 0.5)
    twin = prune_variant(net, "dense1", 0.0)  # a plain copy: keeps every neuron
    nets = [net, pruned, tuned, twin, pruned_more]
    kernel = InputGradientKernel(nets, targets, "dense1")
    assert len(kernel.members) == 2
    first = kernel.members[0]
    assert first.count == 4
    # net and its twin keep every neuron: weight 2 before the pruned copies
    zeroed = [~p.layers[1].weights.any(axis=1) for p in (pruned, pruned_more)]
    np.testing.assert_array_equal(first.keep, 4 - zeroed[0] - zeroed[1])
    rng = np.random.default_rng(6)
    for _ in range(2):  # a second call must not read state left by the first
        x = rng.uniform(-3.0, 3.0, size=(9, 6))
        grad, loss = kernel(x)
        # folding sums the same terms in another order: equal to float64 rounding
        ref_grad, ref_loss = allocating_gradient(nets, x, targets, "dense1")
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)


def zero_bias_set(net, zero, kept):
    net.layers[1].biases[zero] = 0.5


def negate_zero_row(net, zero, kept):
    net.layers[1].weights[zero] = -0.0


def shift_kept_weight(net, zero, kept):
    net.layers[1].weights[kept, 0] += 0.25


def shift_kept_bias(net, zero, kept):
    net.layers[1].biases[kept] += 0.25


def shift_dense0(net, zero, kept):
    net.layers[0].weights[0, 0] += 0.25


@pytest.mark.parametrize(
    "spoil",
    [zero_bias_set, negate_zero_row, shift_kept_weight, shift_kept_bias, shift_dense0],
)
def test_kernel_does_not_fold_other_networks(spoil):
    """A zeroed row with a nonzero bias or -0.0 weights, a changed weight or
    bias in a kept row, or a changed earlier layer: the copy is a member of
    its own."""
    net, _, targets = kernel_ensemble()
    copy = prune_variant(net, "dense1", 0.25)
    live = copy.layers[1].weights.any(axis=1)
    spoil(copy, int(np.flatnonzero(~live)[0]), int(np.flatnonzero(live)[0]))
    nets = [net, copy]
    kernel = InputGradientKernel(nets, targets, "dense1")
    assert len(kernel.members) == 2 and kernel.members[0].count == 1
    x = np.random.default_rng(6).uniform(-3.0, 3.0, size=(9, 6))
    grad, loss = kernel(x)
    ref_grad, ref_loss = allocating_gradient(nets, x, targets, "dense1")
    assert np.array_equal(grad, ref_grad) and np.array_equal(loss, ref_loss)


def test_prune_variant_zeroes_smallest_rows():
    net = init_network(6, [10, 4], seed=13)
    pruned = prune_variant(net, "dense0", 0.25)
    rows = np.abs(pruned.layers[0].weights).sum(axis=1)
    dead = np.flatnonzero(rows == 0)
    assert len(dead) == 2  # floor(0.25 * 10)
    norms = np.abs(net.layers[0].weights.astype(np.float64)).sum(axis=1)
    expected = np.argsort(norms, kind="stable")[:2]
    np.testing.assert_array_equal(np.sort(dead), np.sort(expected))
    np.testing.assert_array_equal(pruned.layers[0].biases[dead], 0.0)


def test_prune_variant_zero_fraction_is_identity():
    net = init_network(4, [6, 2], seed=3)
    assert networks_equal(net, prune_variant(net, "dense0", 0.0))
    with pytest.raises(ValueError):
        prune_variant(net, "dense0", 1.0)
