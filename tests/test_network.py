"""Forward/backward correctness against hand arithmetic and finite differences."""

import dataclasses
import pickle

import numpy as np
import pytest

from neuralign import watermark
from neuralign.network import (
    Dataset,
    DenseLayer,
    InputGradientKernel,
    Network,
    ShapeError,
    TrainConfig,
    TrainingDivergenceError,
    UnknownLayerError,
    _softmax_cross_entropy,
    accuracy,
    forward,
    init_network,
    prune_variant,
    train,
    train_copies,
)
from neuralign.data import make_blobs
from neuralign.triggers import layer_outputs
from neuralign.watermark import embed, make_record
from conftest import networks_equal


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


def mean_nll(net, data):
    """Mean -log p of each sample's label, read from `forward`."""
    probs = forward(net, data.inputs)
    return float(-np.log(probs[np.arange(len(data)), data.labels]).mean())


def test_cross_entropy_matches_log_probability():
    net = relu_net()
    x = np.array([[2.0, 1.0]])
    logits = np.array([0.5 + 2.0, -0.5 + 4.0 + 0.25])  # as in the hand forward above
    want = -(logits[1] - logits.max() - np.log(np.exp(logits - logits.max()).sum()))
    data = Dataset(x, np.array([1]))
    assert mean_nll(net, data) == pytest.approx(want, rel=1e-9)
    # the loss training descends is the same -log p
    at = np.arange(len(x)) * net.output_dim + data.labels  # flat index of each label
    loss, _ = _softmax_cross_entropy(forward(net, x), at)
    assert loss == pytest.approx(want, rel=1e-9)


def test_networks_hold_one_form():
    """relu on every hidden layer and softmax on the last, nothing else."""
    def layer(name, activation, shape=(2, 2)):
        return DenseLayer(name, np.ones(shape, dtype=np.float32),
                          np.zeros(shape[0], dtype=np.float32), activation)

    Network([layer("dense0", "relu"), layer("dense1", "softmax")])
    for activations in (["relu", "relu"], ["softmax", "softmax"], ["identity", "softmax"],
                        ["relu", "identity"], ["relu"]):
        with pytest.raises(ValueError, match="hidden layers are relu"):
            Network([layer(f"dense{i}", a) for i, a in enumerate(activations)])


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


def test_networks_equal_tells_signed_zeros_apart():
    """The test helper compares bits: a -0.0 where the other network has
    +0.0, in a weight or a bias, makes the networks differ."""
    net = init_network(6, [10, 3], seed=42)
    for name in ("weights", "biases"):
        signed = net.clone()
        getattr(signed.layers[0], name).flat[0] = 0.0
        other = signed.clone()
        getattr(other.layers[0], name).flat[0] = -0.0
        assert networks_equal(signed, signed.clone())
        assert not networks_equal(signed, other)


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
    before = mean_nll(net, data)
    fitted = train(net, data, TrainConfig(epochs=20, lr=0.1, seed=5))
    assert mean_nll(fitted, data) < before
    assert accuracy(fitted, data) > 0.95
    # the input network is never mutated: train fine-tunes a copy
    assert networks_equal(net, snapshot)


def test_training_is_deterministic():
    data = make_blobs(200, 4, 2, seed=1)
    net = init_network(4, [8, 2], seed=1)
    a = train(net, data, TrainConfig(epochs=3, lr=0.05, seed=9))
    b = train(net, data, TrainConfig(epochs=3, lr=0.05, seed=9))
    assert networks_equal(a, b)


def generic_sgd_step(net, x, y, hp, extra_loss=None):
    """The SGD step as it was written for any activation: float64 masks cast
    from the relu comparison, and the cross-entropy that takes softmax itself
    when the last layer is not softmax. The reference `train` must equal."""
    def activate(z, activation):
        if activation == "relu":
            return np.maximum(z, 0.0, out=z)
        if activation == "softmax":
            shifted = z - z.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=1, keepdims=True)
        return z

    def mask(post, activation):
        return (post > 0.0).astype(np.float64) if activation == "relu" else np.ones_like(post)

    a, posts = np.asarray(x, dtype=np.float64), []
    for layer in net.layers:
        z = a @ layer.weights.astype(np.float64).T
        z += layer.biases
        a = activate(z, layer.activation)
        posts.append(a)
    last, n = net.layers[-1].activation, len(y)
    probs = posts[-1] if last == "softmax" else activate(posts[-1], "softmax")
    loss = -np.log(probs[np.arange(n), y] + 1e-12).mean()
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    if last == "relu":
        delta *= mask(posts[-1], "relu")
    extra_grads = {}
    if extra_loss is not None:
        extra, extra_grads = extra_loss(net)
        loss += extra
    acts = [np.asarray(x, dtype=np.float64)] + posts[:-1]
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        w64 = layer.weights.astype(np.float64)
        dw = delta.T @ acts[i]
        if layer.name in extra_grads:
            dw += np.asarray(extra_grads[layer.name], dtype=np.float64)
        db = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ w64) * mask(posts[i - 1], net.layers[i - 1].activation)
        layer.weights = (w64 - hp.lr * dw).astype(np.float32)
        layer.biases = (layer.biases.astype(np.float64) - hp.lr * db).astype(np.float32)
    return float(loss)


def reference_train(net, data, hp, extra_loss=None):
    """`train` as a plain loop over `generic_sgd_step`, drawing the same
    seeded permutation each epoch."""
    out = net.clone()
    rng = np.random.default_rng(hp.seed)
    n = len(data)
    batch_size = min(hp.batch_size, n)
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            generic_sgd_step(out, data.inputs[idx], data.labels[idx], hp, extra_loss)
    return out


def l2_on_dense1(model):
    w = model.layer("dense1").weights.astype(np.float64)
    return 0.01 * float(np.square(w).sum()), {"dense1": 0.02 * w}


def embed_sign_penalty(net, data):
    """The sign penalty `embed` trains with, taken from its first round."""
    class Taken(Exception):
        pass

    seen = []

    def first_round(model, d, hp, extra_loss):
        seen.append(extra_loss)
        raise Taken

    with pytest.MonkeyPatch.context() as mp, pytest.raises(Taken):
        mp.setattr(watermark, "train", first_round)
        embed(net, make_record(net, "dense1", bits=16, seed=8), data,
              TrainConfig(epochs=1, lr=0.05), strength=2.0, max_rounds=1)
    return seen[0]


TRAIN_CASES = {  # widths, samples, batch size, extra loss
    "plain": ([12, 8, 3], 120, 16, None),
    "extra-loss": ([12, 8, 3], 120, 16, l2_on_dense1),
    "sign-penalty": ([12, 8, 3], 120, 16, embed_sign_penalty),
    "one-batch": ([12, 8, 3], 120, 500, None),
    # 113 % 16 = 1 row in each epoch's last batch
    "one-row-tail": ([12, 8, 3], 113, 16, None),
    # 2000 % 32 = 16 rows in each epoch's last batch
    "default-widths": ([128, 32, 16, 4], 2000, 32, None),
}


@pytest.mark.parametrize("case", TRAIN_CASES)
def test_training_is_bit_identical_to_the_generic_step(case):
    widths, samples, batch_size, extra_loss = TRAIN_CASES[case]
    input_dim = 48 if len(widths) == 4 else 6
    data = make_blobs(samples, input_dim, widths[-1], seed=8)
    net = init_network(input_dim, widths, seed=8)
    if extra_loss is embed_sign_penalty:
        extra_loss = embed_sign_penalty(net, data)
    hp = TrainConfig(epochs=2, lr=0.1, batch_size=batch_size, seed=8)
    fitted = train(net, data, hp, extra_loss)
    assert not networks_equal(fitted, net)
    assert networks_equal(fitted, reference_train(net, data, hp, extra_loss))  # +0.0 is not -0.0
    for layer in fitted.layers:  # the trained network holds arrays of its own
        assert layer.weights.flags.owndata and layer.biases.flags.owndata


COPIES_CASES = [  # epochs, copies, samples: 400 % 32 = 16 rows in each epoch's last batch
    pytest.param(epochs, copies, 400, id=f"{epochs}-{copies}")
    for epochs in (0, 2) for copies in (1, 3, 8)
] + [  # 2017 % 32 = 1 row in each epoch's last batch
    pytest.param(2, copies, 2017, id=f"2-{copies}-one-row-tail") for copies in (1, 3)
]


@pytest.mark.parametrize("epochs, copies, samples", COPIES_CASES)
def test_copies_train_bit_for_bit_as_each_alone(epochs, copies, samples):
    """Default widths: each copy is the plain loop's network for its config."""
    data = make_blobs(samples, 48, 4, seed=3)
    net = init_network(48, [128, 32, 16, 4], seed=3)
    hps = [TrainConfig(epochs=epochs, lr=0.05, seed=20 + g) for g in range(copies)]
    fitted = train_copies(net, data, hps)
    assert len(fitted) == copies
    for got, hp in zip(fitted, hps):
        assert networks_equal(got, reference_train(net, data, hp))  # +0.0 is not -0.0
        for layer in got.layers:
            assert layer.weights.flags.owndata and layer.biases.flags.owndata
    if epochs and copies > 1:
        assert not networks_equal(fitted[0], fitted[1])


@pytest.mark.parametrize("change, message", [
    (dict(epochs=3), "share epochs, lr and batch size"),
    (dict(lr=0.2), "share epochs, lr and batch size"),
    (dict(batch_size=16), "share epochs, lr and batch size"),
])
def test_copies_refuse_configs_they_cannot_step_together(change, message):
    data = make_blobs(50, 4, 2, seed=2)
    net = init_network(4, [8, 2], seed=2)
    hp = TrainConfig(epochs=2, lr=0.1, seed=1)
    other = dataclasses.replace(hp, seed=2, **change)
    with pytest.raises(ValueError, match=message):
        train_copies(net, data, [hp, other])
    with pytest.raises(ValueError, match="at least one copy"):
        train_copies(net, data, [])


def test_copies_report_divergence():
    data = make_blobs(50, 4, 2, seed=2)
    net = init_network(4, [8, 2], seed=2)
    hps = [TrainConfig(epochs=3, lr=1e30, seed=g) for g in range(3)]
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError):
        train_copies(net, data, hps)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_training_refuses_a_batch_size_below_one(batch_size):
    data = make_blobs(50, 4, 2, seed=2)
    net = init_network(4, [8, 2], seed=2)
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        train(net, data, TrainConfig(epochs=1, lr=0.1, batch_size=batch_size))


def test_training_refuses_inputs_of_another_width():
    data = make_blobs(50, 5, 2, seed=2)
    net = init_network(4, [8, 2], seed=2)
    with pytest.raises(ShapeError, match="has 5 columns but layer dense0 expects 4"):
        train(net, data, TrainConfig(epochs=1, lr=0.1))


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
    """NaN or an infinity in the weights or the biases, and an array holding
    both infinities (whose sum is NaN), are each refused with one message."""
    fine_w, fine_b = np.zeros((1, 2), dtype=np.float32), np.zeros(1, dtype=np.float32)
    cases = [
        (np.array([[np.nan, 0.0]], dtype=np.float32), fine_b),
        (np.array([[np.inf, 0.0]], dtype=np.float32), fine_b),
        (fine_w, np.array([-np.inf], dtype=np.float32)),
        (fine_w, np.array([np.nan], dtype=np.float32)),
        (np.array([[np.inf, -np.inf]], dtype=np.float32), fine_b),
    ]
    for weights, biases in cases:
        with pytest.raises(ValueError, match="layer bad: non-finite parameters"):
            DenseLayer("bad", weights, biases, "relu")
    # the largest finite values pass, though their squares and sums overflow float32
    DenseLayer("fine", np.full((1, 2), np.finfo(np.float32).max), fine_b, "relu")


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


def allocating_posts(net, x, layer_name, dtype=np.float64):
    """Each layer's ReLU outputs up to the named one, as a @ w.T + b, then
    max with the scalar 0.0, allocating every temporary."""
    a, posts = np.asarray(x, dtype), []
    for layer in net.layers[: net.layer_index(layer_name) + 1]:
        z = a @ layer.weights.astype(dtype).T + layer.biases.astype(dtype)
        a = np.maximum(z, 0.0)
        posts.append(a)
    return posts


def allocating_gradient(nets, x, targets, layer_name, dtype=np.float64):
    """The gradient as a plain loop in `dtype` that allocates every temporary
    and casts the weights on every call: the reference the kernel of that
    dtype must match bit for bit when nothing folds, and to rounding when
    pruned copies fold."""
    x, targets = np.asarray(x, dtype), np.asarray(targets, dtype)
    total_grad = np.zeros_like(x)
    total_loss = np.zeros(x.shape[0], dtype)
    for net in nets:
        li = net.layer_index(layer_name)
        sub = net.layers[: li + 1]
        posts = allocating_posts(net, x, layer_name, dtype)
        masks = [(p > 0.0).astype(dtype) for p in posts]
        resid = posts[-1] - targets
        total_loss += (resid**2).sum(axis=1)
        delta = 2.0 * resid * masks[li]
        for i in range(li, 0, -1):
            delta = (delta @ sub[i].weights.astype(dtype)) * masks[i - 1]
        total_grad += delta @ sub[0].weights.astype(dtype)
    return total_grad, total_loss


def kernel_ensemble():
    data = make_blobs(120, 6, 3, seed=5)
    net = train(init_network(6, [12, 8, 3], seed=5), data, TrainConfig(epochs=3, lr=0.1, seed=5))
    targets = np.random.default_rng(5).uniform(0.0, 2.0, size=(9, 8))
    return net, data, targets


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_kernel_is_bit_identical_to_allocating_loop(dtype):
    """The kernel in either dtype gives the bits of the allocating loop run
    in that dtype, and every parameter, buffer and output has that dtype."""
    net, data, targets = kernel_ensemble()
    tuned = train(net, data, TrainConfig(epochs=1, lr=0.01, seed=6))
    shifted = net.clone()
    shifted.layers[0].biases[0] += 0.125  # dense0 differs only in one bias
    nets = [net, tuned, shifted]
    kernel = InputGradientKernel(nets, targets, "dense1", dtype)
    assert len(kernel.members) == 3  # nothing folds
    assert len({id(m.space) for m in kernel.members}) == 1  # one shape, one workspace
    first, space = kernel.members[0], kernel.members[0].space
    for array in [kernel.targets, *first.weights, *first.biases, first.keep, first.loss_const,
                  *space.posts, *space.deltas, space.resid, space.grad_term]:
        assert array.dtype == dtype
    rng = np.random.default_rng(6)
    for _ in range(2):  # a second call must not read state left by the first
        x = rng.uniform(-3.0, 3.0, size=(9, 6)).astype(dtype)
        grad, loss = kernel(x)
        ref_grad, ref_loss = allocating_gradient(nets, x, targets, "dense1", dtype)
        assert grad.dtype == loss.dtype == ref_grad.dtype == ref_loss.dtype == dtype
        assert grad.tobytes() == ref_grad.tobytes() and loss.tobytes() == ref_loss.tobytes()
    grad, loss = InputGradientKernel(nets, targets, "dense1", dtype)(x)
    assert grad.tobytes() == ref_grad.tobytes() and loss.tobytes() == ref_loss.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_kernel_keeps_its_bits_at_the_default_shapes(dtype):
    """At the default widths (48 -> 128 -> 32) and the default descent's 480
    rows, the kernel's laid-out products give the bits of the allocating
    loop's a @ w.T, so default triggers keep their bytes; and each 240-row
    half gives the whole batch's rows, so a split descent passes its
    first-step check. Both hold for a folded member too."""
    net, other = init_network(48, [128, 32, 16], seed=3), init_network(48, [128, 32, 16], seed=4)
    pruned = prune_variant(net, "dense1", 0.25)
    rng = np.random.default_rng(8)
    targets = rng.uniform(0.0, 2.0, size=(480, 32))
    x = rng.uniform(-4.0, 4.0, size=(480, 48)).astype(dtype)
    grad, loss = InputGradientKernel([net, other], targets, "dense1", dtype)(x)
    ref_grad, ref_loss = allocating_gradient([net, other], x, targets, "dense1", dtype)
    assert grad.tobytes() == ref_grad.tobytes() and loss.tobytes() == ref_loss.tobytes()
    nets = [net, pruned, other]
    whole = [a.copy() for a in InputGradientKernel(nets, targets, "dense1", dtype)(x)]
    for half in (slice(0, 240), slice(240, 480)):
        grad, loss = InputGradientKernel(nets, targets[half], "dense1", dtype)(x[half])
        assert grad.tobytes() == whole[0][half].tobytes()
        assert loss.tobytes() == whole[1][half].tobytes()


def exact_zero_net():
    """Small integer parameters, so every sum the kernel or the reference
    takes is exact, whatever its order; biases cancel some pre-activations to
    exactly 0.0, and -0.0 biases meet the zero products of the all-zero
    input rows."""
    rng = np.random.default_rng(11)
    net = init_network(4, [6, 5, 3], seed=11)
    for layer in net.layers:
        layer.weights[...] = rng.integers(-2, 3, size=layer.weights.shape)
        layer.biases[...] = rng.integers(-2, 3, size=layer.biases.shape)
    net.layers[0].biases[net.layers[0].biases == 0] = -0.0
    net.layers[1].biases[:2] = -0.0
    x = rng.integers(-2, 3, size=(12, 4)).astype(np.float64)
    x[:3] = 0.0
    targets = rng.integers(0, 4, size=(12, 5)) / 2.0
    return net, x, targets


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("fold", [False, True], ids=["plain", "folded"])
def test_kernel_matches_the_reference_at_exact_zeros(dtype, fold):
    """Pre-activations that are exactly zero: ReLU against the zero matrix
    gives the scalar 0.0's posts, and the plain path's 2.0 and skipped keep
    and loss constant, or a folded member's, give the reference's gradient
    and loss, byte for byte."""
    net, x, targets = exact_zero_net()
    inputs = [x.astype(dtype), *allocating_posts(net, x, "dense1", dtype)[:-1]]
    for a, layer in zip(inputs, net.layers[:2]):
        z = a @ layer.weights.astype(dtype).T + layer.biases.astype(dtype)
        assert (z == 0.0).any() and (z != 0.0).any()  # some pre-activations, not all, are zero
    pruned = prune_variant(net, "dense1", 0.4)  # zeroes 2 of 5 neurons
    nets = [net, pruned] if fold else [net]
    kernel = InputGradientKernel(nets, targets, "dense1", dtype)
    assert len(kernel.members) == 1 and kernel.members[0].count == len(nets)
    grad, loss = kernel(x)
    posts = kernel.members[0].space.posts
    for got, want in zip(posts, allocating_posts(net, x, "dense1", dtype)):
        assert got.tobytes() == want.tobytes()
    ref_grad, ref_loss = allocating_gradient(nets, x, targets, "dense1", dtype)
    assert grad.tobytes() == ref_grad.tobytes() and loss.tobytes() == ref_loss.tobytes()


def test_float32_gradient_agrees_with_float64_on_criterion_7_nets():
    """On the 20 networks and points of the gradient criterion, the float32
    kernel's input gradient is the float64 kernel's within 1e-4 of its
    largest entry, and its loss within 1e-5 relative."""
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        net = init_network(6, [10, 7, 3], seed=seed)
        targets = rng.normal(size=7)[None, :]
        x = rng.normal(size=6)[None, :]
        g64, l64 = InputGradientKernel([net], targets, "dense1")(x)
        g32, l32 = InputGradientKernel([net], targets, "dense1", np.float32)(x)
        scale = max(float(np.abs(g64).max()), 1e-12)
        assert float(np.abs(g32 - g64).max()) / scale <= 1e-4, seed
        np.testing.assert_allclose(l32, l64, rtol=1e-5)


@pytest.mark.parametrize("dtype, rtol, atol", [
    (np.float64, 1e-12, 0.0),
    (np.float32, 1e-5, 1e-6),
], ids=["float64", "float32"])
def test_kernel_folds_pruned_copies_into_the_first_network(dtype, rtol, atol):
    net, data, targets = kernel_ensemble()
    tuned = train(net, data, TrainConfig(epochs=1, lr=0.01, seed=6))
    pruned = prune_variant(net, "dense1", 0.25)  # zeroes 2 of 8 neurons
    pruned_more = prune_variant(net, "dense1", 0.5)
    twin = prune_variant(net, "dense1", 0.0)  # a plain copy: keeps every neuron
    nets = [net, pruned, tuned, twin, pruned_more]
    kernel = InputGradientKernel(nets, targets, "dense1", dtype)
    assert len(kernel.members) == 2
    first = kernel.members[0]
    assert first.count == 4 and first.loss_const.dtype == dtype
    # net and its twin keep every neuron: weight 2 before the pruned copies
    zeroed = [~p.layers[1].weights.any(axis=1) for p in (pruned, pruned_more)]
    np.testing.assert_array_equal(first.keep, 4 - zeroed[0] - zeroed[1])
    rng = np.random.default_rng(6)
    for _ in range(2):  # a second call must not read state left by the first
        x = rng.uniform(-3.0, 3.0, size=(9, 6)).astype(dtype)
        grad, loss = kernel(x)
        # folding sums the same terms in another order: equal to the dtype's rounding
        ref_grad, ref_loss = allocating_gradient(nets, x, targets, "dense1", dtype)
        np.testing.assert_allclose(grad, ref_grad, rtol=rtol, atol=atol)
        np.testing.assert_allclose(loss, ref_loss, rtol=rtol)


def test_kernel_refuses_the_output_layer():
    """The softmax head is no hidden layer: the kernel refuses it up front,
    whichever member of the ensemble has the named layer as its head."""
    net, _, _ = kernel_ensemble()
    with pytest.raises(ValueError, match="dense2 is the softmax output"):
        InputGradientKernel([net], np.zeros((9, 3)), "dense2")
    # a member whose dense1 is its head spoils an ensemble where dense1 is hidden
    head = init_network(6, [12, 8], seed=0)
    with pytest.raises(ValueError, match="dense1 is the softmax output"):
        InputGradientKernel([net, head], np.zeros((9, 8)), "dense1")


@pytest.mark.parametrize("input_dim, widths", [(6, [10, 8, 3]), (5, [12, 8, 3])],
                         ids=["hidden-width", "input-dim"])
def test_kernel_refuses_an_ensemble_of_other_layer_shapes(input_dim, widths):
    """Every member shares one workspace, so a network whose layers up to the
    named one have other shapes than the first's is refused."""
    net, _, targets = kernel_ensemble()
    other = init_network(input_dim, widths, seed=1)
    with pytest.raises(ShapeError, match="disagree on layer shapes up to dense1"):
        InputGradientKernel([net, other], targets, "dense1")


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
