"""Minimal dense feedforward network engine.

Construction, deterministic SGD training of a copy (which is also how
variants and suspects are fine-tuned), forward passes to the final outputs,
gradients with respect to the input, and magnitude-based neuron pruning.
Parameters are stored as float32; all products and reductions run in float64.

Input gradients come only from `InputGradientKernel`, which a descent builds
once: it casts the weights to float64 once per descent instead of once per
step, fills one set of buffers per layer shape instead of fresh temporaries on
every step, and folds copies of the first network whose only change is zeroed
neurons in the named layer (the pruned T2 variants) into the first network's
pass as per-neuron weights, so each distinct network costs one pass.

No row of the kernel's batch reads another row, which lets trigger descent
split its rows into blocks, each run in a forked worker (`parallel.py` tells
how the workers are forked and BLAS is pinned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

ACTIVATIONS = ("identity", "relu", "softmax")


class ShapeError(ValueError):
    """Batch or layer dimensions do not line up."""


class UnknownLayerError(KeyError):
    """No layer with the requested name."""


class TrainingDivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss in epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):  # pickles through a worker process like any error
        return type(self), (self.epoch,)


@dataclass
class DenseLayer:
    """One fully connected layer; each output unit is one neuron."""

    name: str
    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float32)
        if self.weights.ndim != 2:
            raise ShapeError(f"layer {self.name}: weights must be 2-D")
        if self.biases.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"layer {self.name}: biases shape {self.biases.shape} does not "
                f"match out_dim {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"layer {self.name}: unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError(f"layer {self.name}: non-finite parameters")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def clone(self) -> "DenseLayer":
        return DenseLayer(self.name, self.weights.copy(), self.biases.copy(), self.activation)


@dataclass
class Network:
    """An ordered stack of dense layers. Treated as immutable once built."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer {a.name} out_dim {a.out_dim} does not chain into "
                    f"layer {b.name} in_dim {b.in_dim}"
                )
        for layer in self.layers[:-1]:
            if layer.activation == "softmax":
                raise ValueError(f"layer {layer.name}: softmax is only allowed at the output")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def layer_index(self, name: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise UnknownLayerError(f"no layer named {name!r}")

    def layer(self, name: str) -> DenseLayer:
        return self.layers[self.layer_index(name)]

    def clone(self) -> "Network":
        return Network([l.clone() for l in self.layers])


@dataclass
class Dataset:
    """Labelled inputs for training and probing."""

    inputs: np.ndarray  # (D, input_dim)
    labels: np.ndarray  # (D,) integer class ids

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or len(self.inputs) < 1:
            raise ShapeError("inputs must be a nonempty 2-D matrix")
        if self.labels.shape != (len(self.inputs),):
            raise ShapeError("labels length must equal sample count")
        if self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass
class TrainConfig:
    epochs: int
    lr: float
    batch_size: int = 32
    seed: int = 0
    # optional regularizer: net -> (loss, {layer_name: weight gradient})
    extra_loss: Optional[Callable[[Network], tuple[float, dict[str, np.ndarray]]]] = None


def init_network(input_dim: int, widths: Sequence[int], seed: int) -> Network:
    """Build a seeded network: relu hidden layers per `widths[:-1]`, a softmax
    output of `widths[-1]`.

    Weights are uniform(-a, a) with a = sqrt(6 / (in + out)).
    """
    rng = np.random.default_rng(seed)
    layers = []
    dims = [input_dim, *widths]
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        a = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-a, a, size=(d_out, d_in)).astype(np.float32)
        b = np.zeros(d_out, dtype=np.float32)
        act = "softmax" if i == len(widths) - 1 else "relu"
        layers.append(DenseLayer(f"dense{i}", w, b, act))
    return Network(layers)


def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)
    if activation == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    return z


def _forward_layers(layers: Sequence[DenseLayer], batch: np.ndarray) -> list[np.ndarray]:
    """Post-activation outputs for each layer, computed in float64.

    Each layer's weights are cast once; the float32 biases are added to the
    product in place, which adds their exact float64 values, and ReLU is
    taken in place, so the outputs are those of a @ W.T + b, then max."""
    a = np.asarray(batch, dtype=np.float64)
    outputs = []
    for layer in layers:
        z = a @ layer.weights.astype(np.float64).T
        z += layer.biases
        a = _apply_activation(z, layer.activation)
        outputs.append(a)
    return outputs


def _as_batch(net: Network, batch: np.ndarray) -> np.ndarray:
    """The batch as float64, checked to be 2-D with the network's input width."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeError("batch must be 2-D (rows are samples)")
    if batch.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch has {batch.shape[1]} columns but layer {net.layers[0].name} "
            f"expects {net.input_dim}"
        )
    return batch


def forward(net: Network, batch: np.ndarray) -> np.ndarray:
    """Run a batch through the network: the last layer's (batch, out_dim)
    outputs, in float64."""
    return _forward_layers(net.layers, _as_batch(net, batch))[-1]


def _activation_grad_mask(post: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (post > 0.0).astype(np.float64)
    if activation == "identity":
        return np.ones_like(post)
    raise ValueError(f"no elementwise derivative for activation {activation!r}")


def _softmax_cross_entropy(final_post: np.ndarray, activation: str, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(final pre-activation)."""
    n = len(labels)
    if activation == "softmax":
        probs = final_post
    else:
        probs = _apply_activation(final_post, "softmax")
    eps = 1e-12
    loss = -np.log(probs[np.arange(n), labels] + eps).mean()
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    d /= n
    if activation == "relu":
        d *= _activation_grad_mask(final_post, "relu")
    return loss, d


def cross_entropy(net: Network, data: Dataset) -> float:
    outputs = forward(net, data.inputs)
    loss, _ = _softmax_cross_entropy(outputs, net.layers[-1].activation, data.labels)
    return float(loss)


def accuracy(net: Network, data: Dataset) -> float:
    scores = forward(net, data.inputs)
    return float((scores.argmax(axis=1) == data.labels).mean())


def train(net: Network, data: Dataset, hp: TrainConfig) -> Network:
    """SGD with cross-entropy; deterministic given hp.seed. Returns a new network."""
    if hp.lr <= 0:
        raise ValueError("lr must be positive")
    if hp.epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if data.labels.max() >= net.output_dim:
        raise ValueError("label id exceeds output width")
    out = net.clone()
    if hp.epochs == 0:
        return out
    rng = np.random.default_rng(hp.seed)
    n = len(data)
    batch_size = min(hp.batch_size, n)
    for epoch in range(hp.epochs):
        order = rng.permutation(n)
        losses = []
        # a step whose float64 update overflows float32, or that computes a
        # NaN, stops the run there, before an infinite parameter is stored
        with np.errstate(over="raise", invalid="raise"):
            try:
                for start in range(0, n, batch_size):
                    idx = order[start : start + batch_size]
                    loss = _sgd_step(out, data.inputs[idx], data.labels[idx], hp)
                    losses.append(loss)
            except FloatingPointError:
                raise TrainingDivergenceError(epoch) from None
        mean_loss = float(np.mean(losses))
        if not np.isfinite(mean_loss):
            raise TrainingDivergenceError(epoch)
    return out


def _sgd_step(net: Network, x: np.ndarray, y: np.ndarray, hp: TrainConfig) -> float:
    posts = _forward_layers(net.layers, x)
    loss, delta = _softmax_cross_entropy(posts[-1], net.layers[-1].activation, y)

    extra_grads: dict[str, np.ndarray] = {}
    if hp.extra_loss is not None:
        extra, extra_grads = hp.extra_loss(net)
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
            delta = (delta @ w64) * _activation_grad_mask(posts[i - 1], net.layers[i - 1].activation)
        layer.weights = (w64 - hp.lr * dw).astype(np.float32)
        layer.biases = (layer.biases.astype(np.float64) - hp.lr * db).astype(np.float32)
    return float(loss)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal float32 arrays bit for bit, so +0.0 and -0.0 count as different."""
    return np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _kept_neurons(
    first: Sequence[DenseLayer], layers: Sequence[DenseLayer]
) -> Optional[np.ndarray]:
    """The named (last) layer's neurons a network keeps, when it is the first
    network with some of them zeroed; None when it is not.

    Every earlier layer must equal the first's in activation and bits. Each row
    of the named layer must equal the first's row, weights and bias, or be
    +0.0 throughout, so that the neuron's output is exactly 0.
    """
    if len(first) != len(layers):
        return None
    for a, b in zip(first[:-1], layers[:-1]):
        if not (
            a.activation == b.activation
            and _bitwise_equal(a.weights, b.weights)
            and _bitwise_equal(a.biases, b.biases)
        ):
            return None
    a, b = first[-1], layers[-1]
    if a.activation != b.activation or a.weights.shape != b.weights.shape:
        return None
    wa, wb = a.weights.view(np.uint32), b.weights.view(np.uint32)
    ba, bb = a.biases.view(np.uint32), b.biases.view(np.uint32)
    kept = (wa == wb).all(axis=1) & (ba == bb)
    zeroed = ~wb.any(axis=1) & (bb == 0)
    return kept if (kept | zeroed).all() else None


class _Workspace:
    """Work buffers for a member's step, sized by its layer widths. Members of
    the same widths share one: each writes every buffer before reading it."""

    def __init__(self, rows: int, input_dim: int, widths: tuple):
        self.posts = [np.empty((rows, w)) for w in widths]
        self.masks = [np.empty((rows, w), dtype=bool) for w in widths]
        self.deltas = [np.empty((rows, w)) for w in widths[:-1]]
        self.resid = np.empty((rows, widths[-1]))  # becomes the named layer's delta
        self.squares = np.empty((rows, widths[-1]))
        self.loss_term = np.empty(rows)
        self.grad_term = np.empty((rows, input_dim))


class _Member:
    """One network's float64 parameters up to the named layer, its work
    buffers, and the copies of it with zeroed neurons folded into it."""

    def __init__(self, layers: Sequence[DenseLayer], space: _Workspace):
        self.layers, self.space = layers, space
        self.relu = [layer.activation == "relu" for layer in layers]
        self.weights = [layer.weights.astype(np.float64) for layer in layers]
        self.biases = [layer.biases.astype(np.float64) for layer in layers]
        self.count = 1  # networks this member stands for
        self.keep = np.ones(layers[-1].out_dim)  # of those, how many keep each neuron
        self.twice_keep = 2.0 * self.keep  # d(loss)/d(resid) per neuron
        self.loss_const = np.zeros(space.loss_term.shape)  # per-row loss of zeroed neurons

    def fold(self, kept: np.ndarray, targets: np.ndarray) -> None:
        """Add a copy that keeps only the `kept` neurons. A zeroed neuron reads
        0, so its loss is its target squared and it passes no gradient."""
        self.count += 1
        self.keep += kept
        self.twice_keep = 2.0 * self.keep
        self.loss_const = np.square(targets) @ (self.count - self.keep)


class InputGradientKernel:
    """Input gradient and per-row loss of the summed squared deviation of the
    named layer's outputs from fixed per-row targets, over an ensemble.

    Built once per descent: it casts each network's parameters up to the named
    layer to float64 once, allocates its work buffers once and fills them in
    place on every call. All members share one set of buffers per layer shape.

    A network that is the first one with some named-layer neurons zeroed (every
    earlier layer bit-equal; each named-layer row bit-equal or +0.0 in weights
    and bias, as `prune_variant` leaves it) is folded into the first network's
    member instead of getting its own: by linearity it adds its kept neurons'
    residuals to the first's delta and its zeroed neurons' squared targets to
    the loss, so the member weighs each neuron by how many folded networks keep
    it. Every other network is a member of its own. A member with nothing
    folded weighs its neurons by 1 and adds a zero loss constant, which is
    exact (squares·1, a non-negative sum + 0.0 and resid·2.0 change no bit),
    so a single network's results are bit-identical to the plain allocating
    loop's.

    Calling it returns (grad, loss) arrays of shapes (rows, input_dim) and
    (rows,), which the next call overwrites. Network parameters are left
    untouched.
    """

    def __init__(self, nets: Sequence[Network], targets: np.ndarray, layer_name: str):
        if not nets:
            raise ValueError("need at least one network")
        if len({net.input_dim for net in nets}) != 1:
            raise ShapeError("ensemble networks disagree on input_dim")
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 2:
            raise ShapeError("targets must be 2-D (one target row per input row)")
        rows, input_dim = targets.shape[0], nets[0].input_dim
        self.targets = targets
        self.members: list[_Member] = []
        spaces: dict[tuple, _Workspace] = {}  # one per layer shape, shared by members
        for net in nets:
            layers = net.layers[: net.layer_index(layer_name) + 1]
            if layers[-1].out_dim != targets.shape[1]:
                raise ShapeError(
                    f"layer {layer_name} width {layers[-1].out_dim} != targets width "
                    f"{targets.shape[1]}"
                )
            for layer in layers:
                if layer.activation not in ("relu", "identity"):
                    raise ValueError(
                        f"no elementwise derivative for activation {layer.activation!r}"
                    )
            if self.members:
                kept = _kept_neurons(self.members[0].layers, layers)
                if kept is not None:
                    self.members[0].fold(kept, targets)
                    continue
            widths = tuple(layer.out_dim for layer in layers)
            if widths not in spaces:
                spaces[widths] = _Workspace(rows, input_dim, widths)
            self.members.append(_Member(layers, spaces[widths]))
        self.grad = np.empty((rows, input_dim))
        self.loss = np.empty(rows)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.grad.shape:
            raise ShapeError(
                f"input shape {x.shape} != (target rows, input_dim) {self.grad.shape}"
            )
        self.grad.fill(0.0)
        self.loss.fill(0.0)
        for m in self.members:
            s = m.space
            a = x
            for i in range(len(m.layers)):
                # _forward_layers' order (a @ w.T, + b, max), which bit-identity relies on
                a = np.matmul(a, m.weights[i].T, out=s.posts[i])
                np.add(a, m.biases[i], out=a)
                if m.relu[i]:
                    np.maximum(a, 0.0, out=a)
                    np.greater(a, 0.0, out=s.masks[i])
            d = np.subtract(a, self.targets, out=s.resid)
            squares = np.square(d, out=s.squares)
            np.multiply(squares, m.keep, out=squares)
            term = np.sum(squares, axis=1, out=s.loss_term)
            self.loss += np.add(term, m.loss_const, out=term)
            np.multiply(d, m.twice_keep, out=d)
            for i in range(len(m.layers) - 1, -1, -1):
                if m.relu[i]:
                    np.multiply(d, s.masks[i], out=d)
                if i > 0:
                    d = np.matmul(d, m.weights[i], out=s.deltas[i - 1])
            self.grad += np.matmul(d, m.weights[0], out=s.grad_term)
        return self.grad, self.loss


def prune_variant(net: Network, layer_name: str, fraction: float) -> Network:
    """Zero the incoming rows and biases of the lowest-|w| neurons in one layer.

    Ranks neurons by the L1 norm of their incoming weight row and zeroes the
    floor(fraction * N) smallest; the ranking is deterministic.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError("fraction must be in [0, 1)")
    out = net.clone()
    layer = out.layer(layer_name)
    count = int(np.floor(fraction * layer.out_dim))
    if count == 0:
        return out
    norms = np.abs(layer.weights.astype(np.float64)).sum(axis=1)
    doomed = np.argsort(norms, kind="stable")[:count]
    layer.weights[doomed, :] = 0.0
    layer.biases[doomed] = 0.0
    return out


def networks_equal(a: Network, b: Network) -> bool:
    """Bit-level equality of architecture and parameters."""
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.activation != lb.activation or la.weights.shape != lb.weights.shape:
            return False
        if not (np.array_equal(la.weights, lb.weights) and np.array_equal(la.biases, lb.biases)):
            return False
    return True
