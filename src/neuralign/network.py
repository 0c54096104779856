"""Minimal dense feedforward network engine.

Every network has one form, checked when it is built: ReLU on each hidden
layer, softmax on the last. ReLU's positive homogeneity is what makes the
rescaling attack, like the reordering one, leave the function unchanged.

Construction, deterministic SGD training of a copy or of several copies at
once (which is also how variants and suspects are fine-tuned), forward
passes to the final outputs, gradients with respect to the input, and
magnitude-based neuron pruning.
Parameters are stored as float32. Forward passes and training run all
products and reductions in float64; the gradient kernel runs in the dtype it
is built with, float64 unless the caller asks for float32.

Training is laid out once per call, as the gradient kernel is once per
descent, for G copies of one network that differ only in their seed:
`train_copies` steps G of them together and `train` is the case G = 1. The
copies view one flat (G, P) float32 parameter buffer; a float64 mirror of
it, refreshed once per step, holds the weights every product reads, and the
gradients of all layers go into one flat (G, P) float64 buffer, so the update
is four whole-buffer operations (scale by the rate, subtract from the mirror,
cast into the float32 buffer, copy back to the mirror). Activation, ReLU-mask
and delta buffers, (G, rows, width) each, are allocated once at the batch
size (and once at the last batch's size when it is partial), and each epoch
gathers its shuffled inputs once. Each product is one `np.matmul` over the
stack, which makes one BLAS call per copy at the shapes a single copy uses,
and every other operation is one ufunc call for the whole group, so each
copy keeps the bits it gets alone. Each step keeps the arithmetic and order
of a plain allocating step, so the trained bytes are the same; its forward
product stays the NT product a @ W.T that `forward` runs, since at the
training batch of 32 rows OpenBLAS rounds some NN products differently (see
below). What stacking saves is Python and ufunc dispatch, which at these
widths costs about what the arithmetic does; it lasts while the group's
buffers fit in cache, so the attack stage trains its fine-tunes a few at a
time (`pipeline.py`).

Input gradients come only from `InputGradientKernel`, which a descent builds
once: it casts the weights to its dtype once per descent instead of once per
step, fills one set of buffers per layer shape instead of fresh temporaries on
every step, and folds copies of the first network whose only change is zeroed
neurons in the named layer (the pruned T2 variants) into the first network's
pass as per-neuron weights, so each distinct network costs one pass. It also
lays out once what every step would otherwise pay for: a C-contiguous
transposed copy of each weight matrix, so the forward product is the NN
product a @ wT rather than the NT product a @ w.T, each bias repeated on
every row, so its add is contiguous, and one zero matrix per layer width,
which ReLU is taken against. The backward products use the stored (out, in)
weights, which are already NN. NN and NT products round alike at the row
counts a descent runs at the default widths (240 and 480 rows) and at the
wide ones (48 -> 256 and 256 -> 128, from 10 rows up). OpenBLAS 0.3.31's
small-matrix kernels round them differently at a few rows (up to 37 at
width 32, up to 9 for 48 -> 128) and, in float64, at every row count for
some narrow shapes (16 -> 4), so a small network's triggers can differ in
their last bits from those of an NT forward product.

No row of the kernel's batch reads another row, which lets trigger descent
split its rows into blocks: the calling process runs the first and a forked
child each other one (`parallel.py` tells how the children are forked, and
why a process keeps one BLAS thread after its first split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

class ShapeError(ValueError):
    """Batch or layer dimensions do not line up."""


class UnknownLayerError(KeyError):
    """No layer with the requested name."""


class TrainingDivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss in epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):  # pickles back from a forked block like any error
        return type(self), (self.epoch,)


def _all_finite(x: np.ndarray) -> bool:
    """Whether every value of a float32 array is finite: one BLAS pass when so.

    The float32 dot of the array with itself is finite only when every value
    is: a square is never negative, so infinities cannot cancel, and NaN
    propagates. Where the dot is not finite (a non-finite value, or finite
    values whose squares overflow float32), the elementwise check decides.
    BLAS raises no floating-point warning either way."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


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
        if not (_all_finite(self.weights) and _all_finite(self.biases)):
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
        for i, layer in enumerate(self.layers):
            if layer.activation != ("softmax" if i == len(self.layers) - 1 else "relu"):
                raise ValueError(f"layer {layer.name}: hidden layers are relu, the last softmax")

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


def _softmax(z: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Softmax of each row of `z` (its last axis), in place: z minus its row
    max, exp, then divided by the row sum. `row` is z's shape with a last
    axis of 1, scratch."""
    np.maximum.reduce(z, axis=-1, keepdims=True, out=row)
    np.subtract(z, row, out=z)
    np.exp(z, out=z)
    np.add.reduce(z, axis=-1, keepdims=True, out=row)
    return np.divide(z, row, out=z)


def _forward_layers(
    net: Network, batch: np.ndarray, stop: Optional[int] = None, start: int = 0
) -> list:
    """Post-activation outputs of layers `start` up to `stop` (default: all),
    in float64, from `batch`, the input of layer `start`.

    Each layer's weights are cast once; the float32 biases are added to the
    product in place, which adds their exact float64 values, and ReLU is
    taken in place, so a hidden layer's outputs are those of a @ W.T + b,
    then max. The network's last layer takes softmax instead. `batch` is
    never written."""
    head = len(net.layers) - 1
    a = np.asarray(batch, dtype=np.float64)
    outputs = []
    for i, layer in enumerate(net.layers[start:stop], start):
        z = a @ layer.weights.astype(np.float64).T
        z += layer.biases
        a = _softmax(z, np.empty((len(z), 1))) if i == head else np.maximum(z, 0.0, out=z)
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
    return _forward_layers(net, _as_batch(net, batch))[-1]


def _softmax_cross_entropy(probs: np.ndarray, at: np.ndarray):
    """Mean cross-entropy of the softmax outputs of each copy in the
    (G, rows, width) stack `probs`, one loss per copy, given `at`, the flat
    index of each row's label in `probs`, one row of indices per copy. Turns
    `probs` into d(loss)/d(logits) in place: p - 1 at the labels, then / rows."""
    rows = at.shape[-1]
    flat = probs.reshape(-1)
    picked = flat[at]
    loss = -np.add.reduce(np.log(picked + 1e-12), axis=-1) / rows
    flat[at] = picked - 1.0
    return loss, np.divide(probs, rows, out=probs)


def accuracy(net: Network, data: Dataset) -> float:
    scores = forward(net, data.inputs)
    return float((scores.argmax(axis=1) == data.labels).mean())


class _StepBuffers:
    """A step's work buffers for G copies at one batch size, each with the
    copy axis first: each layer's outputs, each hidden layer's ReLU mask and
    the delta that reaches it, and a row of softmax scratch. Every step writes
    each buffer before reading it."""

    def __init__(self, copies: int, rows: int, widths: Sequence[int]):
        self.posts = [np.empty((copies, rows, w)) for w in widths]
        self.masks = [np.empty((copies, rows, w), dtype=bool) for w in widths[:-1]]
        self.deltas = [np.empty((copies, rows, w)) for w in widths[:-1]]
        self.row = np.empty((copies, rows, 1))


class _Trainer:
    """SGD on G copies of one network, laid out once per training call (see
    the module docstring).

    Parameters and gradients are flat (G, P) buffers; each layer's weights,
    biases and gradients view them as (G, out, in) and (G, out), and each
    step buffer is (G, rows, width).

    Each step runs, layer by layer and in this order, the arithmetic of a
    plain allocating step: a @ W.T, + b, then ReLU or softmax; p - 1 at the
    labels, then / rows; dW = delta.T @ a, then + the extra loss's gradient;
    db = delta summed over rows; the next delta (delta @ W) * (ReLU mask),
    the bool mask multiplied in so a zeroed entry keeps its sign; and
    W - lr * dW cast to float32. Every gradient is taken before any update,
    as the allocating step casts each W before updating it, so the trained
    network is bit for bit that of the allocating step. Each product is one
    `np.matmul` over the stack, which makes one BLAS call per copy at the
    one-copy shapes, and each other operation one ufunc call on the whole
    group; every copy gets the bits it gets alone. The extra loss, which only
    `train` passes, reads its one copy, whose layers view the float32 buffer.
    """

    def __init__(self, net: Network, copies: int, batch_sizes: set):
        shapes = [layer.weights.shape for layer in net.layers]
        flat = np.concatenate(
            [a.ravel() for layer in net.layers for a in (layer.weights, layer.biases)]
        )
        self.p32 = np.empty((copies, flat.size), dtype=np.float32)
        self.p32[...] = flat
        self.p64 = self.p32.astype(np.float64)
        self.grad = np.empty_like(self.p64)

        def split(buf):
            """Each layer's (weights, biases) views of `buf`, whose last axis
            holds one copy's parameters."""
            views, at = [], 0
            for o, i in shapes:
                w, b = buf[..., at : at + o * i], buf[..., at + o * i : at + o * i + o]
                views.append((w.reshape(*buf.shape[:-1], o, i), b))
                at += o * i + o
            return views

        self.nets = [  # what the extra loss reads, and what `result` returns
            Network([DenseLayer(layer.name, w, b, layer.activation)
                     for layer, (w, b) in zip(net.layers, split(p))])
            for p in self.p32
        ]
        self.w64, b64 = zip(*split(self.p64))
        self.w64_t = [w.mT for w in self.w64]
        self.b64 = [b[:, None, :] for b in b64]  # broadcast over each copy's rows
        self.dw, self.db = zip(*split(self.grad))
        self.names = [layer.name for layer in net.layers]
        widths = [o for o, _ in shapes]
        self.buffers = {m: _StepBuffers(copies, m, widths) for m in batch_sizes}

    def step(self, x: np.ndarray, at: np.ndarray, lr: float, extra_loss) -> np.ndarray:
        """One step on each copy's (rows, input_dim) batch, stacked in `x`;
        `at` is each row's label's flat index in the step's outputs. Returns
        each copy's loss."""
        s = self.buffers[x.shape[-2]]
        head = len(self.w64) - 1
        a = x
        for i in range(head):
            a = np.matmul(a, self.w64_t[i], out=s.posts[i])
            np.add(a, self.b64[i], out=a)
            np.maximum(a, 0.0, out=a)
            np.greater(a, 0.0, out=s.masks[i])
        z = np.matmul(a, self.w64_t[head], out=s.posts[head])
        np.add(z, self.b64[head], out=z)
        loss, d = _softmax_cross_entropy(_softmax(z, s.row), at)

        extra_grads: dict[str, np.ndarray] = {}
        if extra_loss is not None:
            extra, extra_grads = extra_loss(self.nets[0])
            loss += extra

        for i in range(head, -1, -1):
            dw = np.matmul(d.mT, s.posts[i - 1] if i else x, out=self.dw[i])
            if self.names[i] in extra_grads:
                np.add(dw, np.asarray(extra_grads[self.names[i]], dtype=np.float64), out=dw)
            np.add.reduce(d, axis=-2, out=self.db[i])
            if i:
                d = np.matmul(d, self.w64[i], out=s.deltas[i - 1])
                np.multiply(d, s.masks[i - 1], out=d)
        g = np.multiply(self.grad, lr, out=self.grad)
        np.subtract(self.p64, g, out=g)
        np.copyto(self.p32, g, casting="same_kind")
        np.copyto(self.p64, self.p32)
        return loss

    def result(self) -> list[Network]:
        """The trained copies, each holding its own copies of the parameters."""
        for net in self.nets:
            for layer in net.layers:
                layer.weights, layer.biases = layer.weights.copy(), layer.biases.copy()
        return self.nets


def _fit(
    net: Network, data: Dataset, hps: Sequence[TrainConfig], extra_loss=None
) -> list[Network]:
    """SGD on one copy of `net` per config, stepped together; the configs
    share epochs, lr and batch size, and each copy draws its own order.
    Only `train`, with its one copy, passes an `extra_loss` (see there)."""
    hp = hps[0]
    if hp.lr <= 0:
        raise ValueError("lr must be positive")
    if hp.epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if hp.batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {hp.batch_size}")
    inputs = _as_batch(net, data.inputs)
    if data.labels.max() >= net.output_dim:
        raise ValueError("label id exceeds output width")
    n, copies, width = len(data), len(hps), net.output_dim
    batch_size = min(hp.batch_size, n)
    trainer = _Trainer(net, copies, {batch_size, n % batch_size} - {0})
    # each step's rows of an epoch, and the flat offset of each row within
    # its step's (G, rows, width) outputs: its copy's block of the batch's
    # rows, then its place in its batch
    steps = [(slice(None), slice(start, start + batch_size)) for start in range(0, n, batch_size)]
    batch_rows = np.minimum(batch_size, n - np.arange(n) // batch_size * batch_size)
    row_at = np.arange(n) % batch_size * width + np.arange(copies)[:, None] * batch_rows * width
    rngs = [np.random.default_rng(h.seed) for h in hps]
    for epoch in range(hp.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        x, at = inputs[order], row_at + data.labels[order]
        losses = []
        # a step whose float64 update overflows float32, or that computes a
        # NaN, stops the run there, before an infinite parameter is stored
        with np.errstate(over="raise", invalid="raise"):
            try:
                for rows in steps:
                    losses.append(trainer.step(x[rows], at[rows], hp.lr, extra_loss))
            except FloatingPointError:
                raise TrainingDivergenceError(epoch) from None
        if not np.isfinite(np.mean(losses, axis=0)).all():
            raise TrainingDivergenceError(epoch)
    return trainer.result()


def train(net: Network, data: Dataset, hp: TrainConfig, extra_loss=None) -> Network:
    """SGD with cross-entropy; deterministic given hp.seed. Returns a new network.

    `extra_loss`, if given, is a regularizer added to every step's loss: it
    maps the network being trained to (loss, {layer name: weight gradient}),
    and each gradient is added to that layer's weight gradient."""
    return _fit(net, data, [hp], extra_loss)[0]


def train_copies(net: Network, data: Dataset, hps: Sequence[TrainConfig]) -> list[Network]:
    """One copy of `net` trained per config, each bit for bit what `train`
    gives for that config, in one laid-out run that steps them together.

    The configs must share epochs, lr and batch size; each draws its own
    order from its own seed. A copy that diverges stops the whole run with
    `TrainingDivergenceError` for that epoch; train the copies one at a time
    to learn which one it was. Groups of a few copies keep the step buffers
    in cache; one very large group is slower per copy than a few small ones.
    """
    hps = list(hps)
    if not hps:
        raise ValueError("need at least one copy to train")
    shared = {(hp.epochs, hp.lr, hp.batch_size) for hp in hps}
    if len(shared) > 1:
        raise ValueError(f"copies must share epochs, lr and batch size, got {sorted(shared)}")
    return _fit(net, data, hps)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal float32 arrays bit for bit, so +0.0 and -0.0 count as different."""
    return np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _first_changed_layer(a: Sequence[DenseLayer], b: Sequence[DenseLayer]) -> int:
    """The index of the first layer whose parameters differ bit for bit
    between two layer stacks of one shape; the layer count when none does."""
    for i, (la, lb) in enumerate(zip(a, b)):
        if not (_bitwise_equal(la.weights, lb.weights) and _bitwise_equal(la.biases, lb.biases)):
            return i
    return len(a)


def _kept_neurons(
    first: Sequence[DenseLayer], layers: Sequence[DenseLayer]
) -> Optional[np.ndarray]:
    """The named (last) layer's neurons a network keeps, when it is the first
    network with some of them zeroed; None when it is not.

    Both stacks have the same layer shapes. Every earlier layer must equal
    the first's bit for bit. Each row of the named layer must equal the
    first's row, weights and bias, or be +0.0 throughout, so that the
    neuron's output is exactly 0.
    """
    if _first_changed_layer(first[:-1], layers[:-1]) < len(first) - 1:
        return None
    a, b = first[-1], layers[-1]
    wa, wb = a.weights.view(np.uint32), b.weights.view(np.uint32)
    ba, bb = a.biases.view(np.uint32), b.biases.view(np.uint32)
    kept = (wa == wb).all(axis=1) & (ba == bb)
    zeroed = ~wb.any(axis=1) & (bb == 0)
    return kept if (kept | zeroed).all() else None


class _Workspace:
    """Work buffers for a member's step, sized by the layer widths. Every
    member shares one: each writes every buffer before reading it. The zero
    matrices, one per distinct width, are only read: ReLU is taken against
    them."""

    def __init__(self, rows: int, input_dim: int, widths: tuple, dtype):
        zeros = {w: np.zeros((rows, w), dtype) for w in set(widths)}
        self.zeros = [zeros[w] for w in widths]
        self.posts = [np.empty((rows, w), dtype) for w in widths]
        self.masks = [np.empty((rows, w), dtype=bool) for w in widths]
        self.deltas = [np.empty((rows, w), dtype) for w in widths[:-1]]
        self.resid = np.empty((rows, widths[-1]), dtype)  # becomes the named layer's delta
        self.squares = np.empty((rows, widths[-1]), dtype)
        self.loss_term = np.empty(rows, dtype)
        self.grad_term = np.empty((rows, input_dim), dtype)


class _Member:
    """One network's parameters up to the named layer in the kernel's dtype,
    laid out for its step, its work buffers, and the copies of it with zeroed
    neurons folded into it."""

    def __init__(self, layers: Sequence[DenseLayer], space: _Workspace):
        self.layers, self.space = layers, space
        dtype, rows = space.loss_term.dtype, len(space.loss_term)
        self.weights = [layer.weights.astype(dtype) for layer in layers]  # (out, in): backward
        self.weights_t = [np.ascontiguousarray(w.T) for w in self.weights]  # (in, out): forward
        self.biases = [  # each bias repeated on every row
            np.broadcast_to(layer.biases.astype(dtype), (rows, layer.out_dim)).copy()
            for layer in layers
        ]
        self.count = 1  # networks this member stands for
        self.keep = np.ones(layers[-1].out_dim, dtype)  # of those, how many keep each neuron
        self.twice_keep = 2.0  # d(loss)/d(resid): a scalar until a copy folds, then per neuron
        self.loss_const = np.zeros_like(space.loss_term)  # per-row loss of zeroed neurons

    def fold(self, kept: np.ndarray, targets: np.ndarray) -> None:
        """Add a copy that keeps only the `kept` neurons. A zeroed neuron reads
        0, so its loss is its target squared and it passes no gradient."""
        self.count += 1
        self.keep += kept
        self.twice_keep = 2.0 * self.keep
        self.loss_const = np.square(targets) @ (self.count - self.keep)


class InputGradientKernel:
    """Input gradient and per-row loss of the summed squared deviation of the
    named layer's outputs from fixed per-row targets, over an ensemble. The
    named layer is a hidden one, so every layer the kernel runs is ReLU.

    Built once per descent: it casts each network's parameters up to the named
    layer to `dtype` once (float64 by default; the targets, the per-neuron
    weights and every buffer take the same dtype, and the inputs are cast to
    it on each call), allocates its work buffers once and fills them in place
    on every call. Every network must have the same layer shapes up to the
    named layer, as the model's variants do, so all members share one set of
    buffers; any other ensemble is refused with `ShapeError`.

    Each member keeps its operands laid out for the step: transposed weights
    for the forward products (NN, a @ wT), the stored (out, in) weights for
    the backward ones, and each bias repeated on every row; ReLU is taken
    against a zero matrix the members share. Each step runs the arithmetic of
    a @ w.T + b, then max with 0.0, in that order. The NN product gives the NT
    product's bits at the descent's row counts and widths (see the module
    docstring), so the triggers keep their bytes; where a BLAS rounds them
    differently, the split descent's first-step check still holds, since
    every block runs this same kernel.

    A network that is the first one with some named-layer neurons zeroed (every
    earlier layer bit-equal; each named-layer row bit-equal or +0.0 in weights
    and bias, as `prune_variant` leaves it) is folded into the first network's
    member instead of getting its own: by linearity it adds its kept neurons'
    residuals to the first's delta and its zeroed neurons' squared targets to
    the loss, so the member weighs each neuron by how many folded networks keep
    it. Every other network is a member of its own. A member with nothing
    folded skips the per-neuron weights and the loss constant and multiplies
    its residuals by the scalar 2.0, as the plain allocating loop does, so a
    single network's results are bit-identical to that loop's.

    Calling it returns (grad, loss) arrays of shapes (rows, input_dim) and
    (rows,), which the next call overwrites. Network parameters are left
    untouched.
    """

    def __init__(
        self, nets: Sequence[Network], targets: np.ndarray, layer_name: str, dtype=np.float64
    ):
        if not nets:
            raise ValueError("need at least one network")
        if any(net.layer_index(layer_name) == len(net.layers) - 1 for net in nets):
            raise ValueError(f"layer {layer_name} is the softmax output, not a hidden layer")
        stacks = [net.layers[: net.layer_index(layer_name) + 1] for net in nets]
        if len({tuple(layer.weights.shape for layer in stack) for stack in stacks}) != 1:
            raise ShapeError(f"ensemble networks disagree on layer shapes up to {layer_name}")
        self.dtype = np.dtype(dtype)
        targets = np.asarray(targets, dtype=self.dtype)
        if targets.ndim != 2:
            raise ShapeError("targets must be 2-D (one target row per input row)")
        rows, input_dim = targets.shape[0], nets[0].input_dim
        widths = tuple(layer.out_dim for layer in stacks[0])
        if widths[-1] != targets.shape[1]:
            raise ShapeError(
                f"layer {layer_name} width {widths[-1]} != targets width {targets.shape[1]}"
            )
        self.targets = targets
        space = _Workspace(rows, input_dim, widths, self.dtype)
        self.members = [_Member(stacks[0], space)]
        for layers in stacks[1:]:
            kept = _kept_neurons(stacks[0], layers)
            if kept is None:
                self.members.append(_Member(layers, space))
            else:
                self.members[0].fold(kept, targets)
        self.grad = np.empty((rows, input_dim), self.dtype)
        self.loss = np.empty(rows, self.dtype)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=self.dtype)
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
                # _forward_layers' order (product, + b, max), which bit-identity
                # relies on; at a descent's row counts a @ wT has a @ w.T's bits
                a = np.matmul(a, m.weights_t[i], out=s.posts[i])
                np.add(a, m.biases[i], out=a)
                np.maximum(a, s.zeros[i], out=a)
                np.greater(a, 0.0, out=s.masks[i])
            d = np.subtract(a, self.targets, out=s.resid)
            squares = np.square(d, out=s.squares)
            folded = m.count > 1
            if folded:
                np.multiply(squares, m.keep, out=squares)
            term = np.add.reduce(squares, axis=1, out=s.loss_term)  # np.sum without its wrapper
            self.loss += np.add(term, m.loss_const, out=term) if folded else term
            np.multiply(d, m.twice_keep, out=d)
            for i in range(len(m.layers) - 1, -1, -1):
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

