"""Trigger synthesis: inputs that pin neuron outputs to codeword centroids.

For trigger position t, every neuron n of the watermarked layer should land
on the centroid of its assigned symbol codewords[n, t]. Gradient descent on
the input drives the summed squared deviation down; optimizing against an
ensemble that also contains fine-tuned and pruned variants of the model
makes the readout survive those attacks at the price of a harder objective.

All T positions are optimized as one batch; each row keeps its best-so-far
input so a late bad step cannot lose a good solution.

The descent steps in float32: its kernel, inputs and best-so-far tracking
are float32, which halves the width of every product and buffer, and the
float32 inputs are what a trigger set stores anyway. Every number that is
stored or judged is float64: once the descent ends, the kernel is built
again in float64 and scores each row's best input once, and that loss picks
the restart, is stored as the trigger's final loss and decides convergence.

The descent takes the run's `TriggerSpec` (steps, step size, restarts, clamp
box) and the seed its starting points are drawn from.

The rows never interact, so a large descent runs in one block of rows per
usable core through `parallel.run_blocks`: this process descends the first
block and forks a child for each other one (its docstring tells how, and how
BLAS is pinned). OpenBLAS computes each GEMM row the same way at any thread
count and at any row count above the sizes its small-matrix kernels take, so
the triggers are byte-identical to a one-process descent; the first step of
every block is compared with the whole batch's, and any differing bit sends
the descent back into one process. A descent below `SPLIT_FLOOR_MACS`, or one
that `parallel.block_count` keeps in-process (one core, no bundled
OpenBLAS), runs in this process alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coding import CentroidSet, Codebook
from .config import TriggerSpec
from .network import (
    Dataset,
    InputGradientKernel,
    Network,
    ShapeError,
    TrainConfig,
    _as_batch,
    _forward_layers,
    prune_variant,
    train,
)
from .parallel import block_count, one_blas_thread, run_blocks
from .serialize import (
    MAGIC_TRIGGERS,
    FormatError,
    IntegrityError,
    PayloadReader,
    PayloadWriter,
    _frozen,
    read_container,
    write_container,
)

MODE_SINGLE = "t1"  # optimize against the watermarked model alone
MODE_ENSEMBLE = "t2"  # optimize against the model plus J variants
VARIANT_LR = 0.01  # step size of the T2 ensemble's fine-tuned variants


class OptimizationError(RuntimeError):
    """Trigger optimization produced a non-finite loss."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):  # survive the pickle back from a forked descent block
        return type(self), (str(self), self.step)


@dataclass(frozen=True)
class VariantEnsemble:
    """The watermarked model at index 0, then attack-simulating variants."""

    networks: list
    provenance: list

    def __post_init__(self):
        if not self.networks:
            raise ValueError("ensemble must contain at least the original model")
        if len(self.provenance) != len(self.networks):
            raise ValueError("one provenance entry per network required")

    @property
    def j(self) -> int:
        return len(self.networks) - 1


def make_variant_ensemble(
    net: Network,
    data: Dataset,
    layer_name: str,
    j: int,
    seed: int,
    *,
    prune_step: float,
) -> VariantEnsemble:
    """Original plus J/2 fine-tuned (1, 2, ... epochs at `VARIANT_LR`) and J/2
    pruned variants (fractions prune_step, 2*prune_step, ...)."""
    if j < 0 or j % 2 != 0:
        raise ValueError("variant count must be even (half fine-tuned, half pruned)")
    nets = [net]
    provenance = ["original"]
    half = j // 2
    for i in range(1, half + 1):
        nets.append(train(net, data, TrainConfig(epochs=i, lr=VARIANT_LR, seed=seed + i)))
        provenance.append(f"finetune:epochs={i}:lr={VARIANT_LR}:seed={seed + i}")
    for i in range(1, half + 1):
        frac = prune_step * i
        nets.append(prune_variant(net, layer_name, frac))
        provenance.append(f"prune:layer={layer_name}:fraction={frac:.4f}")
    return VariantEnsemble(nets, provenance)


@dataclass(frozen=True)
class DescentSpan:
    """How one descent ran: the processes its rows ran on, this one included
    (1: in-process), descended rows (triggers x restarts), steps, kernel
    members and wall seconds."""

    workers: int
    rows: int
    steps: int
    members: int
    seconds: float


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; a zero row stays zero."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    return x / np.where(norms > 0, norms, 1.0)


@dataclass(frozen=True, eq=False)
class UnitRows:
    """A matrix's rows scaled to unit L2 norm once, read-only: `align_to_matrix`
    takes them as its reference without scaling them again."""

    rows: np.ndarray  # given as any 2-D matrix, kept as its float64 unit rows

    def __post_init__(self):
        rows = _unit_rows(np.asarray(self.rows, dtype=np.float64))
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class TriggerSet:
    """Owner-side evidence: T inputs plus the quantization frame they encode."""

    inputs: np.ndarray  # (T, input_dim) float32
    centroid_set: CentroidSet
    codebook_ref: str  # digest of the codebook the targets came from
    mode: str  # MODE_SINGLE or MODE_ENSEMBLE
    variant_count: int
    layer_name: str
    final_losses: np.ndarray  # (T,) float32 of each trigger's float64 loss at its input
    converged: np.ndarray  # (T,) bool, best loss within the per-network budget
    # how the descent ran; wall-clock, so neither saved nor compared (None once loaded)
    descent: DescentSpan | None = field(default=None, compare=False)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float32)
        losses = np.asarray(self.final_losses, dtype=np.float32)
        conv = np.asarray(self.converged, dtype=bool)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise ValueError("inputs must be a (T, input_dim) array")
        if losses.shape != (inputs.shape[0],) or conv.shape != (inputs.shape[0],):
            raise ValueError("per-trigger logs must have length T")
        if self.mode not in (MODE_SINGLE, MODE_ENSEMBLE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_ENSEMBLE and self.variant_count < 1:
            raise ValueError("ensemble mode requires at least one variant")
        if self.mode == MODE_SINGLE and self.variant_count != 0:
            raise ValueError("single mode carries no variants")
        object.__setattr__(self, "inputs", _frozen(inputs))
        object.__setattr__(self, "final_losses", losses)
        object.__setattr__(self, "converged", conv)

    @property
    def t(self) -> int:
        return int(self.inputs.shape[0])

    @cached_property
    def inputs64(self) -> np.ndarray:
        """The frozen inputs cast to float64 once per trigger set, read-only:
        every suspect is read on this batch."""
        inputs = self.inputs.astype(np.float64)
        inputs.flags.writeable = False
        return inputs

    def unit_targets(self, cb: Codebook) -> UnitRows:
        """The (N, T) targets the triggers were forged toward, codeword n's
        symbols mapped to their centroids, as unit rows: the reference every
        suspect is aligned to. Prepared once per trigger set for the codebook
        whose digest it pins, which is checked on every call."""
        if cb.digest != self.codebook_ref:
            raise IntegrityError("trigger set was built for a different codebook")
        if self.centroid_set.k != cb.k:
            raise IntegrityError(
                f"trigger set carries {self.centroid_set.k} centroids, "
                f"codebook uses {cb.k} symbols"
            )
        targets = self.__dict__.get("_unit_targets")
        if targets is None:
            targets = UnitRows(self.centroid_set.centroids[cb.codewords])
            self.__dict__["_unit_targets"] = targets  # stored as cached_property stores
        return targets


def loss_budget(n: int, gap: float, network_count: int = 1) -> float:
    """Convergence ceiling: every neuron within gap/4 of its target keeps the
    readout on the correct side of the fold boundary with margin."""
    return network_count * n * (gap / 4.0) ** 2


# Multiply-adds (rows x steps x per-row multiply-adds summed over the networks)
# below which a descent stays in-process. A no-op 2-block split (one fork,
# one pipe, one reap) costs about 4 ms. Measured with the float32 descent and
# its laid-out kernel on 2 cores (OpenBLAS 0.3.31) at the default widths (480
# rows, one network, medians of 9 alternating runs, two runs): 1.5e8 took
# 18-20 ms in-process and 21-24 ms split, 2.5e8 27-30 -> 29-30 ms, 3e8 30-33
# -> 30-33 ms, 3.5e8 37-39 -> 34-36 ms, 5e8 51-53 -> 41-44 ms, 7.5e8 77 -> 56-57
# ms, 1e9 99-103 -> 73-75 ms, 1.5e9 136-152 -> 100-115 ms. The split breaks
# even near 3e8 and wins by more than its run-to-run spread from 5e8 up. A
# tiny-config descent is 5e7 to 2.3e8 and stays in-process: its blocks have
# under 38 rows, whose GEMMs round differently and fail the first-step check;
# the default T1 descent is 1e10.
SPLIT_FLOOR_MACS = 5e8


def _worker_count(nets, layer_name: str, rows: int, steps: int) -> int:
    """Processes to split the rows over, this one included: `block_count`'s
    count, or 1 when the descent is too small to repay the split."""
    workers = block_count(rows)
    macs = sum(
        layer.weights.size
        for net in nets
        for layer in net.layers[: net.layer_index(layer_name) + 1]
    )
    return 1 if rows * (steps + 1) * macs < SPLIT_FLOOR_MACS else workers


def _descend_rows(lo, hi, nets, targets, layer_name, opt: TriggerSpec, x, first_step=None):
    """Projected float32 descent of rows [lo, hi), starting at x[lo:hi]
    (float32, overwritten). Returns each row's best input and the kernel's
    member count, or None when first_step (the whole batch's step-0 grads and
    losses) differs from this block's step 0 in any bit."""
    targets, x = targets[lo:hi], x[lo:hi]
    kernel = InputGradientKernel(nets, targets, layer_name, np.float32)
    best_x, best_loss = x.copy(), np.full(targets.shape[0], np.inf, dtype=np.float32)
    improved = np.empty(targets.shape[0], dtype=bool)
    step_x = np.empty_like(x)
    low, high = np.full_like(x, opt.box_low), np.full_like(x, opt.box_high)
    for step in range(opt.steps + 1):
        grads, losses = kernel(x)
        if step == 0 and first_step is not None and (
            grads.tobytes() != first_step[0][lo:hi].tobytes()
            or losses.tobytes() != first_step[1][lo:hi].tobytes()
        ):
            return None
        if not np.isfinite(losses).all():
            bad = lo + int(np.flatnonzero(~np.isfinite(losses))[0])
            raise OptimizationError(f"non-finite loss for row {bad} at step {step}", step)
        np.less(losses, best_loss, out=improved)
        np.putmask(best_loss, improved, losses)
        best_x[improved] = x[improved]
        if step == opt.steps:
            break
        # x <- clip(x - lr * g), in place
        np.subtract(x, np.multiply(grads, opt.lr, out=step_x), out=x)
        np.maximum(x, low, out=x)
        np.minimum(x, high, out=x)
    return best_x, len(kernel.members)


def _split_descent(nets, targets, layer_name, opt: TriggerSpec, x, workers: int):
    """`_descend_rows` on row blocks through `run_blocks`, concatenated in row
    order; None when a block's first step is not the whole batch's bit for
    bit (a BLAS that rounds a block's GEMMs differently), so the caller
    descends in-process instead. The blocks step a copy of x: block 0 runs
    in this process, and the fallback starts from x."""
    first_step = InputGradientKernel(nets, targets, layer_name, np.float32)(x)
    outcomes = run_blocks(
        _descend_rows, targets.shape[0], workers, nets, targets, layer_name, opt, x.copy(),
        first_step,
    )
    if any(ok and value is None for ok, value in outcomes):
        return None
    failed = [value for ok, value in outcomes if not ok]
    if failed:
        other = [e for e in failed if not isinstance(e, OptimizationError)]
        # one process stops at the earliest step, naming its lowest bad row:
        # min keeps the first (lowest) block among equal steps
        raise other[0] if other else min(failed, key=lambda e: e.step)
    return np.concatenate([value[0] for _, value in outcomes]), outcomes[0][1][1]


def _descend(nets, targets, layer_name, opt: TriggerSpec, seed: int):
    """Batched projected descent from seeded uniform starts in the clamp box
    (drawn in float64, stepped in float32); returns per-row best inputs
    (float32), their float64 losses and the run's DescentSpan. Split over
    forked processes when that pays (see the module docstring); the result
    is the same either way."""
    start = time.perf_counter()
    rows = targets.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.uniform(opt.box_low, opt.box_high, size=(rows, nets[0].input_dim)).astype(np.float32)
    workers = _worker_count(nets, layer_name, rows, opt.steps)
    result = _split_descent(nets, targets, layer_name, opt, x, workers) if workers > 1 else None
    if result is None:
        workers = 1
        result = _descend_rows(0, rows, nets, targets, layer_name, opt, x)
    best_x, members = result
    with one_blas_thread():
        best_loss = InputGradientKernel(nets, targets, layer_name)(best_x)[1].copy()
    span = DescentSpan(workers, rows, opt.steps, members, time.perf_counter() - start)
    return best_x, best_loss, span


def synthesize_trigger_set(
    ensemble: VariantEnsemble,
    layer_name: str,
    cs: CentroidSet,
    cb: Codebook,
    opt: TriggerSpec,
    seed: int,
) -> TriggerSet:
    """Optimize all T trigger positions as one batch against the ensemble.

    `opt` is the run's `TriggerSpec`: the descent reads its steps, step size,
    restarts and clamp box. `seed` draws the starting points. A library
    caller's settings are checked here, since only a run's config passes
    through `validate_config`.
    """
    if opt.steps < 0 or opt.lr <= 0:
        raise ValueError("need steps >= 0 and lr > 0")
    if opt.restarts < 1:
        raise ValueError("need at least one start")
    if not opt.box_low < opt.box_high:
        raise ValueError("clamp box must be non-empty")
    nets = ensemble.networks
    width = nets[0].layer(layer_name).out_dim
    if width != cb.n:
        raise ShapeError(f"layer {layer_name!r} has {width} neurons, codebook has {cb.n} words")
    if cs.k != cb.k:
        raise ValueError(f"centroid set has {cs.k} folds, codebook uses {cb.k} symbols")
    t = cb.t
    targets = cs.centroids[cb.codewords.T.astype(np.int64)]  # (T, N)
    rows = np.tile(targets, (opt.restarts, 1))
    all_x, all_loss, span = _descend(nets, rows, layer_name, opt, seed)
    pick = all_loss.reshape(opt.restarts, t).argmin(axis=0)
    best_x = all_x.reshape(opt.restarts, t, -1)[pick, np.arange(t)]
    best_loss = all_loss.reshape(opt.restarts, t)[pick, np.arange(t)]
    budget = loss_budget(cb.n, cs.min_gap, len(nets))
    return TriggerSet(
        inputs=best_x,
        centroid_set=cs,
        codebook_ref=cb.digest,
        mode=MODE_SINGLE if ensemble.j == 0 else MODE_ENSEMBLE,
        variant_count=ensemble.j,
        layer_name=layer_name,
        final_losses=best_loss.astype(np.float32),
        converged=best_loss <= budget,
        descent=span,
    )


def layer_outputs(net: Network, layer_name: str, inputs: np.ndarray) -> np.ndarray:
    """(N, T) matrix of the layer's activations, one column per input; the
    layers after the named one are not run."""
    idx = net.layer_index(layer_name)
    return _forward_layers(net, _as_batch(net, inputs), idx + 1)[-1].T


DEAD_TOL = 1e-12  # largest activation a row may reach and still count as silent


def dead_neurons(outputs: np.ndarray) -> list:
    """Rows that never leave zero across all columns."""
    return np.flatnonzero(np.abs(outputs).max(axis=1) <= DEAD_TOL).tolist()


@dataclass(frozen=True)
class ClusterStats:
    inter: float | None  # mean distance between occupied cluster means
    intra: float  # mean distance of points to their cluster mean


def cluster_quality(values: np.ndarray, assign: np.ndarray) -> ClusterStats:
    """How cleanly one trigger's neuron outputs split into the K folds.

    `assign` is each point's fold as the readout quantized it. With fewer than
    two occupied clusters the between-cluster distance is undefined and
    reported as None rather than zero.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    assign = np.asarray(assign).ravel()
    labels = np.unique(assign)
    means = np.array([vals[assign == c].mean() for c in labels])
    intra = float(np.mean(np.abs(vals - means[np.searchsorted(labels, assign)])))
    if labels.size < 2:
        return ClusterStats(inter=None, intra=intra)
    diffs = [abs(means[i] - means[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    return ClusterStats(inter=float(np.mean(diffs)), intra=intra)


def separation_stats(raw_outputs: np.ndarray, codes: np.ndarray) -> dict:
    """Mean inter/intra statistics across probe inputs, dead neurons excluded.

    Takes one readout's (N, T) raw outputs and the codes they quantized to.
    """
    dead = dead_neurons(raw_outputs)
    live = np.setdiff1d(np.arange(raw_outputs.shape[0]), dead)
    inters, intras = [], []
    for t in range(raw_outputs.shape[1]):
        stats = cluster_quality(raw_outputs[live, t], codes[live, t])
        intras.append(stats.intra)
        if stats.inter is not None:
            inters.append(stats.inter)
    return {
        "mean_inter": float(np.mean(inters)) if inters else None,
        "mean_intra": float(np.mean(intras)),
        "dead_neurons": dead,
    }


def save_trigger_set(ts: TriggerSet, path) -> None:
    w = PayloadWriter()
    w.text(ts.mode)
    w.u16(ts.variant_count)
    w.text(ts.layer_name)
    w.u32(ts.t)
    w.u32(ts.inputs.shape[1])
    cs = ts.centroid_set
    w.u16(cs.k)
    w.f64_array(cs.centroids)
    w.f64_array(np.zeros(cs.k - 1))  # reserved K-1 slots keep the version-1 layout
    w.text(ts.codebook_ref)
    w.f32_array(ts.inputs)
    w.f32_array(ts.final_losses)
    w.bits(ts.converged)
    write_container(path, MAGIC_TRIGGERS, w.bytes_value())


def load_trigger_set(path) -> TriggerSet:
    r = PayloadReader(read_container(path, MAGIC_TRIGGERS))
    try:
        mode = r.text()
        variant_count = r.u16()
        layer_name = r.text()
        t = r.u32()
        in_dim = r.u32()
        k = r.u16()
        centroids = r.f64_array(k)
        r.raw(8 * (k - 1))  # reserved K-1 float64 slots
        codebook_ref = r.text()
        inputs = r.f32_array(t * in_dim).reshape(t, in_dim)
        losses = r.f32_array(t)
        conv = r.bits(t)
        r.expect_end()
        return TriggerSet(
            inputs=inputs,
            centroid_set=CentroidSet(centroids),
            codebook_ref=codebook_ref,
            mode=mode,
            variant_count=variant_count,
            layer_name=layer_name,
            final_losses=losses,
            converged=conv,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
