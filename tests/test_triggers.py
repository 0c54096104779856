"""Trigger synthesis: descent behavior, separation statistics, ensembles."""

import os
import pickle

import numpy as np
import pytest

from conftest import assert_no_blas_server
from neuralign.coding import (
    CentroidSet,
    compute_centroids,
    default_codebook,
    load_codebook,
    nearest_centroid,
)
from neuralign.config import TriggerSpec
from neuralign.data import make_blobs
from neuralign import parallel, triggers
from neuralign.network import (
    DenseLayer,
    InputGradientKernel,
    Network,
    ShapeError,
    TrainConfig,
    UnknownLayerError,
    init_network,
    train,
)
from neuralign.pipeline import CODEBOOK_FILE, MODEL_FILE, load_centroids, make_experiment_data
from neuralign.serialize import load_model
from neuralign.triggers import (
    MODE_ENSEMBLE,
    MODE_SINGLE,
    OptimizationError,
    TriggerSet,
    VariantEnsemble,
    cluster_quality,
    dead_neurons,
    layer_outputs,
    loss_budget,
    make_variant_ensemble,
    separation_stats,
    synthesize_trigger_set,
)


@pytest.fixture(scope="module")
def trained():
    # seed picked so every dense1 neuron stays drivable (no dead rows)
    data = make_blobs(400, 16, 4, spread=0.35, seed=2)
    net = train(init_network(16, [32, 10, 4], seed=2), data,
                TrainConfig(epochs=8, lr=0.1, seed=2))
    return net, data


def test_loss_budget_formula():
    assert loss_budget(32, 2.0, 1) == pytest.approx(32 * 0.25)
    assert loss_budget(8, 1.0, 3) == pytest.approx(3 * 8 * 0.0625)


def test_variant_ensemble_structure(trained):
    net, data = trained
    # prune_step large enough that floor(fraction * 10) zeroes at least one row
    ens = make_variant_ensemble(net, data, "dense1", j=4, seed=1, prune_step=0.2)
    assert ens.j == 4 and len(ens.networks) == 5
    assert ens.provenance[0] == "original"
    assert sum(p.startswith("finetune") for p in ens.provenance) == 2
    assert sum(p.startswith("prune") for p in ens.provenance) == 2
    assert ens.networks[0] is net
    # variants actually differ from the original
    for variant in ens.networks[1:]:
        assert not np.array_equal(
            variant.layer("dense1").weights, net.layer("dense1").weights
        ) or not np.array_equal(
            variant.layer("dense0").weights, net.layer("dense0").weights
        )


def test_tiny_prune_fraction_variant_is_identity(trained):
    """floor(0.05 * 10) = 0: the smallest prune variant of a narrow layer is
    a plain copy, by the floor rule."""
    net, data = trained
    ens = make_variant_ensemble(net, data, "dense1", j=2, seed=1, prune_step=0.05)
    pruned = ens.networks[-1]
    np.testing.assert_array_equal(
        pruned.layer("dense1").weights, net.layer("dense1").weights
    )


def test_variant_ensemble_empty_and_odd(trained):
    net, data = trained
    ens = make_variant_ensemble(net, data, "dense1", j=0, seed=1,
        prune_step=TriggerSpec().prune_step)
    assert ens.networks == [net] and ens.provenance == ["original"]
    with pytest.raises(ValueError, match="even"):
        make_variant_ensemble(net, data, "dense1", j=3, seed=1, prune_step=0.05)
    with pytest.raises(TypeError, match="prune_step"):  # TriggerSpec is its one home
        make_variant_ensemble(net, data, "dense1", j=2, seed=1)
    with pytest.raises(ValueError):
        VariantEnsemble([], [])


@pytest.fixture(scope="module")
def single(trained):
    """The marked model alone, with a fold frame and a 10-word codebook."""
    net, data = trained
    cs = compute_centroids(layer_outputs(net, "dense1", data.inputs), 2)
    cb = default_codebook(10, 8, 2, 1, seed=2)
    ens = make_variant_ensemble(net, data, "dense1", j=0, seed=2,
        prune_step=TriggerSpec().prune_step)
    return ens, cs, cb


def test_synthesis_refuses_invalid_settings(single):
    """Settings a library caller passes skip validate_config, so the descent
    refuses them itself."""
    ens, cs, cb = single
    for bad, message in [
        (TriggerSpec(steps=-1), "steps >= 0"),
        (TriggerSpec(lr=0.0), "lr > 0"),
        (TriggerSpec(restarts=0), "at least one start"),
        (TriggerSpec(box_low=1.0, box_high=1.0), "clamp box must be non-empty"),
    ]:
        with pytest.raises(ValueError, match=message):
            synthesize_trigger_set(ens, "dense1", cs, cb, bad, 0)


def test_synthesis_refuses_the_output_layer(single):
    """Triggers drive hidden neurons: the softmax head (dense2, 4 wide) is
    refused even with a codebook of its width."""
    ens, cs, _ = single
    cb = default_codebook(4, 8, 2, 1, seed=2)
    with pytest.raises(ValueError, match="dense2 is the softmax output"):
        synthesize_trigger_set(ens, "dense2", cs, cb, TriggerSpec(steps=2, restarts=1), 0)


def test_descent_improves_over_initialization(single):
    ens, cs, cb = single
    frozen = TriggerSpec(steps=0, lr=0.05, restarts=1)
    moved = TriggerSpec(steps=150, lr=0.05, restarts=1)
    loss0 = synthesize_trigger_set(ens, "dense1", cs, cb, frozen, 2).final_losses
    loss1 = synthesize_trigger_set(ens, "dense1", cs, cb, moved, 2).final_losses
    assert loss1.sum() < loss0.sum()
    assert (loss1 <= loss0).all()  # each row keeps its best input


def test_synthesis_is_seed_deterministic(single):
    ens, cs, cb = single
    opt = TriggerSpec(steps=50, lr=0.05, restarts=2)
    first = synthesize_trigger_set(ens, "dense1", cs, cb, opt, 3)
    second = synthesize_trigger_set(ens, "dense1", cs, cb, opt, 3)
    np.testing.assert_array_equal(first.inputs, second.inputs)
    np.testing.assert_array_equal(first.final_losses, second.final_losses)


def test_descent_builds_its_kernel_once(trained, monkeypatch):
    net, data = trained
    ens = make_variant_ensemble(net, data, "dense1", j=2, seed=7,
        prune_step=TriggerSpec().prune_step)
    cs = compute_centroids(layer_outputs(net, "dense1", data.inputs), 2)
    cb = default_codebook(10, 8, 2, 1, seed=2)
    built = []

    def counted(*args, **kwargs):
        kernel = kernel_class(*args, **kwargs)
        built.append(kernel.dtype)
        return kernel

    kernel_class = triggers.InputGradientKernel
    monkeypatch.setattr(triggers, "InputGradientKernel", counted)
    synthesize_trigger_set(ens, "dense1", cs, cb, TriggerSpec(steps=50, restarts=2), 1)
    # one float32 kernel steps the descent, one float64 kernel scores its result
    assert built == [np.float32, np.float64]


def test_descent_equals_allocating_updates(trained):
    """In-place steps give the inputs of x <- clip(x - lr * g) computed in
    float32 with fresh arrays and one gradient call per step, and the losses
    of a float64 kernel at the float32 best inputs."""
    net, data = trained
    nets = make_variant_ensemble(net, data, "dense1", j=2, seed=7,
        prune_step=TriggerSpec().prune_step).networks
    targets = np.random.default_rng(3).uniform(0.0, 1.0, size=(6, 10))
    opt = TriggerSpec(steps=30, lr=0.05)
    best_x, best_loss, _ = triggers._descend(nets, targets, "dense1", opt, 4)
    x = np.random.default_rng(4).uniform(opt.box_low, opt.box_high, size=(6, 16))
    x = x.astype(np.float32)
    ref_x, ref_loss = x.copy(), np.full(6, np.inf, dtype=np.float32)
    for _ in range(opt.steps + 1):
        grad, loss = InputGradientKernel(nets, targets, "dense1", np.float32)(x)
        better = loss < ref_loss
        ref_loss[better], ref_x[better] = loss[better], x[better]
        x = np.clip(x - opt.lr * grad, opt.box_low, opt.box_high)
    assert x.dtype == np.float32  # no step widened the reference to float64
    _, ref_loss = InputGradientKernel(nets, targets, "dense1")(ref_x)
    assert best_x.tobytes() == ref_x.tobytes() and best_loss.tobytes() == ref_loss.tobytes()


def test_descent_steps_in_float32(trained, monkeypatch):
    """The descent's kernel and its best-so-far tracking are float32, in
    one process and in every block of a split; only the final scoring kernel
    is float64. A change that quietly steps in float64 again fails here."""
    net, data = trained
    nets = make_variant_ensemble(net, data, "dense1", j=2, seed=7,
        prune_step=TriggerSpec().prune_step).networks
    targets = np.random.default_rng(3).uniform(0.0, 1.0, size=(8, 10))
    opt = TriggerSpec(steps=5)
    x = np.random.default_rng(4).uniform(opt.box_low, opt.box_high, size=(8, 16))
    best_x, _ = triggers._descend_rows(0, 8, nets, targets, "dense1", opt, x.astype(np.float32))
    assert best_x.dtype == np.float32
    built = []

    class Recorded(InputGradientKernel):
        def __call__(self, x):
            grads, losses = super().__call__(x)
            built.append((self.dtype, grads.dtype, losses.dtype))
            return grads, losses

    monkeypatch.setattr(triggers, "InputGradientKernel", Recorded)
    for floor in (float("inf"), 0.0):  # in one process, then split
        built.clear()
        monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", floor)
        best_x, best_loss, _ = triggers._descend(nets, targets, "dense1", opt, 4)
        assert best_x.dtype == np.float32 and best_loss.dtype == np.float64
        # every call but the last is a float32 step (of a split, only the
        # parent's first-step check is in sight); the last scores in float64
        assert built[-1] == (np.float64,) * 3
        assert built[:-1] and set(built[:-1]) == {(np.dtype(np.float32),) * 3}


def test_stored_losses_are_float64_scores_of_stored_inputs(single):
    """Each row's float64 loss at its best float32 input picks the restart,
    is stored (as float32) and decides convergence; it is not the float32
    loss the descent tracked."""
    ens, cs, cb = single
    opt = TriggerSpec(steps=60, lr=0.05, restarts=3)
    ts = synthesize_trigger_set(ens, "dense1", cs, cb, opt, 5)
    rows = np.tile(cs.centroids[cb.codewords.T.astype(np.int64)], (opt.restarts, 1))
    all_x, all_loss, _ = triggers._descend(ens.networks, rows, "dense1", opt, 5)
    _, scored = InputGradientKernel(ens.networks, rows, "dense1")(all_x)
    assert scored.tobytes() == all_loss.tobytes()
    _, tracked = InputGradientKernel(ens.networks, rows, "dense1", np.float32)(all_x)
    assert not np.array_equal(tracked, scored.astype(np.float32))
    pick = (all_loss.reshape(opt.restarts, cb.t).argmin(axis=0), np.arange(cb.t))
    best = all_loss.reshape(opt.restarts, cb.t)[pick]
    assert ts.inputs.tobytes() == all_x.reshape(opt.restarts, cb.t, -1)[pick].tobytes()
    assert ts.final_losses.tobytes() == best.astype(np.float32).tobytes()
    budget = loss_budget(cb.n, cs.min_gap, len(ens.networks))
    np.testing.assert_array_equal(ts.converged, best <= budget)


def test_descent_stays_in_clamp_box(single):
    ens, _, cb = single
    unreachable = CentroidSet(np.array([50.0, 51.0]))
    opt = TriggerSpec(steps=100, lr=1.0, box_low=-1.5, box_high=1.5, restarts=1)
    ts = synthesize_trigger_set(ens, "dense1", unreachable, cb, opt, 1)
    assert (ts.inputs >= -1.5).all() and (ts.inputs <= 1.5).all()


def test_overflowing_loss_raises_with_step():
    # four relu layers of huge positive weights overflow the squared loss
    layers = []
    dims = [4, 8, 8, 8, 8]
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        layers.append(DenseLayer(
            f"dense{i}", np.full((b, a), 1e38, dtype=np.float32),
            np.zeros(b, dtype=np.float32), "relu",
        ))
    layers.append(DenseLayer("dense4", np.zeros((2, 8), dtype=np.float32),
                             np.zeros(2, dtype=np.float32), "softmax"))
    ens = VariantEnsemble([Network(layers)], ["original"])
    cs = CentroidSet(np.array([0.0, 1.0]))
    cb = default_codebook(8, 8, 2, 1, seed=0)
    opt = TriggerSpec(steps=5, lr=0.01, restarts=1, box_low=1.0, box_high=2.0)
    with np.errstate(all="ignore"), pytest.raises(OptimizationError) as info:
        synthesize_trigger_set(ens, "dense3", cs, cb, opt, 0)
    assert info.value.step == 0


def test_optimization_error_survives_pickling():
    err = pickle.loads(pickle.dumps(OptimizationError("non-finite loss for row 3 at step 4", 4)))
    assert type(err) is OptimizationError
    assert str(err) == "non-finite loss for row 3 at step 4" and err.step == 4


# ------------------------------------------------------ descent split in rows

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _in_process_and_split(nets, targets, layer_name, opt, seed, monkeypatch):
    monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", float("inf"))
    whole = triggers._descend(nets, targets, layer_name, opt, seed)
    monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", 0.0)
    split = triggers._descend(nets, targets, layer_name, opt, seed)
    assert whole[2].workers == 1
    return whole, split


def _assert_same_descent(whole, split):
    assert np.array_equal(split[0], whole[0]) and np.array_equal(split[1], whole[1])
    assert split[0].tobytes() == whole[0].tobytes() and split[1].tobytes() == whole[1].tobytes()
    assert split[2].members == whole[2].members and split[2].rows == whole[2].rows


def test_split_descent_equals_in_process_on_tiny_config(tiny_run, monkeypatch):
    """The tiny run's T2 descent (its ensemble, targets and seed) gives the
    same bits split over the cores as in one process."""
    cfg, out, _ = tiny_run
    model = load_model(out / MODEL_FILE)
    cb, cs = load_codebook(out / CODEBOOK_FILE), load_centroids(out)
    layer = cfg.model.watermarked_layer
    ens = make_variant_ensemble(
        model, make_experiment_data(cfg)[0], layer, cfg.triggers.j, seed=5,
        prune_step=cfg.triggers.prune_step,
    )
    targets = np.tile(cs.centroids[cb.codewords.T.astype(np.int64)], (cfg.triggers.restarts, 1))
    opt = TriggerSpec(steps=cfg.triggers.steps)
    whole, split = _in_process_and_split(ens.networks, targets, layer, opt, 9, monkeypatch)
    _assert_same_descent(whole, split)
    # the blocks' GEMMs round as the whole batch's, so the split really ran
    assert split[2].workers == CORES


@pytest.mark.parametrize("j", [0, 6])
def test_split_descent_equals_in_process_at_default_shapes(j, monkeypatch):
    """Default widths 48-128-32, 60 triggers x 8 restarts, T1 and T2."""
    data = make_blobs(200, 48, 4, seed=1)
    net = train(init_network(48, [128, 32, 16, 4], seed=1), data,
                TrainConfig(epochs=1, lr=0.05, seed=1))
    nets = make_variant_ensemble(net, data, "dense1", j=j, seed=2,
        prune_step=TriggerSpec().prune_step).networks
    targets = np.random.default_rng(4).uniform(0.0, 2.0, size=(480, 32))
    whole, split = _in_process_and_split(nets, targets, "dense1", TriggerSpec(steps=20), 3,
                                         monkeypatch)
    _assert_same_descent(whole, split)
    assert split[2].workers == min(CORES, 480)
    assert whole[2].members == (1 if j == 0 else 4)  # the 3 pruned variants fold


class _FailingKernel(InputGradientKernel):
    """Reports a NaN loss for the row whose first target is `row` at the
    given kernel call (step); calls are counted per kernel, so per block."""

    failures = {}  # global row -> step

    def __init__(self, nets, targets, layer_name, dtype=np.float64):
        super().__init__(nets, targets, layer_name, dtype)
        self.calls = 0

    def __call__(self, x):
        grads, losses = super().__call__(x)
        for local, row in enumerate(self.targets[:, 0].astype(int)):
            if self.failures.get(row) == self.calls:
                losses[local] = np.nan
        self.calls += 1
        return grads, losses


@pytest.mark.parametrize("failures, row, step", [
    ({1: 5, 6: 3}, 6, 3),  # the second block fails first
    ({2: 3, 5: 3}, 2, 3),  # same step: the lowest row wins
])
def test_split_descent_raises_what_one_process_raises(failures, row, step, monkeypatch):
    nets = [init_network(6, [10, 5, 2], seed=1)]
    targets = np.column_stack([np.arange(8.0), np.zeros((8, 4))])  # column 0 names the row
    monkeypatch.setattr(_FailingKernel, "failures", failures)
    monkeypatch.setattr(triggers, "InputGradientKernel", _FailingKernel)
    opt = TriggerSpec(steps=10)
    raised = []
    for floor in (float("inf"), 0.0):
        monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", floor)
        with pytest.raises(OptimizationError) as info:
            triggers._descend(nets, targets, "dense1", opt, 1)
        raised.append((str(info.value), info.value.step))
    assert raised[0] == raised[1] == (f"non-finite loss for row {row} at step {step}", step)
    if CORES < 2:
        return
    if row < 8 // min(CORES, 8):  # block 0's row: raised in this process as it was raised
        assert info.value.__cause__ is None
        assert info.traceback[-1].name == "_descend_rows"
    else:  # the child's error carries the child's traceback
        assert isinstance(info.value.__cause__, parallel.RemoteTraceback)
        assert "in _descend_rows" in str(info.value.__cause__)
        assert f"OptimizationError: non-finite loss for row {row}" in str(info.value.__cause__)


def test_split_descent_falls_back_when_blocks_round_differently(monkeypatch):
    """A block whose first step differs from the whole batch's in any bit
    makes the descent run in-process, so the result never depends on it,
    also when block 0, run in this process, passed the check and descended
    its rows before the fallback."""
    nets = [init_network(6, [10, 5, 2], seed=1)]
    targets = np.random.default_rng(2).uniform(0.0, 1.0, size=(8, 5))
    skew_block_0 = True

    class Skewed(InputGradientKernel):
        def __call__(self, x):
            grads, losses = super().__call__(x)
            block_0 = self.targets[0, 0] == np.float32(targets[0, 0])
            if len(x) < 8 and (skew_block_0 or not block_0):  # a block, not the whole batch
                losses[0] = np.nextafter(losses[0], np.inf)  # one ulp off in one row
            return grads, losses

    opt = TriggerSpec(steps=10)
    monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", float("inf"))
    whole = triggers._descend(nets, targets, "dense1", opt, 1)
    monkeypatch.setattr(triggers, "InputGradientKernel", Skewed)
    monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", 0.0)
    for skew_block_0 in (True, False):
        fallback = triggers._descend(nets, targets, "dense1", opt, 1)
        assert fallback[2].workers == 1
        assert np.array_equal(fallback[0], whole[0])


@pytest.mark.usefixtures("two_blas_threads")
def test_split_descent_leaves_no_blas_server_spinning(monkeypatch):
    """The float64 scoring after a split runs on the one BLAS thread the
    split left, so the descent ends with OpenBLAS's thread server down, as
    the split left it; a server started by that GEMM would spin on the cores
    that the next split's children need."""
    # default widths: the scoring GEMMs are large enough for OpenBLAS to thread
    nets = [init_network(48, [128, 32, 16, 4], seed=1)]
    targets = np.random.default_rng(4).uniform(0.0, 2.0, size=(480, 32))
    monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", 0.0)
    assert triggers._descend(nets, targets, "dense1", TriggerSpec(steps=2), 3)[2].workers > 1
    assert parallel._blas_threads()[0]() == 1
    assert_no_blas_server()


def test_descent_without_blas_setter_starts_no_child(trained, monkeypatch):
    net, data = trained
    targets = np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 10))
    opt = TriggerSpec(steps=30)
    monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", float("inf"))
    whole = triggers._descend([net], targets, "dense1", opt, 2)

    def no_fork():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(triggers, "SPLIT_FLOOR_MACS", 0.0)
    alone = triggers._descend([net], targets, "dense1", opt, 2)
    assert alone[2].workers == 1
    _assert_same_descent(whole, alone)


@pytest.fixture(scope="module")
def forged(trained):
    net, data = trained
    pooled = layer_outputs(net, "dense1", data.inputs)
    cs = compute_centroids(pooled, 2)
    cb = default_codebook(10, 16, 2, 1, seed=6)
    ens = make_variant_ensemble(net, data, "dense1", j=0, seed=6,
        prune_step=TriggerSpec().prune_step)
    opt = TriggerSpec(steps=800, lr=0.05, restarts=6)
    ts = synthesize_trigger_set(ens, "dense1", cs, cb, opt, 6)
    return net, cs, cb, ts, ens, opt


def test_trigger_set_shape_and_mode(forged):
    net, cs, cb, ts, _, _ = forged
    assert ts.inputs.shape == (cb.t, net.input_dim)
    assert ts.t == cb.t
    assert ts.mode == MODE_SINGLE and ts.variant_count == 0
    assert ts.layer_name == "dense1"
    assert ts.codebook_ref == cb.digest
    assert ts.inputs.dtype == np.float32


def test_more_restarts_never_hurt(forged):
    """Restart r=0 reuses the single-restart initialization, so the best-of
    pick is per-position at least as good."""
    net, cs, cb, _, ens, opt = forged
    import dataclasses

    one = synthesize_trigger_set(ens, "dense1", cs, cb, dataclasses.replace(opt, restarts=1), 6)
    three = synthesize_trigger_set(ens, "dense1", cs, cb, dataclasses.replace(opt, restarts=3), 6)
    assert (three.final_losses <= one.final_losses + 1e-7).all()


def test_most_triggers_land_within_half_gap(forged):
    """Each neuron should sit closer to its target centroid than the fold
    midpoint for the vast majority of positions."""
    net, cs, cb, ts, _, _ = forged
    outs = layer_outputs(net, "dense1", ts.inputs)  # (N, T)
    targets = cs.centroids[cb.codewords]  # (N, T)
    within = np.abs(outs - targets) <= cs.min_gap / 2
    assert within.mean() >= 0.90


def test_ensemble_mode_flags(trained, forged):
    net, data = trained
    _, cs, cb, _, _, opt = forged
    ens = make_variant_ensemble(net, data, "dense1", j=2, seed=7,
        prune_step=TriggerSpec().prune_step)
    ts = synthesize_trigger_set(ens, "dense1", cs, cb, opt, 6)
    assert ts.mode == MODE_ENSEMBLE and ts.variant_count == 2


def test_trigger_set_rejects_mismatched_codebook(trained, forged):
    net, data = trained
    _, cs, cb, _, ens, opt = forged
    wide = default_codebook(12, 16, 2, 1, seed=1)  # 12 words vs 10 neurons
    with pytest.raises(ShapeError):
        synthesize_trigger_set(ens, "dense1", cs, wide, opt, 6)
    three_fold = CentroidSet(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="folds"):
        synthesize_trigger_set(ens, "dense1", three_fold, cb, opt, 6)


def test_trigger_set_mode_validation():
    base = dict(
        inputs=np.zeros((4, 3), dtype=np.float32),
        centroid_set=CentroidSet(np.array([0.0, 1.0])),
        codebook_ref="x",
        layer_name="dense1",
        final_losses=np.zeros(4, dtype=np.float32),
        converged=np.zeros(4, dtype=bool),
    )
    with pytest.raises(ValueError, match="no variants"):
        TriggerSet(mode=MODE_SINGLE, variant_count=2, **base)
    with pytest.raises(ValueError, match="variant"):
        TriggerSet(mode=MODE_ENSEMBLE, variant_count=0, **base)
    with pytest.raises(ValueError, match="mode"):
        TriggerSet(mode="t9", variant_count=0, **base)


def test_layer_outputs_shape_and_values(trained):
    net, data = trained
    x = data.inputs[:7]
    out = layer_outputs(net, "dense1", x)
    assert out.shape == (10, 7)
    from neuralign.network import _forward_layers

    np.testing.assert_array_equal(out.T, _forward_layers(net, x)[1])
    with pytest.raises(ShapeError):
        layer_outputs(net, "dense1", x[0])
    with pytest.raises(ShapeError):
        layer_outputs(net, "dense1", x[:, :5])
    with pytest.raises(UnknownLayerError):
        layer_outputs(net, "dense7", x)


def test_dead_neuron_detection():
    outs = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.2], [1e-13, 0.0, 1e-14]])
    assert dead_neurons(outs) == [0, 2]


def test_cluster_quality_hand_example():
    stats = cluster_quality(np.array([0.0, 0.1, 1.0, 1.1]), np.array([0, 0, 1, 1]))
    assert stats.intra == pytest.approx(0.05)
    assert stats.inter == pytest.approx(1.0)


def test_cluster_quality_single_cluster_has_no_inter():
    stats = cluster_quality(np.array([0.1, 0.2]), np.array([0, 0]))
    assert stats.inter is None
    assert stats.intra == pytest.approx(0.05)


def test_cluster_quality_takes_the_given_folds():
    """The folds come from the readout, not from the values: 1.1 read as fold 0
    joins the low cluster."""
    stats = cluster_quality(np.array([0.0, 0.1, 1.0, 1.1]), np.array([0, 0, 1, 0]))
    assert stats.inter == pytest.approx(1.0 - 0.4)
    assert stats.intra == pytest.approx((0.4 + 0.3 + 0.0 + 0.7) / 4)


def test_separation_stats_exclude_dead(trained, forged):
    net, _ = trained
    _, _, _, ts, _, _ = forged
    hollow = net.clone()
    hollow.layer("dense1").weights[4, :] = 0.0
    hollow.layer("dense1").biases[4] = 0.0
    raw = layer_outputs(hollow, ts.layer_name, ts.inputs)
    stats = separation_stats(raw, nearest_centroid(raw, ts.centroid_set))
    assert stats["dead_neurons"] == [4]
    assert np.isfinite(stats["mean_intra"])


def test_separation_stats_match_a_quantizer_of_their_own(forged):
    """Stats over the readout's codes equal those over a fresh argmin of the
    raw outputs, whose ties also take the lower fold."""
    net, cs, _, ts, _, _ = forged
    raw = layer_outputs(net, ts.layer_name, ts.inputs)
    own = np.abs(raw[..., None] - cs.centroids).argmin(axis=-1)
    assert separation_stats(raw, nearest_centroid(raw, cs)) == separation_stats(raw, own)
