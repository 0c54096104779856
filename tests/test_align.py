"""Neuron-order recovery: cosine assignment, margins, aligned verify."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from neuralign import align, attacks
from neuralign.align import (
    AlignmentResult,
    align_to_matrix,
    alignment_accuracy,
    apply_alignment,
    verify_with_alignment,
)
from neuralign.attacks import (
    PermutationSpec,
    attack_rescale,
    inverse_permutation,
    permute_neurons,
    random_permutation,
)
from neuralign.coding import compute_centroids, default_codebook, load_codebook
from neuralign.config import TriggerSpec
from neuralign.data import make_blobs
from neuralign.network import Network, TrainConfig, forward, init_network, train
from neuralign.pipeline import CODEBOOK_FILE, RECORD_FILE, TRIGGER_MODES, suspect_file, trigger_file
from neuralign.serialize import IntegrityError, load_model
from neuralign.triggers import (
    layer_outputs,
    load_trigger_set,
    make_variant_ensemble,
    synthesize_trigger_set,
)

# fold centroids for the synthetic cases: the lowest sits just above zero, as
# a trained layer's does, so no codeword maps to a zero row
CENTROIDS = np.array([0.1, 1.0, 2.0])
from neuralign.watermark import TamperError, embed, load_record, make_record, verify


@pytest.fixture(scope="module")
def marked():
    """Watermarked toy with forged triggers: the full owner-side evidence."""
    data = make_blobs(400, 16, 4, spread=0.35, seed=2)
    net = train(init_network(16, [32, 10, 4], seed=2), data,
                TrainConfig(epochs=8, lr=0.1, seed=2))
    record = make_record(net, "dense1", bits=16, seed=5)
    net = embed(net, record, data, TrainConfig(epochs=3, lr=0.05, batch_size=32, seed=5),
                strength=2.0, max_rounds=4)
    pooled = layer_outputs(net, "dense1", data.inputs)
    cs = compute_centroids(pooled, 2)
    cb = default_codebook(10, 16, 2, 1, seed=6)
    ens = make_variant_ensemble(net, data, "dense1", j=0, seed=6,
        prune_step=TriggerSpec().prune_step)
    ts = synthesize_trigger_set(ens, "dense1", cs, cb,
                                TriggerSpec(steps=800, lr=0.05, restarts=6), 6)
    return net, data, record, cs, cb, ts


def _align(net, ts, cb):
    """Read the suspect's activations on the triggers and align them to the
    targets the triggers were forged toward."""
    observed = layer_outputs(net, ts.layer_name, ts.inputs)
    targets = ts.centroid_set.centroids[cb.codewords]
    return align_to_matrix(observed, targets, ts.layer_name)


def _margins(obs: np.ndarray, ref: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Per-position margin by its definition, one cosine at a time: the
    assigned row's cosine minus the best cosine to any other reference row."""
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    out = []
    for p, word in enumerate(assign):
        rivals = [cos(obs[p], ref[i]) for i in range(len(ref)) if i != word]
        out.append(cos(obs[p], ref[word]) - max(rivals))
    return np.array(out)


# ---------------------------------------------------------------- readout

def test_unpermuted_model_aligns_to_identity(marked):
    net, _, _, _, cb, ts = marked
    res = _align(net, ts, cb)
    np.testing.assert_array_equal(res.perm_estimate, np.arange(cb.n))


# ------------------------------------------------------- permutation recovery

@pytest.mark.parametrize("seed", range(5))
def test_np_attack_recovered_exactly(marked, seed):
    net, _, record, _, cb, ts = marked
    spec = random_permutation(10, seed=seed, layer_name="dense1")
    attacked = permute_neurons(net, spec)
    res = _align(attacked, ts, cb)
    np.testing.assert_array_equal(res.perm_estimate, spec.perm)
    assert alignment_accuracy(res, spec.perm) == 1.0


def test_apply_alignment_restores_weights_bitwise(marked):
    net, _, _, _, cb, ts = marked
    spec = random_permutation(10, seed=3, layer_name="dense1")
    attacked = permute_neurons(net, spec)
    res = _align(attacked, ts, cb)
    restored = apply_alignment(attacked, res)
    for name in ("dense0", "dense1", "dense2"):
        np.testing.assert_array_equal(restored.layer(name).weights, net.layer(name).weights)
        np.testing.assert_array_equal(restored.layer(name).biases, net.layer(name).biases)


def test_aligned_verify_after_np(marked):
    net, _, record, _, cb, ts = marked
    attacked = permute_neurons(net, random_permutation(10, seed=7, layer_name="dense1"))
    assert not verify(attacked, record).accepted
    out = verify_with_alignment(attacked, ts, cb, record)
    assert out.accepted and out.tamper_cause is None
    assert out.ov.ber == 0.0
    assert out.alignment.collisions_resolved >= 0


# --------------------------------------------- synthetic radius / assignment

def _scatter(codewords: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Place word i at position perm[i]."""
    obs = np.empty_like(codewords)
    obs[perm] = codewords
    return obs


def _corrupt(words: np.ndarray, per_row: int, k: int, rng) -> np.ndarray:
    """Unit-step symbol noise: each corrupted position costs decode distance 1,
    so per_row bounds the L1 corruption of every row."""
    out = words.copy()
    for row in out:
        cols = rng.choice(words.shape[1], size=per_row, replace=False)
        row[cols] = np.where(row[cols] < k - 1, row[cols] + 1, row[cols] - 1)
    return out


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_recovery_exact_within_guarantee_radius(k, seed):
    """Corrupting up to (d_min - 1) // 2 symbols per neuron never moves the
    estimate, whatever the permutation, and each position's margin is its
    cosine to its own word minus its best cosine to another."""
    cb = default_codebook(8, 18, k, 1, seed=20 + seed)
    radius = (cb.d_min - 1) // 2
    assert radius >= 1
    rng = np.random.default_rng(seed)
    perm = rng.permutation(cb.n)
    obs = CENTROIDS[_corrupt(_scatter(cb.codewords, perm), radius, k, rng)]
    ref = CENTROIDS[cb.codewords]
    res = align_to_matrix(obs, ref)
    np.testing.assert_array_equal(res.perm_estimate, perm)
    assert res.per_neuron_margin.dtype == np.float64
    np.testing.assert_allclose(res.per_neuron_margin, _margins(obs, ref, inverse_permutation(perm)),
                               atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_exact_words_recover_at_distance_zero(k):
    """A word read exactly has cosine 1 to itself and less to any other."""
    cb = default_codebook(8, 18, k, 1, seed=20)
    perm = np.random.default_rng(k).permutation(cb.n)
    res = align_to_matrix(CENTROIDS[_scatter(cb.codewords, perm)], CENTROIDS[cb.codewords])
    np.testing.assert_array_equal(res.perm_estimate, perm)
    assert (res.per_neuron_margin > 0).all() and res.margin > 0


@pytest.mark.parametrize("seed", range(4))
def test_heavy_corruption_still_yields_bijection(seed):
    cb = default_codebook(8, 18, 2, 1, seed=30 + seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(cb.n)
    obs = _corrupt(_scatter(cb.codewords, perm), cb.t, 2, rng)
    res = align_to_matrix(CENTROIDS[obs], CENTROIDS[cb.codewords])
    assert sorted(res.perm_estimate.tolist()) == list(range(cb.n))


def test_corruption_beyond_radius_can_flip_a_neuron():
    """The guarantee is tight: pushing one observed row onto another codeword
    reassigns it."""
    cb = default_codebook(8, 18, 2, 1, seed=41)
    obs = cb.codewords.copy()
    obs[0] = cb.codewords[1]
    res = align_to_matrix(CENTROIDS[obs], CENTROIDS[cb.codewords])
    assert not np.array_equal(res.perm_estimate, np.arange(cb.n))
    assert sorted(res.perm_estimate.tolist()) == list(range(cb.n))
    assert res.margin < 0


def test_collision_resolution_counter():
    ref = CENTROIDS[np.array([[1, 1, 0, 0], [0, 0, 1, 1]])]
    obs = CENTROIDS[np.array([[1, 1, 0, 0], [1, 1, 0, 1]])]  # both nearest word 0
    res = align_to_matrix(obs, ref)
    assert res.collisions_resolved == 2
    np.testing.assert_array_equal(res.perm_estimate, [0, 1])
    np.testing.assert_allclose(res.per_neuron_margin, _margins(obs, ref, [0, 1]), atol=1e-12)
    assert res.per_neuron_margin[0] > 0 > res.per_neuron_margin[1]
    assert res.margin == res.per_neuron_margin[1]


def test_align_shape_mismatches_are_tampering(marked):
    *_, cb, _ = marked
    with pytest.raises(TamperError, match="neurons"):
        align_to_matrix(np.zeros((7, cb.t)), cb.codewords)
    with pytest.raises(TamperError, match="length"):
        align_to_matrix(np.zeros((cb.n, 5)), cb.codewords)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n, t", [(32, 60), (128, 120)])
def test_cost_matrix_matches_broadcast_reference(k, n, t):
    """The assignment is optimal for, and its margins are read off, the
    1 - cosine cost built by broadcasting over every (position, word) pair;
    observed rows carry random positive scales, which the cost ignores."""
    rng = np.random.default_rng(100 * k + n)
    levels = np.sort(rng.uniform(0.01, 2.0, size=k))
    obs = levels[rng.integers(0, k, size=(n, t))] * rng.uniform(0.2, 5.0, size=(n, 1))
    ref = levels[rng.integers(0, k, size=(n, t))]
    cos = (obs[:, None, :] * ref[None, :, :]).sum(axis=2) / (
        np.linalg.norm(obs, axis=1)[:, None] * np.linalg.norm(ref, axis=1)[None, :]
    )
    res = align_to_matrix(obs, ref)
    assign = inverse_permutation(res.perm_estimate)
    rows, best = linear_sum_assignment(1.0 - cos)
    assert cos[rows, assign].sum() == pytest.approx(cos[rows, best].sum(), abs=1e-9)
    rival = np.where(np.arange(n) == assign[:, None], -1.0, cos).max(axis=1)
    np.testing.assert_allclose(res.per_neuron_margin, cos[rows, assign] - rival, atol=1e-12)


# -------------------------------------------------------- the bound solver

def _cost_matrices():
    rng = np.random.default_rng(17)
    tied = rng.integers(0, 3, size=(12, 12)).astype(np.float64)
    dead = rng.uniform(0.0, 2.0, size=(10, 10))
    dead[[1, 4, 5]] = 1.0  # a silent neuron has cosine 0, so cost 1, to every word
    return {
        "square": rng.uniform(size=(32, 32)),
        "wide": rng.uniform(size=(24, 32)),
        "tall": rng.uniform(size=(32, 24)),
        "tied": tied,
        "all-tied": np.ones((8, 8)),
        "constant-rows": dead,
        "constant-rows-tall": np.vstack([dead, np.ones((3, 10))]),
    }


@pytest.mark.parametrize("name", list(_cost_matrices()))
def test_bound_solver_answers_as_scipy(name):
    """align's solver returns scipy's own (row, col) arrays, ties and
    rectangular shapes included."""
    cost = _cost_matrices()[name]
    got = align.linear_sum_assignment(cost)
    want = linear_sum_assignment(cost)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype


def test_bound_solver_is_the_registered_module(monkeypatch):
    """With scipy's compiled module already registered, binding takes it
    without looking for its file."""
    def locate():
        raise AssertionError("looked for the file of a registered module")

    monkeypatch.setattr(align, "_solver_extension", locate)
    assert align._bind_solver() is sys.modules["scipy.optimize._lsap"].linear_sum_assignment


@pytest.mark.parametrize("found", ["nothing", "an unloadable file"])
def test_bound_solver_falls_back_to_the_public_import(found, monkeypatch, tmp_path):
    bogus = tmp_path / "_lsap.so"
    bogus.write_bytes(b"not a shared object")
    monkeypatch.setattr(align, "_solver_extension",
                        lambda: None if found == "nothing" else bogus)
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
    assert align._bind_solver() is linear_sum_assignment
    assert "scipy.optimize._lsap" not in sys.modules  # the unloadable file was not registered


def test_import_loads_only_the_assignment_solver():
    """A fresh interpreter that imports the package and its command line and
    then aligns never loads scipy.optimize, scipy.linalg or scipy.sparse, nor
    the report's jsonschema or the worker pool's modules; a later import of
    scipy.optimize reuses the loaded module and function."""
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import neuralign, neuralign.cli\n"
        "deferred = [m for m in ('jsonschema', 'multiprocessing', 'concurrent.futures')\n"
        "            if m in sys.modules]\n"
        "neuralign.align_to_matrix(np.eye(4), np.eye(4)[::-1])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "lsap = sys.modules['scipy.optimize._lsap']\n"
        "import scipy.optimize\n"
        "print(json.dumps({'loaded': loaded, 'deferred': deferred,\n"
        "    'same_module': sys.modules['scipy.optimize._lsap'] is lsap,\n"
        "    'same_function': scipy.optimize.linear_sum_assignment\n"
        "        is neuralign.align.linear_sum_assignment}))\n"
    )
    src = str(Path(align.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120)
    seen = json.loads(proc.stdout)
    for name in ("scipy.optimize", "scipy.linalg", "scipy.sparse"):
        assert name not in seen["loaded"]
    assert seen["deferred"] == []
    assert seen["same_module"] and seen["same_function"]


# ------------------------------------------------------------ dead neurons

def _result(perm, dead):
    perm = np.asarray(perm, dtype=np.int64)
    return AlignmentResult(
        perm_estimate=perm,
        per_neuron_margin=np.zeros(perm.size),
        collisions_resolved=0,
        dead=dead,
        layer_name="dense1",
    )


def test_accuracy_excludes_dead_positions_by_default():
    truth = np.array([2, 0, 1, 3])
    est = truth.copy()
    est[2] = 3  # neuron 2 truly sits at dead position 1; its estimate is wrong
    est[3] = 1
    res = _result(est, dead=[1])
    assert alignment_accuracy(res, truth) == pytest.approx(2 / 3)


def test_accuracy_all_dead_is_nan():
    res = _result([0, 1], dead=[0, 1])
    assert np.isnan(alignment_accuracy(res, [0, 1]))


def test_accuracy_length_check():
    with pytest.raises(ValueError, match="length"):
        alignment_accuracy(_result([0, 1], dead=[]), [0, 1, 2])


def test_dead_rows_surface_in_alignment(marked):
    """Silent rows are reported dead; they neither count as collisions nor
    set the margin, though every one of them ties on the same nearest word."""
    *_, cb, _ = marked
    ref = CENTROIDS[cb.codewords]
    obs = ref.copy()
    obs[[4, 6]] = 0.0
    res = align_to_matrix(obs, ref)
    assert res.dead == [4, 6]
    assert res.collisions_resolved == 0
    np.testing.assert_array_equal(res.per_neuron_margin[[4, 6]], 0.0)
    live = np.delete(res.per_neuron_margin, [4, 6])
    assert res.margin == live.min() > 0


def test_all_dead_rows_have_no_margin():
    res = align_to_matrix(np.zeros((3, 4)), CENTROIDS[np.eye(3, 4, dtype=int)])
    assert res.dead == [0, 1, 2] and res.margin is None


# ------------------------------------------------------ full aligned verify

def test_codebook_digest_mismatch_is_integrity_error(marked):
    net, _, record, _, _, ts = marked
    other = default_codebook(10, 16, 2, 1, seed=99)
    with pytest.raises(IntegrityError, match="codebook"):
        verify_with_alignment(net, ts, other, record)


def test_cached_digest_still_refuses_another_codebook(marked):
    """The codebook's digest is computed once, yet a trigger set that has
    passed the check with its own codebook is still refused with another."""
    net, _, record, _, cb, ts = marked
    assert verify_with_alignment(net, ts, cb, record).accepted
    for other in (default_codebook(10, 16, 2, 1, seed=99),
                  dataclasses.replace(cb, seed=cb.seed + 1)):
        with pytest.raises(IntegrityError, match="codebook"):
            verify_with_alignment(net, ts, other, record)
    assert verify_with_alignment(net, ts, cb, record).accepted


def test_cached_owner_arrays_are_read_only(marked):
    """Every array a cached value is computed from or stored in refuses
    writes, so no cache can fall out of step with its source; the codewords
    cannot even be made writeable again."""
    net, _, record, _, cb, ts = marked
    verify_with_alignment(net, ts, cb, record)
    centroids = ts.centroid_set.centroids
    targets = ts.unit_targets(cb)
    for arr in (cb.codewords, ts.inputs, ts.inputs64, record.key64, centroids, targets.rows):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    for arr in (cb.codewords, ts.inputs, centroids):
        with pytest.raises(ValueError):
            arr.flags.writeable = True
    np.testing.assert_array_equal(ts.inputs64, ts.inputs.astype(np.float64))
    # prepared once per trigger set, and equal to the targets scaled afresh
    assert ts.unit_targets(cb) is targets
    ref = centroids[cb.codewords]
    np.testing.assert_allclose(targets.rows, ref / np.linalg.norm(ref, axis=1, keepdims=True),
                               rtol=1e-15, atol=0)


_FRESH_VERDICTS = """
import json, sys
from pathlib import Path
from neuralign import (load_codebook, load_model, load_record, load_trigger_set,
                       verify_with_alignment)
from neuralign.pipeline import CODEBOOK_FILE, RECORD_FILE, suspect_file, trigger_file
out, mode, suspects = Path(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
verdicts = []
for kind, trial in suspects:
    av = verify_with_alignment(
        load_model(suspect_file(out, kind, trial)), load_trigger_set(out / trigger_file(mode)),
        load_codebook(out / CODEBOOK_FILE), load_record(out / RECORD_FILE))
    verdicts.append([av.alignment.perm_estimate.tolist(),
                     av.alignment.per_neuron_margin.tobytes().hex(), av.ov.ber, av.accepted])
print(json.dumps(verdicts))
"""


def test_alternating_trigger_sets_match_fresh_loads(tiny_run):
    """T1 and T2 share a codebook and a layer. Kept in one process and read
    in turn on every suspect, each gives the verdicts a fresh interpreter
    gives when it loads every artifact anew, so no value cached for one
    trigger set reaches the other."""
    cfg, out, _ = tiny_run
    suspects = [(a.kind, trial) for a in cfg.attacks for trial in range(a.trials)]
    src = str(Path(align.__file__).resolve().parents[1])
    fresh = {
        mode: json.loads(subprocess.run(
            [sys.executable, "-c", _FRESH_VERDICTS, str(out), mode, json.dumps(suspects)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout)
        for mode in TRIGGER_MODES
    }
    record = load_record(out / RECORD_FILE)
    cb = load_codebook(out / CODEBOOK_FILE)
    sets = {mode: load_trigger_set(out / trigger_file(mode)) for mode in TRIGGER_MODES}
    for i, (kind, trial) in enumerate(suspects):
        net = load_model(suspect_file(out, kind, trial))
        modes = TRIGGER_MODES if i % 2 == 0 else TRIGGER_MODES[::-1]
        for mode in modes:
            av = verify_with_alignment(net, sets[mode], cb, record)
            kept = [av.alignment.perm_estimate.tolist(),
                    av.alignment.per_neuron_margin.tobytes().hex(), av.ov.ber, av.accepted]
            assert kept == fresh[mode][i], (kind, trial, mode)


def test_destroyed_layer_refused_not_raised(marked):
    _, _, record, _, cb, ts = marked
    wrong_width = init_network(16, [32, 12, 4], seed=0)
    out = verify_with_alignment(wrong_width, ts, cb, record)
    assert not out.accepted and out.ov is None
    assert "neurons" in out.tamper_cause


def test_unreadable_layer_refused(marked):
    """A suspect whose dense1 is the output layer, or which has no dense1, is
    refused rather than raising."""
    _, _, record, _, cb, ts = marked
    for suspect in (init_network(16, [32, 4], seed=0), init_network(16, [4], seed=0)):
        out = verify_with_alignment(suspect, ts, cb, record)
        assert not out.accepted and out.ov is None and out.alignment is None
        assert out.tamper_cause


def test_key_width_mismatch_refused_after_alignment(marked):
    """A dense1 of the right width but another input width aligns, and the
    aligned readout still refuses the record's key width."""
    _, _, record, _, cb, ts = marked
    out = verify_with_alignment(init_network(16, [30, 10, 4], seed=0), ts, cb, record)
    assert out.alignment is not None and out.ov is None
    assert "record key expects" in out.tamper_cause


def test_record_of_another_layer_is_integrity_error(marked):
    """The alignment orders the trigger set's layer, so a record that marks
    another layer cannot be read through it."""
    net, _, _, _, cb, ts = marked
    with pytest.raises(IntegrityError, match="layer"):
        verify_with_alignment(net, ts, cb, make_record(net, "dense0", bits=16, seed=5))


def test_aligned_verdict_copies_no_network(marked, monkeypatch):
    """The aligned readout reads the suspect's rows in place: no network
    clone and no permutation happen during a verdict."""
    net, _, record, _, cb, ts = marked
    attacked = permute_neurons(net, random_permutation(10, seed=7, layer_name="dense1"))
    calls = Counter()
    clone = Network.clone

    def counted_clone(self):
        calls["clone"] += 1
        return clone(self)

    def counted_permute(*args, **kwargs):
        calls["permute_neurons"] += 1
        return permute_neurons(*args, **kwargs)

    monkeypatch.setattr(Network, "clone", counted_clone)
    monkeypatch.setattr(align, "permute_neurons", counted_permute)
    monkeypatch.setattr(attacks, "permute_neurons", counted_permute)
    out = verify_with_alignment(attacked, ts, cb, record)
    assert out.accepted and calls == Counter()


def _slow_verdict(net, ts, cb, record):
    """The aligned verdict by its definition, one plain step at a time: a
    float64 forward (a @ W.T + b, then max), a broadcast cosine to the
    targets, scipy's assignment, and verify on the copy apply_alignment
    restores. Returns (alignment, verdict)."""
    a = ts.inputs.astype(np.float64)
    for layer in net.layers[: net.layer_index(ts.layer_name) + 1]:
        a = a @ layer.weights.astype(np.float64).T + layer.biases.astype(np.float64)
        a = np.maximum(a, 0.0)
    obs, ref = a.T, ts.centroid_set.centroids[cb.codewords]
    norms = np.linalg.norm(obs, axis=1)[:, None] * np.linalg.norm(ref, axis=1)[None, :]
    dots = (obs[:, None, :] * ref[None, :, :]).sum(axis=2)
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
    _, assign = linear_sum_assignment(1.0 - cos)
    dead = [p for p in range(len(obs)) if np.abs(obs[p]).max() <= 1e-12]
    live = [p for p in range(len(obs)) if p not in dead]
    picks = Counter(int(cos[p].argmax()) for p in live)
    rival = np.where(np.arange(len(cos)) == assign[:, None], -1.0, cos).max(axis=1)
    alignment = AlignmentResult(
        perm_estimate=inverse_permutation(assign),
        per_neuron_margin=cos[np.arange(len(cos)), assign] - rival,
        collisions_resolved=sum(picks[int(cos[p].argmax())] > 1 for p in live),
        dead=dead,
        layer_name=ts.layer_name,
    )
    return alignment, verify(apply_alignment(net, alignment), record)


def test_aligned_verdict_equals_verdict_on_restored_copy(tiny_run):
    """On every tiny-run suspect of every attack and both schemes, the verdict
    read in place equals the slow verdict by definition: the same order, dead
    rows, collisions, bits, error rate and acceptance, and the same margins
    up to rounding."""
    cfg, out, _ = tiny_run
    record = load_record(out / RECORD_FILE)
    cb = load_codebook(out / CODEBOOK_FILE)
    checked = 0
    for mode in TRIGGER_MODES:
        ts = load_trigger_set(out / trigger_file(mode))
        for attack in cfg.attacks:
            for trial in range(attack.trials):
                net = load_model(suspect_file(out, attack.kind, trial))
                av = verify_with_alignment(net, ts, cb, record)
                alignment, ref = _slow_verdict(net, ts, cb, record)
                np.testing.assert_array_equal(av.alignment.perm_estimate,
                                              alignment.perm_estimate)
                assert av.alignment.dead == alignment.dead
                assert av.alignment.collisions_resolved == alignment.collisions_resolved
                np.testing.assert_allclose(av.alignment.per_neuron_margin,
                                           alignment.per_neuron_margin, rtol=0, atol=1e-12)
                assert (av.ov.ber, av.ov.accepted) == (ref.ber, ref.accepted)
                np.testing.assert_array_equal(av.ov.bits_extracted, ref.bits_extracted)
                checked += 1
    assert checked == len(TRIGGER_MODES) * sum(a.trials for a in cfg.attacks)


def test_wrong_input_dim_refused(marked):
    _, _, record, _, cb, ts = marked
    out = verify_with_alignment(init_network(12, [8, 10, 4], seed=0), ts, cb, record)
    assert not out.accepted and "inputs" in out.tamper_cause


def test_moderate_rescale_plus_permutation_verifies(marked):
    """Binary folds tolerate scales well inside (0.5, 2): the raw readout still
    lands in the right fold, so order and payload both come back."""
    net, _, record, _, cb, ts = marked
    n = net.layer("dense1").weights.shape[0]
    spec = random_permutation(n, seed=13, layer_name="dense1")
    scales = np.where(np.arange(n) % 2 == 0, 0.7, 1.6)
    attacked = permute_neurons(attack_rescale(net, "dense1", scales), spec)
    out = verify_with_alignment(attacked, ts, cb, record)
    assert out.accepted and out.ov.ber == 0.0
    assert alignment_accuracy(out.alignment, spec.perm) == 1.0


def test_extreme_rescale_recovers_order(marked):
    """Scales far outside the fold tolerance push half the neurons' activations
    into other folds, yet the cosine cost ignores each row's scale: the shipped
    triggers recover the exact order, with the same margins as unscaled. The
    still-rescaled weights can keep the payload projections distorted, so the
    verdict itself is not asserted."""
    net, _, record, _, cb, ts = marked
    n = net.layer("dense1").weights.shape[0]
    spec = random_permutation(n, seed=13, layer_name="dense1")
    scales = np.where(np.arange(n) % 2 == 0, 0.02, 1.0)
    attacked = permute_neurons(attack_rescale(net, "dense1", scales), spec)
    out = verify_with_alignment(attacked, ts, cb, record)
    assert out.tamper_cause is None
    assert alignment_accuracy(out.alignment, spec.perm) == 1.0
    plain = _align(permute_neurons(net, spec), ts, cb)
    np.testing.assert_allclose(out.alignment.per_neuron_margin, plain.per_neuron_margin,
                               atol=1e-5)


def test_rescale_preserves_task_function(marked):
    net, data, *_ = marked
    scales = np.linspace(0.2, 5.0, net.layer("dense1").weights.shape[0])
    attacked = attack_rescale(net, "dense1", scales)
    drift = np.abs(forward(net, data.inputs) - forward(attacked, data.inputs)).max()
    assert drift <= 1e-4
