"""Acceptance gate: every shipping claim checked at its stated tolerance.

Each test prints one [PASS]/[FAIL] line outside pytest capture, so the
verdicts always reach the terminal, and then asserts. The module-scoped
fixture runs the full default-configuration pipeline twice, which takes a few
minutes; everything else reads those artifacts.
"""

import json
import time

import numpy as np
import pytest

from neuralign.align import align_to_matrix, verify_with_alignment
from neuralign.attacks import attack_rescale, permute_neurons, random_permutation, random_scales
from neuralign.coding import load_codebook
from neuralign.config import ExperimentConfig
from neuralign.network import InputGradientKernel, forward, init_network
from neuralign.pipeline import (
    CODEBOOK_FILE, MODEL_BASE_FILE, MODEL_FILE, RECORD_FILE, TRIGGER_MODES, capacity_grid,
    load_centroids, run_all, trigger_file,
)
from neuralign.serialize import load_model
from neuralign.triggers import load_trigger_set
from neuralign.watermark import load_record

PUBLISHED_GRID = {
    64: [4, 12, 21, 29, 38, 47, 56, 65],
    128: [4, 11, 20, 28, 37, 46, 55, 64],
}


def _verdict(capfd, num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capfd.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Two identical full-scale runs; the second exists for the determinism check."""
    cfg = ExperimentConfig()
    base = tmp_path_factory.mktemp("desk")
    first = run_all(cfg, base / "one")
    second = run_all(cfg, base / "two")
    return cfg, base / "one", base / "two", first, second


def test_criterion_1_capacity_table_bit_exact(capfd):
    start = time.perf_counter()
    grid = capacity_grid(k=2, k_corrupted=1)
    elapsed = time.perf_counter() - start
    exact = all(
        grid["bounds"][i] == PUBLISHED_GRID[n] for i, n in enumerate(grid["n_values"])
    )
    ok = exact and elapsed < 1.0
    _verdict(capfd, 1, ok, f"capacity table 16/16 entries exact={exact} in {elapsed:.3f}s (<1s)")
    assert ok


def test_criterion_2_equivalence_attacks_preserve_function(desk, capfd):
    cfg, out, *_ = desk
    model = load_model(out / MODEL_FILE)
    layer = cfg.model.watermarked_layer
    n = model.layer(layer).out_dim
    spec = next(a for a in cfg.attacks if a.kind == "rescale")
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        probes = rng.standard_normal((1000, cfg.data.input_dim))
        reference = forward(model, probes)
        permuted = permute_neurons(model, random_permutation(n, seed=seed, layer_name=layer))
        scales = random_scales(n, seed=seed, low=spec.scale_low, high=spec.scale_high)
        rescaled = attack_rescale(model, layer, scales)
        for attacked in (permuted, rescaled):
            drift = float(np.abs(forward(attacked, probes) - reference).max())
            worst = max(worst, drift)
    ok = worst <= 1e-5
    _verdict(capfd, 2, ok, f"NP/RESCALE max output drift {worst:.2e} over 1000 probes x 20 seeds (<=1e-5)")
    assert ok


def test_criterion_3_ecc_radius_property(desk, capfd):
    """The aligner verdicts use recovers any neuron order exactly while every
    neuron's code is within the radius of its word, each symbol read as its
    fold centroid."""
    _, out, *_ = desk
    cb = load_codebook(out / CODEBOOK_FILE)
    centroids = load_centroids(out).centroids
    assert cb.k == 2  # a flip moves a symbol by decode distance 1
    radius = (cb.d_min - 1) // 2
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(1000):
        perm = rng.permutation(cb.n)
        observed = np.empty_like(cb.codewords)
        observed[perm] = cb.codewords  # word i read at position perm[i]
        for row in observed:
            flips = rng.choice(cb.t, size=int(rng.integers(0, radius + 1)), replace=False)
            row[flips] = 1 - row[flips]
        result = align_to_matrix(centroids[observed], centroids[cb.codewords])
        hits += np.array_equal(result.perm_estimate, perm)
    ok = hits == 1000
    _verdict(capfd, 3, ok, (
        f"assignment decode exact {hits}/1000 permuted codebooks with <= {radius} "
        f"flips per word (d_min={cb.d_min})"
    ))
    assert ok


def test_criterion_4_np_recovery(desk, capfd):
    *_, report, _ = desk
    row = next(r for r in report["attacks"] if r["kind"] == "np" and r["mode"] == "t1")
    ok = (
        row["trials"] == 100
        and row["no_align_accept_rate"] == 0.0
        and row["accept_rate"] >= 0.95
        and row["mean_neuron_accuracy"] >= 0.95
    )
    _verdict(capfd, 4, ok, (
        f"NP x{row['trials']}: accept {row['no_align_accept_rate']:.0%} unaligned "
        f"(=0%), {row['accept_rate']:.0%} aligned (>=95%), "
        f"neuron accuracy {row['mean_neuron_accuracy']:.1%} (>=95%)"
    ))
    assert ok


def test_criterion_5_robustness_ordering(desk, capfd):
    *_, report, _ = desk
    rows = {r["kind"]: r for r in report["orderings"]}
    details = []
    ok = set(rows) == {"ftp", "npp"}
    for kind in ("ftp", "npp"):
        r = rows[kind]
        ok = ok and r["confidence_t2_ge_t1"] >= 0.95
        details.append(
            f"{kind} t1={r['accept_rate_t1']:.0%} t2={r['accept_rate_t2']:.0%} "
            f"conf={r['confidence_t2_ge_t1']:.2f}"
        )
    _verdict(capfd, 5, ok, "T2 accept >= T1 accept at 95% bootstrap confidence: " + "; ".join(details))
    assert ok


def test_criterion_6_separation_contrast(desk, capfd):
    *_, report, _ = desk
    rows = {r["scheme"]: r for r in report["triggers"]}
    t1, normal = rows["t1"], rows["normal"]
    ok = t1["passes_separation"] and not normal["passes_separation"]
    _verdict(capfd, 6, ok, (
        f"T1 intra {t1['mean_intra']:.4f} <= bound {t1['separation_bound']:.4f}; "
        f"normal probes intra {normal['mean_intra']:.4f} fails the bound"
    ))
    assert ok


def test_criterion_7_gradient_correctness(capfd):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        net = init_network(6, [10, 7, 3], seed=seed)
        targets = rng.normal(size=7)
        x = rng.normal(size=6)
        grads, _ = InputGradientKernel([net], targets[None, :], "dense1")(x[None, :])
        analytic = grads[0]
        numeric = np.zeros_like(x)
        h = 1e-6
        for i in range(x.size):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            _, lu = InputGradientKernel([net], targets[None, :], "dense1")(up[None, :])
            _, ld = InputGradientKernel([net], targets[None, :], "dense1")(down[None, :])
            numeric[i] = (lu[0] - ld[0]) / (2 * h)
        scale = max(float(np.abs(numeric).max()), 1e-12)
        worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    ok = worst <= 1e-3
    _verdict(capfd, 7, ok, f"input gradient vs central differences: worst relative error {worst:.2e} (<=1e-3, 20 nets)")
    assert ok


def test_criterion_8_deterministic_reports(desk, capfd):
    *_, first, second = desk
    a, b = dict(first), dict(second)
    a.pop("timings"), b.pop("timings")
    dump = lambda r: json.dumps(r, indent=2, sort_keys=True)
    ok = dump(a) == dump(b)
    _verdict(capfd, 8, ok, "two full runs byte-identical modulo timing fields" if ok
             else "reports differ beyond timing fields")
    assert ok


def test_criterion_9_rescale_neuron_order(desk, capfd):
    """Rescaling cannot hide a neuron: the cosine cost ignores each row's
    scale. The rescale accept rate itself is a known failure and not gated."""
    *_, report, _ = desk
    rows = {r["mode"]: r for r in report["attacks"] if r["kind"] == "rescale"}
    ok = set(rows) == set(TRIGGER_MODES) and all(
        r["mean_neuron_accuracy"] >= 0.95 for r in rows.values()
    )
    _verdict(capfd, 9, ok, "RESCALE neuron accuracy " + "; ".join(
        f"{m}={r['mean_neuron_accuracy']:.1%} (accept {r['accept_rate']:.0%})"
        for m, r in sorted(rows.items())
    ) + " (>=95%)")
    assert ok


def test_criterion_10_non_owner_model_refused(desk, capfd):
    """The owner's unmarked base model, permuted, is refused by both schemes:
    alignment does not manufacture a watermark."""
    cfg, out, *_ = desk
    base = load_model(out / MODEL_BASE_FILE)
    record = load_record(out / RECORD_FILE)
    cb = load_codebook(out / CODEBOOK_FILE)
    layer = cfg.model.watermarked_layer
    n = base.layer(layer).out_dim
    accepted = {}
    for mode in TRIGGER_MODES:
        ts = load_trigger_set(out / trigger_file(mode))
        accepted[mode] = sum(
            verify_with_alignment(
                permute_neurons(base, random_permutation(n, seed=seed, layer_name=layer)),
                ts, cb, record,
            ).accepted
            for seed in range(20)
        )
    ok = all(a == 0 for a in accepted.values())
    _verdict(capfd, 10, ok, "unmarked base x20 permutations accepted " + "; ".join(
        f"{m}={a}/20" for m, a in sorted(accepted.items())
    ) + " (=0)")
    assert ok
