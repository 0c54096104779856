"""End-to-end pipeline: stage isolation, determinism, report shape."""

import csv
import dataclasses
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import neuralign
from neuralign import parallel, pipeline, triggers
from neuralign.align import align_to_matrix, alignment_accuracy, verify_with_alignment
from neuralign.attacks import (
    PermutationSpec,
    attack_rescale,
    functional_drift,
    permute_neurons,
    random_permutation,
    random_scales,
)
from neuralign.coding import load_codebook, nearest_centroid
from neuralign.config import ATTACK_KINDS, ConfigError, ExperimentConfig
from neuralign.network import (
    DenseLayer,
    Network,
    TrainConfig,
    accuracy,
    init_network,
    prune_variant,
    train,
)
from neuralign.pipeline import (
    CODEBOOK_FILE,
    ENCODE_SUMMARY,
    GRID_N,
    GRID_T,
    MODEL_FILE,
    RECORD_FILE,
    REPORT_FILE,
    TRIGGER_MODES,
    align_summary_file,
    bootstrap_ordering,
    bootstrap_rate_ci,
    capacity_grid,
    derive_seed,
    forge_summary_file,
    format_capacity_grid,
    load_centroids,
    make_experiment_data,
    read_json,
    run_all,
    stage_align,
    stage_attack,
    stage_encode,
    stage_forge,
    stage_report,
    suspect_dir,
    suspect_file,
    trigger_file,
    validate_report,
    write_json,
)
from neuralign.serialize import file_sha256, load_model, save_model
from neuralign.triggers import layer_outputs, load_trigger_set
from neuralign.watermark import load_record
from conftest import networks_equal

PUBLISHED_GRID = {
    64: [4, 12, 21, 29, 38, 47, 56, 65],
    128: [4, 11, 20, 28, 37, 46, 55, 64],
}


# ------------------------------------------------------------- seed derivation

def test_derive_seed_golden_values():
    # frozen: changing the derivation silently re-seeds every experiment
    assert derive_seed(0, "data") == 11614811347330167572
    assert derive_seed(0, "split") == 749576159230600040
    assert derive_seed(7, "attack", "np", 3) == 14454463387286658196


def test_derive_seed_sensitivity():
    assert derive_seed(0, "a") != derive_seed(1, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")
    assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)
    assert derive_seed(0, "x") == derive_seed(0, "x")


def test_derive_seed_fits_uint64():
    for tags in [("data",), ("attack", "np", 99), (1, 2, 3)]:
        s = derive_seed(123, *tags)
        assert 0 <= s < 2**64


# ------------------------------------------------------------- capacity grid

def test_capacity_grid_matches_published_table():
    grid = capacity_grid(k=2, k_corrupted=1)
    assert tuple(grid["n_values"]) == GRID_N
    assert tuple(grid["t_values"]) == GRID_T
    for i, n in enumerate(grid["n_values"]):
        assert grid["bounds"][i] == PUBLISHED_GRID[n]


def test_format_capacity_grid_layout():
    text = format_capacity_grid(capacity_grid())
    title, header, *rows = text.splitlines()
    assert "K=2" in title
    assert header.split()[0] == "N\\T"
    assert [int(x) for x in header.split()[1:]] == list(GRID_T)
    assert len(rows) == len(GRID_N)
    for line, n in zip(rows, GRID_N):
        cells = [int(x) for x in line.split()]
        assert cells[0] == n and cells[1:] == PUBLISHED_GRID[n]


# --------------------------------------------------------------- bootstrap

def test_bootstrap_rate_ci_degenerate():
    assert bootstrap_rate_ci([1.0] * 20, seed=1) == (1.0, 1.0)
    assert bootstrap_rate_ci([0.0] * 20, seed=1) == (0.0, 0.0)


def test_bootstrap_rate_ci_brackets_point_estimate():
    outcomes = [1.0] * 15 + [0.0] * 5
    low, high = bootstrap_rate_ci(outcomes, seed=3)
    assert 0.0 <= low <= 0.75 <= high <= 1.0
    assert (low, high) == bootstrap_rate_ci(outcomes, seed=3)


def test_bootstrap_ordering_extremes():
    ones, zeros = [1.0] * 30, [0.0] * 30
    assert bootstrap_ordering(ones, zeros, seed=1) == 0.0  # t2 clearly below t1
    assert bootstrap_ordering(zeros, ones, seed=1) == 1.0
    assert bootstrap_ordering(ones, ones, seed=1) == 1.0  # ties count as >=


# ------------------------------------------------------------ report content

def test_report_validates_and_is_versioned(tiny_run):
    _, _, report = tiny_run
    validate_report(report)
    assert report["schema_version"] == 1
    assert report["generator"].startswith("neuralign ")
    for key in ("python", "numpy", "scipy"):
        assert report["versions"][key]


def test_report_rejects_missing_section(tiny_run):
    _, _, report = tiny_run
    broken = dict(report)
    broken.pop("codebook")
    with pytest.raises(jsonschema.ValidationError):
        validate_report(broken)
    extra = dict(report)
    extra["surprise"] = 1
    with pytest.raises(jsonschema.ValidationError):
        validate_report(extra)


def test_report_file_round_trips(tiny_run):
    _, out, report = tiny_run
    assert read_json(out / REPORT_FILE) == json.loads(json.dumps(report))


def test_artifact_hashes_match_files(tiny_run):
    _, out, report = tiny_run
    hashes = report["artifacts"]
    assert len(hashes) > 0
    for name in (MODEL_FILE, CODEBOOK_FILE):
        assert hashes[name] == file_sha256(out / name)
    suspect_keys = [k for k in hashes if k.startswith("suspects/")]
    # 4 attack kinds x 3 trials in the tiny config
    assert len(suspect_keys) == 12
    probe = suspect_keys[0]
    assert hashes[probe] == file_sha256(out / probe)


def test_watermark_section(tiny_run):
    cfg, _, report = tiny_run
    wm = report["watermark"]
    assert wm["ber_after_embed"] == 0.0 and wm["accepted_after_embed"]
    assert wm["bits"] == cfg.watermark.bits
    assert wm["accuracy_drop_heldout"] <= 0.05


def test_trigger_rows_normal_fails_synthesis_passes(tiny_run):
    _, _, report = tiny_run
    rows = {r["scheme"]: r for r in report["triggers"]}
    assert set(rows) == {"normal", "t1", "t2"}
    assert not rows["normal"]["passes_separation"]
    assert rows["t1"]["passes_separation"] and rows["t2"]["passes_separation"]
    # synthesized probes identify neurons; transcription does not
    assert rows["t1"]["shuffle_accuracy"] == 1.0
    assert rows["normal"]["shuffle_accuracy"] < 1.0
    for r in rows.values():
        assert r["mean_intra"] >= 0.0 and r["separation_bound"] > 0.0


def test_normal_row_aligns_raw_activations_as_a_verdict_does(tiny_run):
    """The normal baseline aligns the permuted model's raw activations on its
    probes against the owner's codes mapped to their centroids, as a verdict
    aligns a suspect against the triggers' targets."""
    cfg, out, report = tiny_run
    model = load_model(out / MODEL_FILE)
    layer = cfg.model.watermarked_layer
    cs = load_centroids(out)
    _, held = make_experiment_data(cfg)
    probes = held.inputs[: load_codebook(out / CODEBOOK_FILE).t].astype(np.float32)
    targets = cs.centroids[nearest_centroid(layer_outputs(model, layer, probes), cs)]
    accs = []
    for s in range(20):
        spec = random_permutation(model.layer(layer).out_dim,
                                  derive_seed(cfg.seed, "baseline", s), layer)
        observed = layer_outputs(permute_neurons(model, spec), layer, probes)
        accs.append(alignment_accuracy(align_to_matrix(observed, targets, layer), spec.perm))
    (row,) = [r for r in report["triggers"] if r["scheme"] == "normal"]
    assert row["shuffles"] == 20
    assert row["shuffle_accuracy"] == pytest.approx(np.nanmean(accs), abs=1e-12)


def test_attack_rows_permutation_fully_recovered(tiny_run):
    _, _, report = tiny_run
    rows = {(r["kind"], r["mode"]): r for r in report["attacks"]}
    assert len(rows) == 8
    for mode in ("t1", "t2"):
        np_row = rows[("np", mode)]
        assert np_row["accept_rate"] == 1.0
        assert np_row["no_align_accept_rate"] == 0.0
        assert np_row["mean_neuron_accuracy"] == 1.0
        assert np_row["mean_drift"] <= 1e-5
        assert rows[("rescale", mode)]["mean_drift"] <= 1e-5
    for kind, mode in rows:
        ci = rows[(kind, mode)]["accept_ci"]
        assert 0.0 <= ci[0] <= rows[(kind, mode)]["accept_rate"] <= ci[1] <= 1.0


def test_ordering_rows(tiny_run):
    _, _, report = tiny_run
    rows = {r["kind"]: r for r in report["orderings"]}
    assert set(rows) == {"ftp", "npp"}
    for r in rows.values():
        assert 0.0 <= r["confidence_t2_ge_t1"] <= 1.0
        assert r["accept_rate_t2"] >= r["accept_rate_t1"] - 1e-9


def test_timing_sections_cover_stages(tiny_run):
    _, out, report = tiny_run
    expected = {"train", "encode", "forge_t1", "forge_t2"}
    expected |= {f"attack_{k}" for k in ("np", "ftp", "npp", "rescale")}
    expected |= {f"align_{k}_{m}" for k in ("np", "ftp", "npp", "rescale") for m in ("t1", "t2")}
    assert set(report["timings"]) == expected
    assert all(v >= 0.0 for v in report["timings"].values())
    # the report stage times itself too, outside its own aggregate
    assert (out / "timings_report.json").exists()


def test_forge_timings_carry_the_descent_span(tiny_run):
    cfg, out, report = tiny_run
    # T2: the model plus 2 fine-tuned copies; both pruned copies fold into the model
    for mode, members in (("t1", 1), ("t2", 3)):
        entry = read_json(out / f"timings_forge_{mode}.json")
        span = entry["descent"]
        assert set(span) == {"workers", "rows", "steps", "members", "seconds"}
        assert span["rows"] == cfg.coding.t * cfg.triggers.restarts
        assert span["steps"] == cfg.triggers.steps
        assert span["workers"] >= 1 and 0.0 <= span["seconds"] <= entry["seconds"]
        assert span["members"] == members
        # the report keeps one number per stage
        assert report["timings"][f"forge_{mode}"] == entry["seconds"]


def test_train_refuses_a_directory_with_run_artifacts(tiny_run, tmp_path):
    """Training over an earlier run would leave its codebook, triggers and
    summaries next to the new config echo, so the report would mix runs."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    before = {p.name: p.stat().st_mtime_ns for p in copy.iterdir()}
    with pytest.raises(ValueError, match=f"run directory {copy} already holds run artifacts"):
        pipeline.stage_train(cfg, copy)
    with pytest.raises(ValueError, match=r"\(config.json\)"):
        run_all(cfg, copy)
    assert {p.name: p.stat().st_mtime_ns for p in copy.iterdir()} == before
    only_suspects = tmp_path / "suspects_only"
    (only_suspects / "suspects" / "np").mkdir(parents=True)
    with pytest.raises(ValueError, match=r"\(suspects\)"):
        pipeline.stage_train(cfg, only_suspects)


def test_run_all_validates_the_config_before_writing(tiny_config_factory, tmp_path):
    """An API run refuses an invalid config as the CLI does, before train
    writes its first file, instead of failing stages later in forge_t2."""
    cfg = tiny_config_factory()
    cfg.triggers.j = 3
    run = tmp_path / "run"
    run.mkdir()
    with pytest.raises(ConfigError, match=r"triggers\.j"):
        run_all(cfg, run)
    assert list(run.iterdir()) == []


def test_csv_tables(tiny_run):
    _, out, report = tiny_run
    with (out / "capacity_table.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "n64", "n128"]
    assert [int(r[0]) for r in rows[1:]] == list(GRID_T)
    assert [int(r[1]) for r in rows[1:]] == PUBLISHED_GRID[64]
    # the other two tables hold the report's rows, each cell as `csv` writes
    # the row's value (None as an empty cell), accept_ci as its two bounds
    def cells(row, columns):
        values = [v for c in columns for v in (row[c] if c == "accept_ci" else [row[c]])]
        return ["" if v is None else str(v) for v in values]

    with (out / "trigger_table.csv").open() as fh:
        rows = list(csv.reader(fh))
    columns = ["scheme", "mean_inter", "mean_intra", "separation_bound",
               "passes_separation", "dead_neurons", "shuffle_accuracy"]
    assert rows[0] == columns
    assert rows[1:] == [cells(r, columns) for r in report["triggers"]]
    assert [r[0] for r in rows[1:]] == ["normal", "t1", "t2"]
    with (out / "attack_table.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "mode", "trials", "no_align_accept_rate", "accept_rate",
                       "accept_ci_low", "accept_ci_high", "mean_neuron_accuracy"]
    columns = ["kind", "mode", "trials", "no_align_accept_rate", "accept_rate", "accept_ci",
               "mean_neuron_accuracy"]
    assert rows[1:] == [cells(r, columns) for r in report["attacks"]]
    assert len(rows) == 9


def test_load_centroids(tiny_run):
    cfg, out, _ = tiny_run
    cs = load_centroids(out)
    assert cs.k == cfg.coding.k
    assert cs.centroids.shape == (cfg.coding.k,)
    assert cs.min_gap > 0


# --------------------------------------------------- isolation / determinism

def test_stage_reruns_reproduce_artifacts(tiny_run, tmp_path):
    """A stage rerun from the same config and upstream artifacts yields
    byte-identical outputs."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    before_cb = file_sha256(copy / CODEBOOK_FILE)
    before_summary = (copy / ENCODE_SUMMARY).read_bytes()
    stage_encode(cfg, copy)
    assert file_sha256(copy / CODEBOOK_FILE) == before_cb
    assert (copy / ENCODE_SUMMARY).read_bytes() == before_summary

    align_path = copy / align_summary_file("np", "t1")
    before_align = align_path.read_bytes()
    align_path.unlink()
    stage_align(cfg, copy, "np", "t1")
    assert align_path.read_bytes() == before_align


def test_full_run_deterministic_modulo_timings(tiny_run, tmp_path):
    cfg, out, report = tiny_run
    second = run_all(cfg, tmp_path / "again")
    a, b = dict(report), dict(second)
    a.pop("timings"), b.pop("timings")
    assert json.loads(json.dumps(a)) == json.loads(json.dumps(b))
    assert report["artifacts"] == second["artifacts"]


def test_write_json_stable_bytes(tmp_path):
    payload = {"b": 1, "a": [1.5, None], "nested": {"z": True}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_json(p1, payload)
    write_json(p2, dict(reversed(list(payload.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # key order cannot leak into bytes
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"x": float("nan")})  # callers sanitize first


def test_t2_forge_without_variants_is_refused(tiny_run, tmp_path):
    """With no variants a T2 forge would write a second single-model set, and
    the T2-vs-T1 ordering would compare T1 with itself."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    before = sorted(p.name for p in copy.iterdir())
    before_t2 = (copy / trigger_file("t2")).read_bytes()
    cfg = dataclasses.replace(cfg, triggers=dataclasses.replace(cfg.triggers, j=0, steps=1))
    with pytest.raises(ValueError, match="variants"):
        stage_forge(cfg, copy, "t2")
    assert sorted(p.name for p in copy.iterdir()) == before
    assert (copy / trigger_file("t2")).read_bytes() == before_t2


def test_run_all_looks_up_benchmark_hooks_in_pipeline(tiny_config_factory, tmp_path, monkeypatch):
    """The benchmark's desk workload wraps these three names in the pipeline
    module's namespace to capture verdicts and ensembles; run_all must call
    them through it, in this process: at 3 trials per attack the attack
    stages fork children on a machine with more than one core, and a hook
    moved into a forked block would count nothing here."""
    calls = Counter()
    for name in ("stage_align", "verify_with_alignment", "make_variant_ensemble"):
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    cfg = tiny_config_factory()
    cfg.triggers.steps = 5
    run_all(cfg, tmp_path / "run")
    kinds, modes = len(cfg.attacks), len(pipeline.TRIGGER_MODES)
    assert all(a.trials == 3 for a in cfg.attacks)
    assert calls == {
        "stage_align": kinds * modes,
        "verify_with_alignment": kinds * modes * 3,
        "make_variant_ensemble": modes,
    }


def test_t2_forge_folds_every_pruned_variant(tiny_run, tmp_path, monkeypatch):
    """The pruned variants fold into the model's member of the gradient
    kernel, so a T2 forge with j variants runs 1 + j/2 members, not 1 + j. A
    change to prune_variant or to the ensemble order that stops the fold
    fails here."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    j = 6
    cfg = dataclasses.replace(cfg, triggers=dataclasses.replace(cfg.triggers, j=j, steps=1))
    kernels = []

    class Recorded(triggers.InputGradientKernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kernels.append(self)

    monkeypatch.setattr(triggers, "InputGradientKernel", Recorded)
    stage_forge(cfg, copy, "t2")
    # the float32 kernel that descends and the float64 one that scores
    assert [k.dtype for k in kernels] == [np.float32, np.float64]
    for kernel in kernels:
        assert len(kernel.members) == 1 + j // 2
        assert kernel.members[0].count == 1 + j // 2
        assert len({id(m.space) for m in kernel.members}) == 1  # all members share buffers


def test_forge_reads_its_triggers_back_on_one_blas_thread(tiny_run, tmp_path, monkeypatch):
    """After the descent, stage_forge reads the triggers back on one BLAS
    thread: at more threads a large enough read-back restarts OpenBLAS's
    thread server, which then spins on the cores the attack stage's blocks
    run on next."""
    if pipeline.block_count(2) < 2:
        pytest.skip("needs 2 usable cores and numpy's bundled OpenBLAS")
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    get_threads, set_threads, _ = parallel._blas_threads()
    read_back = pipeline.layer_outputs
    threads = []

    def recorded(*args, **kwargs):
        threads.append(get_threads())
        return read_back(*args, **kwargs)

    monkeypatch.setattr(pipeline, "layer_outputs", recorded)
    before = get_threads()
    set_threads(2)
    try:
        stage_forge(dataclasses.replace(cfg, triggers=dataclasses.replace(cfg.triggers, steps=1)),
                    copy, "t1")
        assert get_threads() == 2  # the process has its own count back
    finally:
        set_threads(before)
    assert threads == [1]


# --------------------------------------------------------- observability

def test_forge_summary_counts_neurons_past_radius(tiny_run):
    cfg, out, _ = tiny_run
    cb = load_codebook(out / CODEBOOK_FILE)
    model = load_model(out / MODEL_FILE)
    radius = (cb.d_min - 1) // 2
    for mode in TRIGGER_MODES:
        summary = read_json(out / forge_summary_file(mode))
        ts = load_trigger_set(out / trigger_file(mode))
        raw = layer_outputs(model, cfg.model.watermarked_layer, ts.inputs)
        errors = (nearest_centroid(raw, load_centroids(out)) != cb.codewords).sum(axis=1)
        assert summary["residual_errors_per_neuron"] == errors.tolist()
        assert sum(summary["residual_errors_per_neuron"]) == summary["residual_symbol_errors"]
        assert summary["neurons_past_radius"] == int((errors > radius).sum())


def test_align_records_carry_decode_margin(tiny_run, tmp_path):
    """margin = the smallest per-neuron cosine margin over live positions;
    null where the alignment was refused, and min_margin skips those records."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    # one suspect loses an input column: its codes cannot be read, so the
    # alignment is refused while the plain weight readout still works
    path = suspect_file(copy, "np", 0)
    suspect = load_model(path)
    head = suspect.layers[0]
    cut = DenseLayer(head.name, head.weights[:, :-1], head.biases, head.activation)
    save_model(Network([cut, *suspect.layers[1:]]), path)
    summary = stage_align(cfg, copy, "np", "t1")

    cb = load_codebook(copy / CODEBOOK_FILE)
    ts = load_trigger_set(copy / trigger_file("t1"))
    record = load_record(copy / RECORD_FILE)
    margins = []
    for rec in summary["records"]:
        av = verify_with_alignment(load_model(suspect_file(copy, "np", rec["trial"])), ts, cb, record)
        if av.alignment is None:
            assert rec["trial"] == 0 and rec["margin"] is None and rec["perm_estimate"] is None
            continue
        live = np.delete(av.alignment.per_neuron_margin, av.alignment.dead)
        assert rec["margin"] == live.min() == av.alignment.margin
        margins.append(rec["margin"])
    assert len(margins) == len(summary["records"]) - 1
    assert summary["min_margin"] == min(margins)


def test_align_records_carry_the_estimated_order(tiny_run):
    """Each align record keeps the order verify_with_alignment estimates for
    its suspect, and its neuron_accuracy is that order's agreement with the
    attack's permutation over the live neurons."""
    cfg, out, _ = tiny_run
    cb = load_codebook(out / CODEBOOK_FILE)
    record = load_record(out / RECORD_FILE)
    for mode in TRIGGER_MODES:
        ts = load_trigger_set(out / trigger_file(mode))
        for kind in ATTACK_KINDS:
            perms = [r["perm"] for r in read_json(out / pipeline.attack_summary_file(kind))["records"]]
            for rec in read_json(out / align_summary_file(kind, mode))["records"]:
                suspect = load_model(suspect_file(out, kind, rec["trial"]))
                alignment = verify_with_alignment(suspect, ts, cb, record).alignment
                assert rec["perm_estimate"] == alignment.perm_estimate.tolist()
                perm = np.array(perms[rec["trial"]])
                live = ~np.isin(perm, alignment.dead)
                correct = np.array(rec["perm_estimate"]) == perm
                assert rec["neuron_accuracy"] == float(correct[live].mean())


def test_stages_keep_the_benchmark_capture(tiny_run, tmp_path, monkeypatch):
    """The benchmark's desk workload captures each verdict and the T2 ensemble
    by replacing `pipeline.verify_with_alignment` and
    `pipeline.make_variant_ensemble`: stage_align must look the former up at
    call time and call it once per suspect, in trial order, in the calling
    process, and stage_forge(t2) must call the latter once, in-process."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    verdict_calls, ensemble_calls = [], []
    real_verify, real_ensemble = pipeline.verify_with_alignment, pipeline.make_variant_ensemble

    def record_verdict(suspect, *args, **kwargs):
        verdict_calls.append((os.getpid(), suspect))
        return real_verify(suspect, *args, **kwargs)

    def record_ensemble(*args, **kwargs):
        ensemble_calls.append(os.getpid())
        return real_ensemble(*args, **kwargs)

    monkeypatch.setattr(pipeline, "verify_with_alignment", record_verdict)
    monkeypatch.setattr(pipeline, "make_variant_ensemble", record_ensemble)
    for kind in ATTACK_KINDS:
        verdict_calls.clear()
        summary = stage_align(cfg, copy, kind, "t1")
        trials = [rec["trial"] for rec in read_json(copy / pipeline.attack_summary_file(kind))["records"]]
        assert [rec["trial"] for rec in summary["records"]] == trials
        assert [pid for pid, _ in verdict_calls] == [os.getpid()] * len(trials)
        for (_, suspect), trial in zip(verdict_calls, trials):
            assert networks_equal(suspect, load_model(suspect_file(copy, kind, trial)))
    stage_forge(cfg, copy, "t2")
    assert ensemble_calls == [os.getpid()]


def test_benchmark_tracer_reads_the_align_stage(tiny_run, tmp_path, perfbench_module):
    """The benchmark's tracer, run around an align stage and one file-to-verdict
    check, still finds what its counters read: the observed matrix passed
    first to align_to_matrix and the payload read_container returns."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    owner = [copy / RECORD_FILE, copy / CODEBOOK_FILE, copy / trigger_file("t1")]
    suspects = [suspect_file(copy, "np", i) for i in range(cfg.attacks[0].trials)]
    tracer = perfbench_module("spans").Tracer()
    with tracer:
        pipeline.stage_align(cfg, copy, "np", "t1")
        av = neuralign.verify_with_alignment(
            neuralign.load_model(suspects[0]), neuralign.load_trigger_set(owner[2]),
            neuralign.load_codebook(owner[1]), neuralign.load_record(owner[0]),
        )
    assert av.ov is not None
    _, _, calls = tracer.totals()
    assert calls["align.verify_with_alignment"] == len(suspects) + 1
    assert tracer.counts["assign_cells"] > 0
    read = 2 * sum(p.stat().st_size for p in owner) + sum(p.stat().st_size for p in suspects)
    assert tracer.counts["bytes_read"] == read + suspects[0].stat().st_size


def test_benchmark_tracer_counts_the_forge_stage(tiny_run, tmp_path, perfbench_module):
    """The benchmark's tracer, run around a forge stage, still finds what its
    forge counters read: the descent settings passed fifth to
    synthesize_trigger_set and the converged flags it returns."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    tracer = perfbench_module("spans").Tracer()
    with tracer:
        summary = pipeline.stage_forge(cfg, copy, "t1")
    _, _, calls = tracer.totals()
    assert calls["triggers.synthesize_trigger_set"] == 1
    assert tracer.counts["descent_steps"] == cfg.triggers.steps
    assert tracer.counts["converged"] == summary["converged"]


def test_align_refuses_a_suspect_of_another_width(tiny_run, tmp_path):
    """A suspect whose watermarked layer lost a neuron is recorded as refused,
    plainly and aligned, instead of aborting the align stage."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    widths = list(cfg.model.widths)
    widths[cfg.watermarked_index()] -= 1
    narrow = init_network(cfg.data.input_dim, [*widths, cfg.data.classes], seed=0)
    save_model(narrow, suspect_file(copy, "np", 0))
    summary = stage_align(cfg, copy, "np", "t1")
    refused, *rest = summary["records"]
    assert refused["no_align_ber"] is None and refused["no_align_accepted"] is False
    assert not refused["accepted"] and refused["ber"] is None
    assert "neurons" in refused["tamper_cause"] and refused["margin"] is None
    assert rest and all(r["accepted"] for r in rest)
    assert summary["no_align_accept_rate"] == 0.0
    assert summary["accept_rate"] == pytest.approx(len(rest) / (len(rest) + 1))


# ------------------------------------------------- attack trials in blocks

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _attack_files(cfg, model_path, out, kinds) -> dict:
    """Every kind's attack stage into a fresh run directory holding only the
    model: relative path -> bytes of each suspect and summary, plus each
    stage's trial span."""
    out.mkdir()
    shutil.copy(model_path, out / MODEL_FILE)
    spans = {}
    for kind in kinds:
        stage_attack(cfg, out, kind)
        spans[kind] = read_json(out / f"timings_attack_{kind}.json")["trials"]
    files = {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != MODEL_FILE and not p.name.startswith("timings_")
    }
    return files, spans


def _attack_alone_and_split(cfg, model_path, tmp_path, monkeypatch):
    kinds = [a.kind for a in cfg.attacks]
    with monkeypatch.context() as m:
        m.setattr(parallel, "_blas_threads", lambda: None)
        alone, alone_spans = _attack_files(cfg, model_path, tmp_path / "alone", kinds)
    split, split_spans = _attack_files(cfg, model_path, tmp_path / "split", kinds)
    assert sorted(kinds) == sorted(ATTACK_KINDS)
    assert len(alone) == sum(a.trials for a in cfg.attacks) + len(kinds)
    assert split.keys() == alone.keys()
    assert all(split[name] == alone[name] for name in alone)
    for a in cfg.attacks:
        assert alone_spans[a.kind]["workers"] == 1
        assert split_spans[a.kind]["workers"] == min(CORES, a.trials)
    return split


def test_attack_split_equals_in_process_on_tiny_config(tiny_run, tmp_path, monkeypatch):
    """Suspects and summaries of all four kinds are the same bytes whether the
    trials run in blocks over the cores or in one process, and the same as
    the tiny run's own."""
    cfg, out, _ = tiny_run
    split = _attack_alone_and_split(cfg, out / MODEL_FILE, tmp_path, monkeypatch)
    assert all(data == (out / name).read_bytes() for name, data in split.items())


def test_attack_split_equals_in_process_at_default_shapes(tmp_path, monkeypatch):
    """Default data and widths (48-128-32-16-4), a few trials of each kind."""
    cfg = ExperimentConfig()
    cfg.attacks = [dataclasses.replace(a, trials=5) for a in cfg.attacks]
    train_ds, _ = make_experiment_data(cfg)
    net = train(
        init_network(cfg.data.input_dim, [*cfg.model.widths, cfg.data.classes], seed=1),
        train_ds, TrainConfig(epochs=1, lr=0.05, seed=1),
    )
    save_model(net, tmp_path / "model.naf")
    _attack_alone_and_split(cfg, tmp_path / "model.naf", tmp_path, monkeypatch)


@pytest.mark.parametrize("failing, lowest", [
    ({4, 1}, 1),  # one failure in each block: the first block's
    ({5, 3}, 3),  # both in the last block: its first
])
def test_attack_split_raises_what_one_process_raises(tiny_run, tmp_path, monkeypatch,
                                                     failing, lowest):
    cfg, out, _ = tiny_run
    forge = pipeline._forge_suspect
    failing_seeds = {derive_seed(cfg.seed, "attack", "np", i): i for i in failing}

    def failing_forge(a, model, layer, spec, data, trial_seed):
        if trial_seed in failing_seeds:
            raise ValueError(f"trial {failing_seeds[trial_seed]} failed")
        return forge(a, model, layer, spec, data, trial_seed)

    monkeypatch.setattr(pipeline, "_forge_suspect", failing_forge)
    raised = []
    for lookup in (lambda: None, parallel._blas_threads):
        monkeypatch.setattr(parallel, "_blas_threads", lookup)
        run = tmp_path / f"run{len(raised)}"
        run.mkdir()
        shutil.copy(out / MODEL_FILE, run / MODEL_FILE)
        with pytest.raises(ValueError) as info:
            stage_attack(cfg, run, "np", trials=6)
        raised.append(str(info.value))
    assert raised == [f"trial {lowest} failed"] * 2
    if CORES < 2:
        return
    if lowest < 6 // min(CORES, 6):  # block 0's trial: raised in this process as it was raised
        assert info.value.__cause__ is None
        assert info.traceback[-1].name == "failing_forge"
    else:  # the child's error carries the child's traceback
        assert isinstance(info.value.__cause__, parallel.RemoteTraceback)
        assert "in failing_forge" in str(info.value.__cause__)
        assert f"ValueError: trial {lowest} failed" in str(info.value.__cause__)


@pytest.mark.parametrize("case", ["one core", "no blas setter", "one trial"])
def test_attack_without_a_pool_starts_no_child(case, tiny_run, tmp_path, monkeypatch):
    cfg, out, _ = tiny_run
    shutil.copy(out / MODEL_FILE, tmp_path / MODEL_FILE)

    def no_fork():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if case == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "no blas setter":
        monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
    trials = 1 if case == "one trial" else 3
    summary = stage_attack(cfg, tmp_path, "rescale", trials=trials)
    assert read_json(tmp_path / "timings_attack_rescale.json")["trials"]["workers"] == 1
    full = read_json(out / pipeline.attack_summary_file("rescale"))
    assert summary["records"] == full["records"][:trials]


def test_attack_records_read_drift_and_accuracy_of_each_suspect(tiny_run):
    """Drift and accuracy come from one forward pass per suspect, and equal
    what `functional_drift` and `accuracy` give for the saved suspect."""
    cfg, out, _ = tiny_run
    model = load_model(out / MODEL_FILE)
    _, held = make_experiment_data(cfg)
    for kind in ATTACK_KINDS:
        summary = read_json(out / pipeline.attack_summary_file(kind))
        assert summary["base_accuracy"] == accuracy(model, held)
        for rec in summary["records"]:
            suspect = load_model(suspect_file(out, kind, rec["trial"]))
            assert rec["drift"] == functional_drift(model, suspect, held.inputs)
            assert rec["accuracy"] == accuracy(suspect, held)


def test_every_suspect_is_one_transform_then_the_trial_permutation(tiny_run):
    """Each kind's suspect is its transform of the marked model, with the
    trial's derived seeds, then the recorded permutation of the watermarked
    layer, which is the trial's derived one."""
    cfg, out, _ = tiny_run
    model = load_model(out / MODEL_FILE)
    _, held = make_experiment_data(cfg)
    layer = cfg.model.watermarked_layer
    n = model.layer(layer).out_dim
    for a in cfg.attacks:
        for rec in read_json(out / pipeline.attack_summary_file(a.kind))["records"]:
            trial_seed = derive_seed(cfg.seed, "attack", a.kind, rec["trial"])
            spec = random_permutation(n, derive_seed(trial_seed, "perm"), layer)
            assert rec["perm"] == spec.perm.tolist()
            if a.kind == "np":
                transformed = model
            elif a.kind == "ftp":
                transformed = train(model, held, TrainConfig(
                    epochs=a.epochs, lr=a.lr, seed=derive_seed(trial_seed, "finetune"),
                ))
            elif a.kind == "npp":
                transformed = prune_variant(model, layer, a.fraction)
            else:
                scales = random_scales(n, derive_seed(trial_seed, "scales"),
                                       a.scale_low, a.scale_high)
                transformed = attack_rescale(model, layer, scales)
            expected = permute_neurons(transformed, PermutationSpec(layer, rec["perm"]))
            suspect = load_model(suspect_file(out, a.kind, rec["trial"]))
            assert networks_equal(suspect, expected), (a.kind, rec["trial"])
    assert {a.kind for a in cfg.attacks} == set(ATTACK_KINDS)


def test_attack_timings_carry_the_trial_span(tiny_run):
    cfg, out, report = tiny_run
    for a in cfg.attacks:
        entry = read_json(out / f"timings_attack_{a.kind}.json")
        span = entry["trials"]
        assert set(span) == {"workers", "trials", "seconds"}
        assert span["trials"] == a.trials and span["workers"] == min(CORES, a.trials)
        assert 0.0 <= span["seconds"] <= entry["seconds"]
        assert report["timings"][f"attack_{a.kind}"] == entry["seconds"]


def test_attack_replaces_the_suspects_of_an_earlier_longer_attack(tiny_run, tmp_path):
    """A 1-trial attack over a 3-trial one leaves one suspect, so the report
    hashes only the suspects the attack summary lists."""
    cfg, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    stage_attack(cfg, copy, "np", trials=1)
    assert [p.name for p in suspect_dir(copy, "np").iterdir()] == ["trial_000.naf"]
    report = stage_report(cfg, copy)
    assert [name for name in report["artifacts"] if name.startswith("suspects/np/")] == [
        "suspects/np/trial_000.naf"
    ]
