"""End-to-end experiment stages: train, encode, forge, attack, align, report.

Every stage is a standalone function over (config, run directory). A stage
reads only artifacts earlier stages declared, derives all of its randomness
from the config seed via `derive_seed`, and writes byte-deterministic outputs,
so deleting any intermediate file and re-running just that stage reproduces it
bit for bit. Wall-clock timings go to separate `timings_*.json` files that are
deliberately excluded from that guarantee; the final report folds them into a
single top-level "timings" object and is otherwise reproducible.

`jsonschema`, `csv` and `platform` serve only the report stage and are
imported there (`validate_report` and the validator it builds once,
`stage_report`, `_write_csv`), so a process that writes no report does not
pay for `jsonschema`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from .align import align_to_matrix, alignment_accuracy, verify_with_alignment
from .attacks import attack_rescale, permute_neurons, random_permutation, random_scales
from .coding import (
    Codebook,
    CentroidSet,
    compute_centroids,
    default_codebook,
    load_codebook,
    max_correctable,
    nearest_centroid,
    save_codebook,
)
from .config import (
    ATTACK_KINDS,
    DataSpec,
    ExperimentConfig,
    config_to_dict,
    save_config,
    validate_config,
)
from .data import make_blobs, split_dataset
from .network import (
    Dataset,
    TrainConfig,
    TrainingDivergenceError,
    _first_changed_layer,
    _forward_layers,
    accuracy,
    init_network,
    prune_variant,
    train,
    train_copies,
)
from .parallel import block_count, run_blocks
from .serialize import file_sha256, load_model, save_model
from .triggers import (
    MODE_ENSEMBLE,
    MODE_SINGLE,
    layer_outputs,
    load_trigger_set,
    loss_budget,
    make_variant_ensemble,
    save_trigger_set,
    separation_stats,
    synthesize_trigger_set,
)
from .watermark import TamperError, embed, load_record, make_record, save_record, verify

TRIGGER_MODES = (MODE_SINGLE, MODE_ENSEMBLE)

# capacity grid printed by the encode stage: layer widths x code lengths
GRID_N = (64, 128)
GRID_T = tuple(range(20, 161, 20))

CONFIG_FILE = "config.json"
MODEL_BASE_FILE = "model_base.naf"
MODEL_FILE = "model.naf"
RECORD_FILE = "record.nar"
CODEBOOK_FILE = "codebook.nac"
TRAIN_SUMMARY = "train_summary.json"
ENCODE_SUMMARY = "encode_summary.json"
REPORT_FILE = "report.json"
# what the stages write into a run directory; train refuses one holding any
RUN_ARTIFACTS = (
    CONFIG_FILE, MODEL_BASE_FILE, MODEL_FILE, RECORD_FILE, CODEBOOK_FILE, TRAIN_SUMMARY,
    ENCODE_SUMMARY, REPORT_FILE, "triggers_*.nat", "*_summary_*.json", "timings_*.json",
    "*_table.csv", "suspects",
)

REPORT_SCHEMA_VERSION = 1

BOOTSTRAP_RESAMPLES = 1000
CI_ALPHA = 0.05  # the accept-rate interval covers 1 - CI_ALPHA
BASELINE_SHUFFLES = 20  # permutations the normal-probe baseline aligns


def trigger_file(mode: str) -> str:
    return f"triggers_{mode}.nat"


def forge_summary_file(mode: str) -> str:
    return f"forge_summary_{mode}.json"


def attack_summary_file(kind: str) -> str:
    return f"attack_summary_{kind}.json"


def align_summary_file(kind: str, mode: str) -> str:
    return f"align_summary_{kind}_{mode}.json"


def suspect_dir(out: Path, kind: str) -> Path:
    return Path(out) / "suspects" / kind


def suspect_file(out: Path, kind: str, trial: int) -> Path:
    # one Path call: each `/` builds and parses another Path
    return Path(out, "suspects", kind, f"trial_{trial:03d}.naf")


def derive_seed(base: int, *tags) -> int:
    """Stable 64-bit stream seed for a named purpose under one master seed."""
    h = hashlib.sha256(str(int(base)).encode())
    for tag in tags:
        h.update(b"/")
        h.update(str(tag).encode())
    return int.from_bytes(h.digest()[:8], "little")


def _jsonable(x):
    """NaN has no JSON spelling; report it as null."""
    if x is None:
        return None
    x = float(x)
    return None if math.isnan(x) else x


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


class _StageTimer:
    """Record a stage's wall time off to the side, outside the artifact set,
    with any inner spans the stage adds to `spans` (name -> dict)."""

    def __init__(self, out: Path, stage: str):
        self.path = Path(out) / f"timings_{stage}.json"
        self.stage = stage
        self.spans: dict = {}

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            self.path.write_text(
                json.dumps({"stage": self.stage, "seconds": elapsed, **self.spans}) + "\n"
            )
        return False


def make_experiment_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The train/heldout split of cfg's blob data. Any stage can ask for it:
    a process builds it once for the seed and `DataSpec` asked for last, and
    every stage then shares the same arrays, so they are read-only."""
    return _experiment_data(cfg.seed, *dataclasses.astuple(cfg.data))


@lru_cache(maxsize=1)
def _experiment_data(seed: int, *data) -> tuple[Dataset, Dataset]:
    spec = DataSpec(*data)
    ds = make_blobs(
        spec.samples,
        spec.input_dim,
        spec.classes,
        spread=spec.spread,
        seed=derive_seed(seed, "data"),
    )
    split = split_dataset(ds, spec.holdout, seed=derive_seed(seed, "split"))
    for part in split:
        part.inputs.flags.writeable = False
        part.labels.flags.writeable = False
    return split


def attack_spec_for(cfg: ExperimentConfig, kind: str):
    for a in cfg.attacks:
        if a.kind == kind:
            return a
    raise ValueError(f"config lists no attack of kind {kind!r}")


# ---------------------------------------------------------------- stages


# the watermark's embedding fine-tune, at TrainConfig's batch size
EMBED_EPOCHS = 4
EMBED_LR = 0.05


def stage_train(cfg: ExperimentConfig, out) -> dict:
    """Train the task model, embed the watermark, write model + record.

    Validates the config before writing anything, and writes the config echo
    with the models and the record once the embedding has succeeded, so a
    failed train leaves the run directory empty. Refuses a run directory that
    holds artifacts of an earlier run, which would otherwise sit next to the
    new config echo and mix runs in a report.
    """
    validate_config(cfg)
    out = Path(out)
    stale = next((p for pattern in RUN_ARTIFACTS for p in sorted(out.glob(pattern))), None)
    if stale is not None:
        raise ValueError(
            f"run directory {out} already holds run artifacts ({stale.name}); "
            "train into a new or empty directory"
        )
    out.mkdir(parents=True, exist_ok=True)
    with _StageTimer(out, "train"):
        train_ds, held = make_experiment_data(cfg)
        net0 = init_network(
            cfg.data.input_dim, [*cfg.model.widths, cfg.data.classes],
            seed=derive_seed(cfg.seed, "init"),
        )
        hp = TrainConfig(epochs=cfg.model.epochs, lr=cfg.model.lr,
                         seed=derive_seed(cfg.seed, "train"))
        base = train(net0, train_ds, hp)
        w = cfg.watermark
        record = make_record(
            base, cfg.model.watermarked_layer, bits=w.bits,
            threshold=w.threshold, seed=derive_seed(cfg.seed, "record"),
        )
        embed_hp = TrainConfig(epochs=EMBED_EPOCHS, lr=EMBED_LR,
                               seed=derive_seed(cfg.seed, "embed"))
        marked = embed(base, record, train_ds, embed_hp, w.strength, w.max_rounds)
        save_config(cfg, out / CONFIG_FILE)
        save_model(base, out / MODEL_BASE_FILE)
        save_model(marked, out / MODEL_FILE)
        save_record(record, out / RECORD_FILE)
        ov = verify(marked, record)
        summary = {
            "accuracy_base_train": accuracy(base, train_ds),
            "accuracy_base_heldout": accuracy(base, held),
            "accuracy_marked_train": accuracy(marked, train_ds),
            "accuracy_marked_heldout": accuracy(marked, held),
            "ber_after_embed": ov.ber,
            "accepted_after_embed": ov.accepted,
            "bits": record.bits,
            "threshold": record.threshold,
            "watermarked_layer": record.layer_name,
        }
        summary["accuracy_drop_heldout"] = (
            summary["accuracy_base_heldout"] - summary["accuracy_marked_heldout"]
        )
        write_json(out / TRAIN_SUMMARY, summary)
    return summary


def capacity_grid(k: int = 2, k_corrupted: int = 1) -> dict:
    bounds = [[max_correctable(n, t, k, k_corrupted) for t in GRID_T] for n in GRID_N]
    return {
        "k": k,
        "k_corrupted": k_corrupted,
        "n_values": list(GRID_N),
        "t_values": list(GRID_T),
        "bounds": bounds,
    }


def format_capacity_grid(grid: dict) -> str:
    """Plain text table: rows are layer widths, columns code lengths."""
    head = "correctable positions (K={k}, corrupted alternatives={kc})".format(
        k=grid["k"], kc=grid["k_corrupted"]
    )
    widths = [6] + [5] * len(grid["t_values"])
    lines = [head]
    cells = ["N\\T"] + [str(t) for t in grid["t_values"]]
    lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    for n, row in zip(grid["n_values"], grid["bounds"]):
        cells = [str(n)] + [str(b) for b in row]
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def stage_encode(cfg: ExperimentConfig, out) -> dict:
    """Derive fold centroids from the marked model and build the codebook."""
    out = Path(out)
    with _StageTimer(out, "encode"):
        model = load_model(out / MODEL_FILE)
        train_ds, _ = make_experiment_data(cfg)
        pooled = layer_outputs(model, cfg.model.watermarked_layer, train_ds.inputs).ravel()
        cs = compute_centroids(pooled, cfg.coding.k)
        n = cfg.watermarked_width()
        cb = default_codebook(
            n, cfg.coding.t, cfg.coding.k, cfg.coding.k_corrupted,
            seed=derive_seed(cfg.seed, "codebook"),
        )
        save_codebook(cb, out / CODEBOOK_FILE)
        bound = max_correctable(n, cfg.coding.t, cfg.coding.k, cfg.coding.k_corrupted)
        summary = {
            "centroids": [float(c) for c in cs.centroids],
            "min_gap": cs.min_gap,
            "separation_bound": cs.separation_bound,
            "pooled_count": int(pooled.size),
            "codebook": {
                "digest": cb.digest,
                "n": cb.n,
                "t": cb.t,
                "k": cb.k,
                "min_distance": cb.d_min,
                "guaranteed_radius": (cb.d_min - 1) // 2,
            },
            "capacity": {
                "configured": {
                    "n": n,
                    "t": cfg.coding.t,
                    "k": cfg.coding.k,
                    "k_corrupted": cfg.coding.k_corrupted,
                    "counting_bound": bound,
                },
                "grid": capacity_grid(),
            },
        }
        write_json(out / ENCODE_SUMMARY, summary)
    return summary


def load_centroids(out) -> CentroidSet:
    summary = read_json(Path(out) / ENCODE_SUMMARY)
    return CentroidSet(np.array(summary["centroids"], dtype=np.float64))


def _probe_separation(model, layer: str, probes: np.ndarray, cs: CentroidSet):
    """A probe set's codes on `model`'s `layer` (nearest centroids) and the
    separation fields a forge summary records for it."""
    raw = layer_outputs(model, layer, probes)
    codes = nearest_centroid(raw, cs)
    stats = separation_stats(raw, codes)
    return codes, {
        "separation": {
            "mean_inter": _jsonable(stats["mean_inter"]),
            "mean_intra": stats["mean_intra"],
            "dead_neurons": stats["dead_neurons"],
        },
        "separation_bound": cs.separation_bound,
        "passes_separation": bool(stats["mean_intra"] <= cs.separation_bound),
    }


def stage_forge(cfg: ExperimentConfig, out, mode: str) -> dict:
    """Synthesize the trigger set for one scheme (single model or ensemble)."""
    if mode not in TRIGGER_MODES:
        raise ValueError(f"unknown trigger mode {mode!r}")
    if mode == MODE_ENSEMBLE and cfg.triggers.j < 2:
        raise ValueError("the T2 scheme needs at least 2 variants (triggers.j >= 2)")
    out = Path(out)
    with _StageTimer(out, f"forge_{mode}") as timer:
        model = load_model(out / MODEL_FILE)
        layer = cfg.model.watermarked_layer
        cb = load_codebook(out / CODEBOOK_FILE)
        cs = load_centroids(out)
        train_ds, _ = make_experiment_data(cfg)
        j = 0 if mode == MODE_SINGLE else cfg.triggers.j
        ensemble = make_variant_ensemble(
            model, train_ds, layer, j,
            seed=derive_seed(cfg.seed, "variants", mode), prune_step=cfg.triggers.prune_step,
        )
        ts = synthesize_trigger_set(
            ensemble, layer, cs, cb, cfg.triggers, derive_seed(cfg.seed, "forge", mode)
        )
        timer.spans["descent"] = dataclasses.asdict(ts.descent)
        save_trigger_set(ts, out / trigger_file(mode))
        codes, separation = _probe_separation(model, layer, ts.inputs, cs)
        neuron_errors = np.sum(codes != cb.codewords, axis=1)
        radius = (cb.d_min - 1) // 2
        budget = loss_budget(cb.n, cs.min_gap, len(ensemble.networks))
        summary = {
            "mode": mode,
            "t": ts.t,
            "variant_count": ts.variant_count,
            "variants": list(ensemble.provenance),
            "converged": int(ts.converged.sum()),
            "loss_budget": budget,
            "mean_loss": float(ts.final_losses.mean()),
            "max_loss": float(ts.final_losses.max()),
            **separation,
            "residual_symbol_errors": int(neuron_errors.sum()),
            # how well the triggers fit their codewords on the owner's own
            # model, in quantized symbols; alignment reads the raw activations
            "residual_errors_per_neuron": neuron_errors.tolist(),
            "neurons_past_radius": int(np.sum(neuron_errors > radius)),
        }
        write_json(out / forge_summary_file(mode), summary)
    return summary


# ftp trials fine-tune in groups of this many copies of the marked model,
# stepped together (`train_copies`); a group's step buffers stay in cache,
# and the stage keeps one group's copies alive at a time
FINETUNE_GROUP = 4


def _finetune_config(a, trial_seed) -> TrainConfig:
    """The fine-tuning an ftp trial applies to the marked model, on `held`."""
    return TrainConfig(epochs=a.epochs, lr=a.lr, seed=derive_seed(trial_seed, "finetune"))


def _forge_suspect(a, model, layer, spec, held, trial_seed, tuned=None):
    """Attack `a`'s transform of the marked model (np has none), then the
    trial's permutation of the watermarked layer. For ftp, `tuned` is the
    trial's fine-tuned model when `_tuned_group` has trained it already."""
    if a.kind == "ftp":
        model = train(model, held, _finetune_config(a, trial_seed)) if tuned is None else tuned
    elif a.kind == "npp":
        model = prune_variant(model, layer, a.fraction)
    elif a.kind == "rescale":
        scales = random_scales(spec.n, derive_seed(trial_seed, "scales"), a.scale_low, a.scale_high)
        model = attack_rescale(model, layer, scales)
    return permute_neurons(model, spec)


def _tuned_group(a, model, held, trial_seeds) -> list:
    """The fine-tuned models of a group of ftp trials, trained together, or
    None for each trial: for another kind, and when a copy diverged. Those
    trials fine-tune one at a time in `_forge_suspect`, so the lowest
    diverging trial raises its own error after the trials before it are
    saved, as when every trial trains alone."""
    if a.kind == "ftp":
        try:
            return train_copies(model, held, [_finetune_config(a, s) for s in trial_seeds])
        except TrainingDivergenceError:
            pass
    return [None] * len(trial_seeds)


def _attack_trials(lo, hi, cfg, out, a, model, held) -> list:
    """Trials [lo, hi) of attack `a`, in trial order, in groups of
    `FINETUNE_GROUP`: fine-tune a group's ftp copies together, then forge,
    save and score each of its suspects before the next group trains.

    A suspect's drift and task accuracy (the values `functional_drift` and
    `accuracy` give) come off one forward pass over `held` that starts at
    its first layer whose parameters differ from the marked model's, from
    the marked model's outputs below it, which this block computes once: np,
    npp and rescale suspects start at the watermarked layer, ftp suspects at
    the first."""
    layer = cfg.model.watermarked_layer
    n = model.layer(layer).out_dim
    # the marked model on `held`: each layer's input, then the final outputs
    marked = [held.inputs, *_forward_layers(model, held.inputs)]
    records = []
    for first in range(lo, hi, FINETUNE_GROUP):
        trials = range(first, min(first + FINETUNE_GROUP, hi))
        seeds = [derive_seed(cfg.seed, "attack", a.kind, i) for i in trials]
        for i, trial_seed, tuned in zip(trials, seeds, _tuned_group(a, model, held, seeds)):
            spec = random_permutation(n, derive_seed(trial_seed, "perm"), layer)
            suspect = _forge_suspect(a, model, layer, spec, held, trial_seed, tuned)
            save_model(suspect, suspect_file(out, a.kind, i))
            start = _first_changed_layer(model.layers, suspect.layers)
            scores = [marked[start], *_forward_layers(suspect, marked[start], start=start)][-1]
            records.append({
                "trial": i,
                "perm": [int(p) for p in spec.perm],
                "drift": float(np.max(np.abs(marked[-1] - scores))),
                "accuracy": float((scores.argmax(axis=1) == held.labels).mean()),
            })
    return records


def stage_attack(cfg: ExperimentConfig, out, kind: str, trials: int | None = None) -> dict:
    """Run seeded attack trials against the marked model and save each suspect.

    The trials never interact, so they run in contiguous blocks, one per
    usable core, through `run_blocks`: this process runs the first block
    and a forked child each other one (with one core, the one block runs
    here and nothing is forked). The records are concatenated in trial
    order, so suspects and summary are the same bytes for any block count,
    and the lowest failed trial's error is raised, as in one process; a
    child's error carries the child's traceback as its cause. The trial
    span's `workers` counts the processes the trials ran on, this one
    included.
    """
    if kind not in ATTACK_KINDS:
        raise ValueError(f"unknown attack kind {kind!r}")
    out = Path(out)
    a = attack_spec_for(cfg, kind)
    trials = a.trials if trials is None else int(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    with _StageTimer(out, f"attack_{kind}") as timer:
        model = load_model(out / MODEL_FILE)
        _, held = make_experiment_data(cfg)
        sdir = suspect_dir(out, kind)
        if sdir.exists():  # an earlier, longer attack's trials would linger
            shutil.rmtree(sdir)
        sdir.mkdir(parents=True)
        start = time.perf_counter()
        workers = block_count(trials)
        records = []
        for ok, value in run_blocks(_attack_trials, trials, workers, cfg, out, a, model, held):
            if not ok:
                raise value  # the first failed block's error: the lowest trial's
            records += value
        timer.spans["trials"] = {
            "workers": workers, "trials": trials, "seconds": time.perf_counter() - start,
        }
        drifts = [r["drift"] for r in records]
        accs = [r["accuracy"] for r in records]
        summary = {
            "kind": kind,
            "layer": cfg.model.watermarked_layer,
            "trials": trials,
            "base_accuracy": accuracy(model, held),
            "mean_drift": float(np.mean(drifts)),
            "max_drift": float(np.max(drifts)),
            "mean_accuracy": float(np.mean(accs)),
            "min_accuracy": float(np.min(accs)),
            "records": records,
        }
        write_json(out / attack_summary_file(kind), summary)
    return summary


def bootstrap_rate_ci(outcomes, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval for a Bernoulli rate."""
    x = np.asarray(outcomes, dtype=np.float64)
    if x.size == 0:
        raise ValueError("need at least one outcome")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(BOOTSTRAP_RESAMPLES, x.size))
    means = x[idx].mean(axis=1)
    lo, hi = np.quantile(means, [CI_ALPHA / 2, 1 - CI_ALPHA / 2])
    return float(lo), float(hi)


def bootstrap_ordering(lesser, greater, seed: int = 0) -> float:
    """Bootstrap confidence that mean(greater) >= mean(lesser); ties count."""
    a = np.asarray(lesser, dtype=np.float64)
    b = np.asarray(greater, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("need outcomes on both sides")
    rng = np.random.default_rng(seed)
    am = a[rng.integers(0, a.size, size=(BOOTSTRAP_RESAMPLES, a.size))].mean(axis=1)
    bm = b[rng.integers(0, b.size, size=(BOOTSTRAP_RESAMPLES, b.size))].mean(axis=1)
    return float(np.mean(bm >= am))


def stage_align(cfg: ExperimentConfig, out, kind: str, mode: str) -> dict:
    """Re-identify neurons of every suspect and verify the watermark."""
    if mode not in TRIGGER_MODES:
        raise ValueError(f"unknown trigger mode {mode!r}")
    out = Path(out)
    with _StageTimer(out, f"align_{kind}_{mode}"):
        record = load_record(out / RECORD_FILE)
        cb = load_codebook(out / CODEBOOK_FILE)
        ts = load_trigger_set(out / trigger_file(mode))
        attack = read_json(out / attack_summary_file(kind))
        records = []
        for rec in attack["records"]:
            i = rec["trial"]
            suspect = load_model(suspect_file(out, kind, i))
            try:
                plain = verify(suspect, record)
            except TamperError:  # another layer shape: the plain readout refuses too
                plain = None
            av = verify_with_alignment(suspect, ts, cb, record)
            entry = {
                "trial": i,
                "no_align_ber": plain.ber if plain is not None else None,
                "no_align_accepted": plain is not None and plain.accepted,
                "tamper_cause": av.tamper_cause,
                "accepted": av.accepted,
                "ber": av.ov.ber if av.ov is not None else None,
            }
            if av.alignment is not None:
                entry["perm_estimate"] = av.alignment.perm_estimate.tolist()
                entry["neuron_accuracy"] = _jsonable(
                    alignment_accuracy(av.alignment, rec["perm"])
                )
                entry["collisions_resolved"] = av.alignment.collisions_resolved
                entry["dead"] = len(av.alignment.dead)
                # positive exactly when every live neuron's nearest target is
                # the one the assignment gave it
                entry["margin"] = av.alignment.margin
            else:
                entry["perm_estimate"] = None
                entry["neuron_accuracy"] = None
                entry["collisions_resolved"] = None
                entry["dead"] = None
                entry["margin"] = None
            records.append(entry)
        accepts = [1.0 if r["accepted"] else 0.0 for r in records]
        plain_accepts = [1.0 if r["no_align_accepted"] else 0.0 for r in records]
        accs = [r["neuron_accuracy"] for r in records if r["neuron_accuracy"] is not None]
        bers = [r["ber"] for r in records if r["ber"] is not None]
        margins = [r["margin"] for r in records if r["margin"] is not None]
        ci = bootstrap_rate_ci(accepts, seed=derive_seed(cfg.seed, "ci", kind, mode))
        summary = {
            "kind": kind,
            "mode": mode,
            "trials": len(records),
            "accept_rate": float(np.mean(accepts)),
            "accept_ci": [ci[0], ci[1]],
            "no_align_accept_rate": float(np.mean(plain_accepts)),
            "mean_neuron_accuracy": _jsonable(np.mean(accs)) if accs else None,
            "min_neuron_accuracy": _jsonable(np.min(accs)) if accs else None,
            "mean_ber": float(np.mean(bers)) if bers else None,
            "min_margin": min(margins) if margins else None,
            "records": records,
        }
        write_json(out / align_summary_file(kind, mode), summary)
    return summary


# ---------------------------------------------------------------- report

# One tuple per report table: the keys its schema requires of each row and,
# where the table has a CSV, that CSV's header and cell order (`_write_csv`).
TRIGGER_COLUMNS = (
    "scheme", "mean_inter", "mean_intra", "separation_bound",
    "passes_separation", "dead_neurons", "shuffle_accuracy",
)
ATTACK_COLUMNS = (
    "kind", "mode", "trials", "no_align_accept_rate", "accept_rate", "accept_ci",
    "mean_neuron_accuracy",
)
ORDERING_COLUMNS = ("kind", "accept_rate_t1", "accept_rate_t2", "confidence_t2_ge_t1")


def _requires(*keys) -> dict:
    return {"type": "object", "required": list(keys)}


def _table(columns) -> dict:
    return {"type": "array", "items": _requires(*columns)}


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_requires(
        "schema_version", "generator", "versions", "config", "artifacts",
        "watermark", "capacity", "codebook", "triggers", "attacks",
        "orderings", "timings",
    ),
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "generator": {"type": "string"},
        "versions": {
            **_requires("python", "numpy", "scipy"),
            "additionalProperties": {"type": "string"},
        },
        "config": {"type": "object"},
        "artifacts": {
            "type": "object",
            "additionalProperties": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        },
        "watermark": _requires("bits", "threshold", "ber_after_embed", "accuracy_drop_heldout"),
        "capacity": {
            **_requires("configured", "grid"),
            "properties": {"grid": _requires("n_values", "t_values", "bounds")},
        },
        "codebook": _requires("digest", "n", "t", "k", "min_distance", "guaranteed_radius"),
        "triggers": _table(TRIGGER_COLUMNS),
        "attacks": _table(ATTACK_COLUMNS),
        "orderings": _table(ORDERING_COLUMNS),
        "timings": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}


@lru_cache(maxsize=1)
def _report_validator():
    """The report schema's validator, built once. `REPORT_SCHEMA` is a
    constant, so it is checked against its meta-schema by the tests, not
    on every report."""
    import jsonschema

    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


def validate_report(report: dict) -> dict:
    """The report, or the `jsonschema.ValidationError` that
    `jsonschema.validate` would raise for it."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_report_validator().iter_errors(report))
    if error is not None:
        raise error
    return report


def _trigger_row(scheme: str, fields: dict, shuffle_accuracy, **extra) -> dict:
    """A trigger-table row from a probe set's separation fields (as
    `_probe_separation` gives them), plus `extra` report-only columns."""
    separation = fields["separation"]
    return {
        "scheme": scheme,
        "mean_inter": separation["mean_inter"],
        "mean_intra": separation["mean_intra"],
        "separation_bound": fields["separation_bound"],
        "passes_separation": fields["passes_separation"],
        "dead_neurons": len(separation["dead_neurons"]),
        "shuffle_accuracy": shuffle_accuracy,
        **extra,
    }


def _normal_baseline(cfg: ExperimentConfig, out: Path, cb: Codebook, cs: CentroidSet) -> dict:
    """Transcription scheme: plain heldout samples as probes, the marked
    model's codes on them (mapped to their centroids) as the reference,
    aligned as a verdict aligns. Measures how identifiable neurons are
    without synthesis."""
    model = load_model(out / MODEL_FILE)
    layer = cfg.model.watermarked_layer
    _, held = make_experiment_data(cfg)
    # stored like trigger inputs, so normal probes read out as T1 and T2 do
    probes = held.inputs[: cb.t].astype(np.float32)
    codes, separation = _probe_separation(model, layer, probes, cs)
    targets = cs.centroids[codes]
    accs = []
    n = model.layer(layer).out_dim
    for s in range(BASELINE_SHUFFLES):
        spec = random_permutation(n, derive_seed(cfg.seed, "baseline", s), layer)
        observed = layer_outputs(permute_neurons(model, spec), layer, probes)
        accs.append(alignment_accuracy(align_to_matrix(observed, targets, layer), spec.perm))
    return _trigger_row(
        "normal", separation, _jsonable(np.nanmean(accs)), shuffles=BASELINE_SHUFFLES
    )


def _collect_timings(out: Path) -> dict:
    timings = {}
    for path in sorted(out.glob("timings_*.json")):
        entry = read_json(path)
        timings[entry["stage"]] = float(entry["seconds"])
    return timings


def _artifact_hashes(out: Path) -> dict:
    names = [MODEL_BASE_FILE, MODEL_FILE, RECORD_FILE, CODEBOOK_FILE]
    names += [trigger_file(m) for m in TRIGGER_MODES]
    hashes = {}
    for name in names:
        path = out / name
        if path.exists():
            hashes[name] = file_sha256(path)
    for kind in ATTACK_KINDS:
        sdir = suspect_dir(out, kind)
        if sdir.is_dir():
            for path in sorted(sdir.glob("trial_*.naf")):
                hashes[str(path.relative_to(out))] = file_sha256(path)
    return hashes


def stage_report(cfg: ExperimentConfig, out) -> dict:
    """Aggregate all stage summaries into one validated report plus CSVs."""
    from . import __version__

    out = Path(out)
    with _StageTimer(out, "report"):
        train_summary = read_json(out / TRAIN_SUMMARY)
        encode_summary = read_json(out / ENCODE_SUMMARY)
        cb = load_codebook(out / CODEBOOK_FILE)
        cs = load_centroids(out)

        triggers = [_normal_baseline(cfg, out, cb, cs)]
        for mode in TRIGGER_MODES:
            path = out / forge_summary_file(mode)
            if not path.exists():
                continue
            forge = read_json(path)
            np_path = out / align_summary_file("np", mode)
            shuffle = read_json(np_path)["mean_neuron_accuracy"] if np_path.exists() else None
            triggers.append(_trigger_row(
                mode, forge, shuffle, converged=forge["converged"], t=forge["t"],
                residual_symbol_errors=forge["residual_symbol_errors"],
            ))

        attacks = []
        accept_by = {}
        for kind in ATTACK_KINDS:
            modes = [m for m in TRIGGER_MODES if (out / align_summary_file(kind, m)).exists()]
            if not modes:
                continue
            attack_meta = read_json(out / attack_summary_file(kind))
            for mode in modes:
                s = read_json(out / align_summary_file(kind, mode))
                attacks.append({
                    **{c: s[c] for c in (*ATTACK_COLUMNS, "mean_ber")},
                    "mean_drift": attack_meta["mean_drift"],
                    "mean_task_accuracy": attack_meta["mean_accuracy"],
                })
                accept_by[(kind, mode)] = [
                    1.0 if r["accepted"] else 0.0 for r in s["records"]
                ]

        orderings = []
        for kind in ("ftp", "npp"):
            t1 = accept_by.get((kind, MODE_SINGLE))
            t2 = accept_by.get((kind, MODE_ENSEMBLE))
            if t1 is None or t2 is None:
                continue
            orderings.append({
                "kind": kind,
                "accept_rate_t1": float(np.mean(t1)),
                "accept_rate_t2": float(np.mean(t2)),
                "confidence_t2_ge_t1": bootstrap_ordering(
                    t1, t2, seed=derive_seed(cfg.seed, "ordering", kind)
                ),
            })

        import platform

        import scipy

        report = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "generator": f"neuralign {__version__}",
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "config": config_to_dict(cfg),
            "artifacts": _artifact_hashes(out),
            "watermark": train_summary,
            "capacity": encode_summary["capacity"],
            "codebook": encode_summary["codebook"],
            "triggers": triggers,
            "attacks": attacks,
            "orderings": orderings,
            "timings": _collect_timings(out),
        }
        validate_report(report)
        write_json(out / REPORT_FILE, report)
        grid = encode_summary["capacity"]["grid"]
        columns = ["t", *(f"n{n}" for n in grid["n_values"])]
        _write_csv(out / "capacity_table.csv", columns, [
            dict(zip(columns, (t, *bounds)))
            for t, bounds in zip(grid["t_values"], zip(*grid["bounds"]))
        ])
        _write_csv(out / "trigger_table.csv", TRIGGER_COLUMNS, triggers)
        _write_csv(out / "attack_table.csv", ATTACK_COLUMNS, attacks)
    return report


def _write_csv(path: Path, columns, rows) -> None:
    """One table: header `columns`, then each row's values in that order; a
    `*_ci` column's [low, high] pair fills two cells."""
    import csv

    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([h for c in columns
                    for h in ((f"{c}_low", f"{c}_high") if c.endswith("_ci") else (c,))])
        w.writerows([v for c in columns for v in (row[c] if c.endswith("_ci") else (row[c],))]
                    for row in rows)


def run_all(cfg: ExperimentConfig, out) -> dict:
    """Every stage in order: both trigger schemes, all configured attacks."""
    out = Path(out)
    stage_train(cfg, out)
    stage_encode(cfg, out)
    for mode in TRIGGER_MODES:
        stage_forge(cfg, out, mode)
    kinds = [a.kind for a in cfg.attacks]
    for kind in kinds:
        stage_attack(cfg, out, kind)
    for kind in kinds:
        for mode in TRIGGER_MODES:
            stage_align(cfg, out, kind, mode)
    return stage_report(cfg, out)
