"""Output checks computed apart from the program.

Every artifact is read back with `containers`, every forward pass is the
benchmark's own float64 loop, and every derived count (symbols, Hamming
distances, bit-error rates) is recomputed here. A check that fails marks the
operations that depend on the checked output as failed and makes the run
incorrect; nothing is compared against a stored copy of earlier output.

One operation is one verdict on one stolen suspect under one trigger scheme.
It fails when the suspect is not accepted or when a check it depends on
fails. Rescale verdicts are operations like the rest; the share of them the
program rejects (the known rescale fault) is also counted on its own.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from containers import Layer, read_codebook, read_model, read_record, read_triggers

KNOWN_FAILURE_KIND = "rescale"
FUNCTION_PRESERVING_KINDS = ("np", "rescale")
DRIFT_LIMIT = 1e-5
# Stored losses are float32 of a float64 loss taken at float64 inputs, and the
# stored inputs are float32 too; re-evaluating at the stored inputs moves the
# loss by float32 rounding of both, well inside this relative band.
LOSS_RTOL = 1e-4
LOSS_ATOL = 1e-9


@dataclass
class Verdict:
    """What the program decided about one suspect under one scheme."""

    kind: str
    mode: str
    trial: int
    accepted: bool
    ber: float | None
    perm_estimate: np.ndarray | None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    owner_symbols_correct: int = 0
    trigger_loss_ratios: list = field(default_factory=list)
    neurons_recovered: int = 0
    rescale_verdicts: int = 0
    rescale_rejected: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems


def layers_of(net) -> list[Layer]:
    """The benchmark's float64 view of a network object the program built."""
    return [
        Layer(l.weights.astype(np.float64), l.biases.astype(np.float64), l.activation)
        for l in net.layers
    ]


def forward(layers: list[Layer], x: np.ndarray) -> list[np.ndarray]:
    a = np.asarray(x, dtype=np.float64)
    outs = []
    for layer in layers:
        z = a @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        else:
            a = z
        outs.append(a)
    return outs


def layer_index(name: str) -> int:
    return int(name.removeprefix("dense"))


def check_codebook(cb, problems: list) -> bool:
    words = cb.words.astype(np.int64)
    n, t = words.shape
    ok = True
    if np.unique(words, axis=0).shape[0] != n:
        problems.append("codebook: words are not distinct")
        ok = False
    if words.max() >= cb.k:
        problems.append("codebook: symbol out of range")
        ok = False
    dist = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    dist[np.arange(n), np.arange(n)] = t
    if int(dist.min()) != cb.d_min:
        problems.append(f"codebook: minimum distance {int(dist.min())} != stored {cb.d_min}")
        ok = False
    return ok


def check_triggers(ts, nets: list, cb, box: tuple, problems: list) -> tuple[bool, np.ndarray]:
    """Recomputed losses, convergence flags, clamp box and codebook pin.

    Also returns each row's stored loss over its loss budget: a row is
    converged exactly when that ratio is at most 1.
    """
    label = f"triggers_{ts.mode}"
    ok = True
    if ts.codebook_ref != cb.digest:
        problems.append(f"{label}: pinned to another codebook")
        ok = False
    if ts.variant_count != len(nets) - 1:
        problems.append(f"{label}: {ts.variant_count} variants, ensemble has {len(nets) - 1}")
        ok = False
    lo, hi = box
    if not np.all((ts.inputs >= lo) & (ts.inputs <= hi)):
        problems.append(f"{label}: input outside the clamp box [{lo}, {hi}]")
        ok = False
    li = layer_index(ts.layer)
    targets = ts.centroids[cb.words.T.astype(np.int64)]
    loss = sum(((forward(net, ts.inputs)[li] - targets) ** 2).sum(axis=1) for net in nets)
    stored = ts.final_losses.astype(np.float64)
    off = np.abs(loss - stored) > LOSS_RTOL * np.maximum(loss, stored) + LOSS_ATOL
    if off.any():
        row = int(np.flatnonzero(off)[0])
        problems.append(
            f"{label}: row {row} loss {loss[row]:.9g} != stored {stored[row]:.9g}"
        )
        ok = False
    gap = float(np.min(np.diff(ts.centroids)))
    budget = len(nets) * cb.words.shape[0] * (gap / 4.0) ** 2
    borderline = np.abs(stored - budget) <= LOSS_RTOL * budget
    wrong = (ts.converged != (stored <= budget)) & ~borderline
    if wrong.any():
        problems.append(f"{label}: converged flag wrong for row {int(np.flatnonzero(wrong)[0])}")
        ok = False
    return ok, stored / budget


def owner_symbols(model: list[Layer], ts, cb) -> int:
    """Symbols the owner's model reads as assigned, by nearest centroid."""
    outs = forward(model, ts.inputs)[layer_index(ts.layer)].T
    codes = np.abs(outs[..., None] - ts.centroids).argmin(axis=-1)
    return int((codes == cb.words).sum())


def recomputed_ber(suspect: list[Layer], record, perm: np.ndarray) -> float:
    aligned = suspect[layer_index(record.layer)].weights[perm]
    bits = (record.key @ aligned.ravel()) >= 0.0
    return float(np.mean(bits != record.payload))


def evaluate(run: Path, modes: tuple, verdicts: list, probes: np.ndarray,
             box: tuple, ensembles: dict | None = None) -> Outcome:
    """Check one run directory and the verdicts the program gave on it.

    `probes` are the inputs on which function-preserving suspects must match
    the marked model.
    `ensembles` maps a scheme to the networks its triggers were forged
    against; a scheme missing from it was forged against the marked model.
    """
    run = Path(run)
    out = Outcome()
    problems = out.problems
    model = read_model(run / "model.naf")
    record = read_record(run / "record.nar")
    cb = read_codebook(run / "codebook.nac")
    shared_ok = check_codebook(cb, problems)

    scheme_ok = {}
    for mode in modes:
        ts = read_triggers(run / f"triggers_{mode}.nat")
        nets = [layers_of(n) for n in (ensembles or {}).get(mode, [])] or [model]
        ok, ratios = check_triggers(ts, nets, cb, box, problems)
        out.trigger_loss_ratios.extend(ratios.tolist())
        correct = owner_symbols(model, ts, cb)
        errors = json.loads((run / f"forge_summary_{mode}.json").read_text())[
            "residual_symbol_errors"
        ]
        if cb.words.size - correct != errors:
            problems.append(
                f"triggers_{mode}: {cb.words.size - correct} symbol errors, program says {errors}"
            )
            ok = False
        scheme_ok[mode] = ok
        out.owner_symbols_correct += correct

    reference = forward(model, probes)[-1]
    by_suspect = defaultdict(list)
    for v in verdicts:
        by_suspect[(v.kind, v.trial)].append(v)
    true_perm = {}
    n = cb.words.shape[0]
    for (kind, trial), group in by_suspect.items():
        if kind not in true_perm:
            summary = json.loads((run / f"attack_summary_{kind}.json").read_text())
            true_perm[kind] = {r["trial"]: np.array(r["perm"]) for r in summary["records"]}
        suspect = read_model(run / "suspects" / kind / f"trial_{trial:03d}.naf")
        suspect_ok = True
        if kind in FUNCTION_PRESERVING_KINDS:
            drift = float(np.max(np.abs(forward(suspect, probes)[-1] - reference)))
            if drift > DRIFT_LIMIT:
                problems.append(f"{kind}/{trial}: function drift {drift:.3g}")
                suspect_ok = False
        for v in group:
            ok = shared_ok and scheme_ok[v.mode] and suspect_ok
            perm = v.perm_estimate
            bijective = perm is not None and np.array_equal(np.sort(perm), np.arange(n))
            if perm is not None and not bijective:
                problems.append(f"{kind}/{trial}/{v.mode}: perm_estimate is not a bijection")
                ok = False
            if v.ber is not None and bijective:
                ber = recomputed_ber(suspect, record, perm)
                if ber != v.ber or v.accepted != (ber <= record.threshold):
                    problems.append(
                        f"{kind}/{trial}/{v.mode}: BER {ber} recomputed, program says {v.ber}"
                    )
                    ok = False
            if kind == KNOWN_FAILURE_KIND:
                out.rescale_verdicts += 1
                out.rescale_rejected += not v.accepted
            out.attempted += 1
            out.failed += not (ok and v.accepted)
            if bijective:
                out.neurons_recovered += int(np.sum(perm == true_perm[kind][trial]))
    return out
