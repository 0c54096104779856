"""Recovering the original neuron order of a suspect model.

Feeding the owner's triggers through the suspect model gives each neuron a
row of activations; trigger t was forged to drive neuron i toward the
centroid of symbol t of neuron i's codeword, so matching the observed rows to
those targets identifies where each original neuron went. The cost is 1 - cosine,
which a positive rescale of a ReLU neuron cannot change. A one-to-one
assignment that minimizes the summed cost (rather than an independent
nearest-row choice per neuron) guarantees a usable permutation even when
noisy rows collide on the same target.

The aligned verdict reads the suspect's watermarked-layer rows in the
estimated original order, in place: it builds no permuted copy of the
suspect, and `apply_alignment`, which does, is the reference it must match.

A verdict recomputes nothing that depends only on the owner's artifacts:
the codebook's digest, the trigger inputs in float64, the record's key in
float64 and the targets' unit rows (`TriggerSet.unit_targets`, prepared for
the codebook whose digest the trigger set pins) are each computed once per
owner artifact and kept read-only. What each suspect costs is its own: one
float64 cast of each layer's weights up to the watermarked one with the
forward GEMMs on the triggers, the observed rows' unit rows, the N x N
cosine and its assignment, and the key's projection of the reordered rows.

The assignment is scipy's `linear_sum_assignment` (Crouse's rectangular
shortest-augmenting-path solver), the only part of scipy the program runs. It
is bound at import straight from its compiled module `scipy.optimize._lsap`,
because importing `scipy.optimize` runs the whole package's set-up (linprog,
minimize, `scipy.linalg`, the array-API shims): about two thirds of a fresh
import's time and some 40 MiB of its peak resident memory. The module is
registered under its own name, so a later `import scipy.optimize` reuses it.
Where the compiled module is missing or does not load (scipy releases that
lay the solver out differently), the public import is used instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .attacks import PermutationSpec, inverse_permutation, permute_neurons
from .coding import Codebook
from .network import Network
from .serialize import IntegrityError
from .triggers import TriggerSet, UnitRows, _unit_rows, dead_neurons, layer_outputs
from .watermark import OVResult, TamperError, WatermarkRecord, verify

_SOLVER_MODULE = "scipy.optimize._lsap"


def _solver_extension() -> Path | None:
    """The file of scipy's compiled assignment module, found without
    importing `scipy.optimize`; None where scipy lays it out otherwise."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "optimize", f"_lsap{suffix}")
            if path.is_file():
                return path
    return None


def _bind_solver():
    """scipy's `linear_sum_assignment`, loaded from its compiled module alone
    where possible and through `scipy.optimize` otherwise."""
    module = sys.modules.get(_SOLVER_MODULE)
    path = None if module is not None else _solver_extension()
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_SOLVER_MODULE, str(path))
        spec = importlib.util.spec_from_file_location(_SOLVER_MODULE, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        except ImportError:
            module = None
        else:
            # a single-phase extension module, as scipy builds this one,
            # registers itself while it loads; a multi-phase one would not
            sys.modules[_SOLVER_MODULE] = module
    solver = getattr(module, "linear_sum_assignment", None)
    if solver is None:
        from scipy.optimize import linear_sum_assignment as solver
    return solver


linear_sum_assignment = _bind_solver()


@dataclass(frozen=True)
class AlignmentResult:
    """perm_estimate[i] is the estimated current position of original neuron i."""

    perm_estimate: np.ndarray  # (N,) int64 bijection
    # (N,) float64: at each position, the assigned row's cosine minus the best
    # cosine to any other reference row; positive where the two picks agree
    per_neuron_margin: np.ndarray
    collisions_resolved: int  # live positions an independent nearest-row pick would have tied
    dead: list  # positions silent on every probe
    layer_name: str

    @property
    def n(self) -> int:
        return int(self.perm_estimate.size)

    @cached_property
    def live(self) -> np.ndarray:
        """(N,) bool, read-only: True at each position not silent on every probe."""
        live = np.ones(self.n, dtype=bool)
        live[self.dead] = False
        live.flags.writeable = False
        return live

    @property
    def margin(self) -> float | None:
        """The smallest margin over live positions; None if every one is dead."""
        live = self.per_neuron_margin[self.live]
        return float(live.min()) if live.size else None


def _read_outputs(net: Network, layer_name: str, inputs: np.ndarray) -> np.ndarray:
    """The suspect layer's outputs on the owner's probe inputs; a suspect that
    cannot take the probes or lacks the layer is reported as tampering."""
    if net.input_dim != inputs.shape[1]:
        raise TamperError(
            f"suspect expects {net.input_dim}-dim inputs, probes are {inputs.shape[1]}-dim"
        )
    try:
        return layer_outputs(net, layer_name, inputs)
    except KeyError as exc:
        raise TamperError(f"suspect model has no layer {layer_name!r}") from exc


def align_to_matrix(
    observed: np.ndarray, reference: np.ndarray | UnitRows, layer_name: str = ""
) -> AlignmentResult:
    """Bijection between observed and reference rows that minimizes the summed
    1 - cosine cost; a row-count or length mismatch is reported as tampering.
    A `UnitRows` reference (a trigger set's `unit_targets`) is already scaled
    to unit length and is used as it is.

    Cosine ignores each row's scale, so a positive rescale of a ReLU neuron,
    which scales its activations by the same factor, leaves the cost unchanged.
    """
    obs = np.asarray(observed, dtype=np.float64)
    prepared = isinstance(reference, UnitRows)
    ref = reference.rows if prepared else np.asarray(reference, dtype=np.float64)
    if obs.ndim != 2 or ref.ndim != 2:
        raise TamperError(f"activation matrices must be 2-D, got {obs.shape} and {ref.shape}")
    if obs.shape[0] != ref.shape[0]:
        raise TamperError(
            f"suspect layer has {obs.shape[0]} neurons, reference has {ref.shape[0]} words"
        )
    if obs.shape[1] != ref.shape[1]:
        raise TamperError(
            f"observed rows have length {obs.shape[1]}, reference rows {ref.shape[1]}"
        )
    cos = _unit_rows(obs) @ (ref if prepared else _unit_rows(ref)).T
    rows, assign = linear_sum_assignment(1.0 - cos)
    dead = dead_neurons(obs)
    # each live position's nearest reference row
    greedy = cos.argmax(axis=1)
    if dead:
        greedy = np.delete(greedy, dead)
    hits = np.bincount(greedy, minlength=len(cos))
    margin = cos[rows, assign]
    cos[rows, assign] = -1.0  # the lowest cosine: a lone row has no rival
    np.subtract(margin, cos.max(axis=1), out=margin)
    return AlignmentResult(
        perm_estimate=inverse_permutation(assign),
        per_neuron_margin=margin,
        collisions_resolved=int(np.count_nonzero(hits[greedy] > 1)),
        dead=dead,
        layer_name=layer_name,
    )


def apply_alignment(net: Network, result: AlignmentResult) -> Network:
    """Send the neuron at position p back to its estimated original index.

    The restored layer's rows are weights[perm_estimate], which is what
    `verify_with_alignment` reads without building this copy.
    """
    spec = PermutationSpec(result.layer_name, inverse_permutation(result.perm_estimate))
    return permute_neurons(net, spec)


def alignment_accuracy(result: AlignmentResult, true_perm: np.ndarray) -> float:
    """Fraction of neurons mapped to their true position.

    Dead neurons carry no code, so they are left out of the denominator;
    their count is visible on the result itself.
    """
    truth = np.asarray(true_perm, dtype=np.int64)
    if truth.shape != result.perm_estimate.shape:
        raise ValueError("true permutation has the wrong length")
    live = result.live[truth]  # neuron i is live where its true position is
    scored = np.count_nonzero(live)
    if not scored:
        return float("nan")
    return float(np.count_nonzero(live & (result.perm_estimate == truth)) / scored)


@dataclass(frozen=True)
class AlignedVerification:
    ov: OVResult | None
    alignment: AlignmentResult | None
    tamper_cause: str | None = None

    @property
    def accepted(self) -> bool:
        return self.ov is not None and self.ov.accepted


def verify_with_alignment(
    net: Network, triggers: TriggerSet, cb: Codebook, record: WatermarkRecord
) -> AlignedVerification:
    """Full owner-side pipeline: read the suspect's activations on the triggers,
    align them to the targets the triggers were forged toward (each codeword's
    symbols mapped to their centroids), and verify the watermarked layer's
    rows read in the estimated original order. The verdict equals
    `verify(apply_alignment(net, alignment), record)`, without the copy.

    Shape inconsistencies count as tampering and come back as a refusal
    rather than an exception; owner artifacts that disagree raise
    `IntegrityError`.
    """
    # refuses a codebook other than the one the triggers pin, or its symbol count
    reference = triggers.unit_targets(cb)
    if triggers.layer_name != record.layer_name:
        raise IntegrityError(
            f"trigger set aligns layer {triggers.layer_name!r}, "
            f"record watermarks layer {record.layer_name!r}"
        )
    try:
        observed = _read_outputs(net, triggers.layer_name, triggers.inputs64)
        result = align_to_matrix(observed, reference, triggers.layer_name)
    except TamperError as exc:
        return AlignedVerification(ov=None, alignment=None, tamper_cause=str(exc))
    try:
        ov = verify(net, record, result.perm_estimate)
    except TamperError as exc:
        return AlignedVerification(ov=None, alignment=result, tamper_cause=str(exc))
    return AlignedVerification(ov=ov, alignment=result, tamper_cause=None)
