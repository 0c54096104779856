"""Recovering the original neuron order of a suspect model.

Feeding the owner's triggers through the suspect model gives each neuron an
observed codeword; matching observed words to the codebook identifies where
each original neuron went. A one-to-one assignment that minimizes the summed
decode distance (rather than an independent nearest-word choice per neuron)
guarantees a usable permutation even when noisy readouts collide on the same
codeword.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .attacks import PermutationSpec, attack_rescale, inverse_permutation, permute_neurons
from .coding import CentroidSet, Codebook, codebook_digest, nearest_centroid
from .network import Network, UnknownLayerError
from .serialize import IntegrityError
from .triggers import TriggerSet, dead_neurons, layer_outputs
from .watermark import OVResult, TamperError, WatermarkRecord, verify


@dataclass(frozen=True)
class ObservedCodeMatrix:
    codes: np.ndarray  # (N, T) uint8, symbol per neuron and trigger
    raw_outputs: np.ndarray  # (N, T) float64 activations behind the codes
    layer_name: str

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.uint8)
        raw = np.asarray(self.raw_outputs, dtype=np.float64)
        if codes.ndim != 2 or codes.shape != raw.shape:
            raise ValueError("codes and raw outputs must be matching 2-D arrays")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "raw_outputs", raw)


@dataclass(frozen=True)
class AlignmentResult:
    """perm_estimate[i] is the estimated current position of original neuron i."""

    perm_estimate: np.ndarray  # (N,) int64 bijection
    per_neuron_distance: np.ndarray  # (N,) int64, decode distance at each position
    collisions_resolved: int  # positions an independent nearest-word pick would have tied
    dead: list  # positions silent on every trigger
    layer_name: str

    @property
    def n(self) -> int:
        return int(self.perm_estimate.size)


def read_codes(
    net: Network, layer_name: str, inputs: np.ndarray, centroid_set: CentroidSet
) -> ObservedCodeMatrix:
    """Quantize the suspect layer's outputs on the owner's probe inputs."""
    if net.input_dim != inputs.shape[1]:
        raise TamperError(
            f"suspect expects {net.input_dim}-dim inputs, probes are {inputs.shape[1]}-dim"
        )
    try:
        raw = layer_outputs(net, layer_name, inputs)
    except KeyError as exc:
        raise TamperError(f"suspect model has no layer {layer_name!r}") from exc
    codes = nearest_centroid(raw, centroid_set)
    return ObservedCodeMatrix(codes=codes, raw_outputs=raw, layer_name=layer_name)


def _distance_matrix(obs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """cost[p, i] = decode distance between the neuron at position p and word i,
    the sum over t of |obs[p, t] - ref[i, t]| for integer codes.

    Uses |a - b| = sum over thresholds s in (lo, hi] of |[a >= s] - [b >= s]|,
    so each threshold costs two float64 matrix products of 0/1 indicators
    instead of an (N, N, T) temporary; the counts are exact integers.
    """
    lo = int(min(obs.min(initial=0), ref.min(initial=0)))
    hi = int(max(obs.max(initial=0), ref.max(initial=0)))
    cost = np.zeros((obs.shape[0], ref.shape[0]))
    for s in range(lo + 1, hi + 1):
        a = (obs >= s).astype(np.float64)
        b = (ref >= s).astype(np.float64)
        cost += a @ (1.0 - b).T + (1.0 - a) @ b.T
    return cost.astype(np.int64)


def align_to_matrix(
    observed_codes: np.ndarray,
    reference_codes: np.ndarray,
    raw_outputs: np.ndarray | None = None,
    layer_name: str = "",
) -> AlignmentResult:
    """Minimum-total-distance bijection between observed and reference rows;
    a row-count or length mismatch is reported as tampering."""
    obs = np.asarray(observed_codes, dtype=np.int64)
    ref = np.asarray(reference_codes, dtype=np.int64)
    if obs.ndim != 2 or ref.ndim != 2:
        raise TamperError(f"code matrices must be 2-D, got {obs.shape} and {ref.shape}")
    if obs.shape[0] != ref.shape[0]:
        raise TamperError(
            f"suspect layer has {obs.shape[0]} neurons, reference has {ref.shape[0]} words"
        )
    if obs.shape[1] != ref.shape[1]:
        raise TamperError(
            f"observed codes have length {obs.shape[1]}, reference words {ref.shape[1]}"
        )
    cost = _distance_matrix(obs, ref)
    _, assign = linear_sum_assignment(cost)
    greedy = cost.argmin(axis=1)
    hits = np.bincount(greedy, minlength=cost.shape[0])
    collisions = int(np.sum(hits[greedy] > 1))
    dead = dead_neurons(raw_outputs) if raw_outputs is not None else []
    return AlignmentResult(
        perm_estimate=inverse_permutation(assign),
        per_neuron_distance=cost[np.arange(cost.shape[0]), assign].astype(np.int64),
        collisions_resolved=collisions,
        dead=dead,
        layer_name=layer_name,
    )


def apply_alignment(net: Network, result: AlignmentResult) -> Network:
    """Send the neuron at position p back to its estimated original index."""
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
    correct = result.perm_estimate == truth
    if result.dead:
        live = ~np.isin(truth, np.asarray(result.dead))
        if not live.any():
            return float("nan")
        return float(correct[live].mean())
    return float(correct.mean())


def normalize_layer(net: Network, layer_name: str) -> Network:
    """Rescale each neuron so its (row, bias) vector has unit L2 norm.

    This is `attack_rescale` by the inverse norms, so the successor column
    compensates and the output layer or a non-relu layer is refused the same
    way. It cancels any positive rescaling an attacker applied; zero-norm
    neurons stay untouched. Running it twice is a no-op up to float32 rounding.
    """
    layer = net.layer(layer_name)
    w = layer.weights.astype(np.float64)
    b = layer.biases.astype(np.float64)
    norms = np.sqrt((w**2).sum(axis=1) + b**2)
    return attack_rescale(net, layer_name, 1.0 / np.where(norms > 0, norms, 1.0))


@dataclass(frozen=True)
class AlignedVerification:
    ov: OVResult | None
    alignment: AlignmentResult | None
    tamper_cause: str | None = None

    @property
    def accepted(self) -> bool:
        return self.ov is not None and self.ov.accepted


def verify_with_alignment(
    net: Network,
    triggers: TriggerSet,
    cb: Codebook,
    record: WatermarkRecord,
    normalize: bool = False,
) -> AlignedVerification:
    """Full owner-side pipeline: read codes, align, undo the permutation, verify.

    Code readout optionally runs on a normalized copy so rescaling cannot
    distort the fold boundaries, but the recovered permutation is applied to
    the suspect exactly as given. Shape inconsistencies, and a watermarked
    layer that cannot be normalized, count as tampering and come back as a
    refusal rather than an exception.
    """
    if codebook_digest(cb) != triggers.codebook_ref:
        raise IntegrityError("trigger set was built for a different codebook")
    try:
        basis = normalize_layer(net, triggers.layer_name) if normalize else net
    except (UnknownLayerError, ValueError) as exc:  # no relu hidden layer of that name
        return AlignedVerification(ov=None, alignment=None, tamper_cause=exc.args[0])
    try:
        observed = read_codes(basis, triggers.layer_name, triggers.inputs, triggers.centroid_set)
        result = align_to_matrix(
            observed.codes, cb.codewords, observed.raw_outputs, observed.layer_name
        )
    except TamperError as exc:
        return AlignedVerification(ov=None, alignment=None, tamper_cause=str(exc))
    aligned = apply_alignment(net, result)
    try:
        ov = verify(aligned, record)
    except TamperError as exc:
        return AlignedVerification(ov=None, alignment=result, tamper_cause=str(exc))
    return AlignedVerification(ov=ov, alignment=result, tamper_cause=None)
