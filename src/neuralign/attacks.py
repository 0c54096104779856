"""Functionality-equivalent transformations an adversary can apply.

Reordering the neurons of a hidden layer and applying the inverse reorder to
the successor's input columns leaves the network's function untouched, yet
destroys any watermark that depends on weight positions. Positive rescaling
through a relu layer likewise changes every weight of a layer and none of
its function. The attack stage builds each suspect from one transform of the
marked model (none, fine-tuning, pruning of low-magnitude neurons, or
rescaling), then one reorder of the watermarked layer.

Permutations are destination arrays: perm[i] is the new position of neuron i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, forward


@dataclass(frozen=True)
class PermutationSpec:
    layer_name: str
    perm: np.ndarray  # (N,) destination indices, a bijection on 0..N-1

    def __post_init__(self):
        p = np.asarray(self.perm, dtype=np.int64)
        if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
            raise ValueError("perm must be a bijection on 0..N-1")
        object.__setattr__(self, "perm", p)

    @property
    def n(self) -> int:
        return int(self.perm.size)


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    p = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size)
    return inv


def random_permutation(n: int, seed: int, layer_name: str = "") -> PermutationSpec:
    """Uniform non-identity permutation (identity resampled away for n >= 2)."""
    if n < 1:
        raise ValueError("need at least one neuron")
    rng = np.random.default_rng(seed)
    while True:
        p = rng.permutation(n)
        if n == 1 or not np.array_equal(p, np.arange(n)):
            return PermutationSpec(layer_name, p)


def permute_neurons(net: Network, spec: PermutationSpec) -> Network:
    """Reorder a hidden layer's neurons without changing the function.

    Row i of the layer (and its bias) moves to row perm[i]; column i of the
    successor layer moves to column perm[i], which cancels the reorder.
    """
    idx = net.layer_index(spec.layer_name)
    if idx == len(net.layers) - 1:
        raise ValueError("cannot permute the output layer: no successor to compensate")
    layer = net.layers[idx]
    if spec.n != layer.out_dim:
        raise ValueError(f"permutation has {spec.n} entries, layer {layer.name!r} has {layer.out_dim}")
    out = net.clone()
    lw, lb = out.layers[idx].weights, out.layers[idx].biases
    sw = out.layers[idx + 1].weights
    lw[spec.perm, :] = lw.copy()
    lb[spec.perm] = lb.copy()
    sw[:, spec.perm] = sw.copy()
    return out


def random_scales(n: int, seed: int, low: float, high: float) -> np.ndarray:
    """Log-uniform positive scales in [low, high]."""
    if not 0 < low <= high:
        raise ValueError("need 0 < low <= high")
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(low), np.log(high), size=n))


def attack_rescale(net: Network, layer_name: str, scales: np.ndarray) -> Network:
    """Scale each neuron of a hidden layer by s > 0 and divide the successor
    column by s.

    Every hidden layer is relu, whose positive homogeneity makes the
    composition exact up to float rounding, so the function is preserved
    while every weight changes.
    """
    idx = net.layer_index(layer_name)
    if idx == len(net.layers) - 1:
        raise ValueError("cannot rescale the output layer: no successor to compensate")
    layer = net.layers[idx]
    s = np.asarray(scales, dtype=np.float64)
    if s.shape != (layer.out_dim,):
        raise ValueError(f"need {layer.out_dim} scales, got shape {s.shape}")
    if np.any(s <= 0):
        raise ValueError("scales must be positive")
    out = net.clone()
    lay, nxt = out.layers[idx], out.layers[idx + 1]
    lay.weights = (lay.weights.astype(np.float64) * s[:, None]).astype(np.float32)
    lay.biases = (lay.biases.astype(np.float64) * s).astype(np.float32)
    nxt.weights = (nxt.weights.astype(np.float64) / s[None, :]).astype(np.float32)
    return out


def functional_drift(a: Network, b: Network, probes: np.ndarray) -> float:
    """Largest absolute difference in final outputs over a probe batch."""
    ya = forward(a, probes)
    yb = forward(b, probes)
    return float(np.max(np.abs(ya - yb)))
