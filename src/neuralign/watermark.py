"""White-box watermark backend over a dense layer's flattened weights.

The payload bit b_i is carried by the sign of the projection <k_i, w> of the
flattened layer weights onto a secret Gaussian key row. Embedding adds a
sigmoid cross-entropy penalty on those projections to the task loss, which
pushes every projection to the payload's side of zero while training keeps
the model accurate. Verification reads the signs back and accepts when the
bit-error rate stays within the record's threshold.

Because the projection mixes weight rows in a fixed order, reordering the
layer's neurons scrambles the extracted bits; that is the failure the
alignment stage exists to undo. The readout can take the layer's rows in a
given order, which is how an aligned verdict reads a suspect without a
permuted copy of it. Each record keeps read-only copies of its key and
payload, compares by value, and casts its key to float64 once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .network import Network, TrainConfig, train
from .serialize import (
    MAGIC_RECORD,
    FormatError,
    PayloadReader,
    PayloadWriter,
    _frozen,
    read_container,
    write_container,
)


class TamperError(RuntimeError):
    """Suspect model shape is inconsistent with the owner's artifacts."""


class EmbedFailure(RuntimeError):
    """Embedding could not reach a zero bit-error rate."""


@dataclass(frozen=True)
class WatermarkRecord:
    """Secret key material and payload for one watermarked layer."""

    layer_name: str
    key: np.ndarray  # (B, W) float32 Gaussian projection rows
    payload: np.ndarray  # (B,) uint8 bits
    threshold: float  # accept when BER <= threshold
    seed: int

    def __post_init__(self):
        key = np.asarray(self.key, dtype=np.float32)
        payload = np.asarray(self.payload, dtype=np.uint8)
        if key.ndim != 2 or key.size == 0:
            raise ValueError("key must be a non-empty 2-D array")
        if payload.shape != (key.shape[0],):
            raise ValueError("payload length must match key rows")
        if np.any(payload > 1):
            raise ValueError("payload must be bits")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie in (0, 1)")
        # read-only copies, so the caller's arrays cannot change the record or its key64
        object.__setattr__(self, "key", _frozen(key))
        object.__setattr__(self, "payload", _frozen(payload))

    def __eq__(self, other) -> bool:
        """By value, the key and payload by their bytes."""
        if not isinstance(other, WatermarkRecord):
            return NotImplemented
        mine, theirs = ((r.layer_name, r.threshold, r.seed, r.key.tobytes(), r.payload.tobytes())
                        for r in (self, other))
        return mine == theirs

    @property
    def bits(self) -> int:
        return int(self.key.shape[0])

    @cached_property
    def key64(self) -> np.ndarray:
        """The key cast to float64 once per record, read-only. Not a field, so
        equality and the saved bytes never see it."""
        key = self.key.astype(np.float64)
        key.flags.writeable = False
        return key


@dataclass(frozen=True)
class OVResult:
    accepted: bool
    ber: float
    bits_extracted: np.ndarray  # (B,) uint8


def make_record(
    net: Network, layer_name: str, bits: int = 32, threshold: float = 0.15, seed: int = 0
) -> WatermarkRecord:
    layer = net.layer(layer_name)
    if bits < 1:
        raise ValueError("need at least one payload bit")
    rng = np.random.default_rng(seed)
    key = rng.standard_normal((bits, layer.weights.size)).astype(np.float32)
    payload = rng.integers(0, 2, size=bits).astype(np.uint8)
    return WatermarkRecord(layer_name, key, payload, threshold, seed)


def _projections(
    net: Network, record: WatermarkRecord, order: np.ndarray | None = None
) -> np.ndarray:
    try:
        layer = net.layer(record.layer_name)
    except KeyError as exc:
        raise TamperError(f"suspect model has no layer {record.layer_name!r}") from exc
    if layer.weights.size != record.key.shape[1]:
        raise TamperError(
            f"layer {record.layer_name!r} has {layer.weights.size} weights, "
            f"record key expects {record.key.shape[1]}"
        )
    weights = layer.weights if order is None else layer.weights[order]
    return record.key64 @ weights.astype(np.float64).ravel()


def extract_bits(
    net: Network, record: WatermarkRecord, order: np.ndarray | None = None
) -> np.ndarray:
    """Sign readout: projection >= 0 reads as bit 1, otherwise 0.

    With `order`, row i of the layer read is the suspect's row order[i]: an
    alignment's perm_estimate reads the rows `apply_alignment` would restore,
    in place.
    """
    return (_projections(net, record, order) >= 0.0).astype(np.uint8)


def verify(net: Network, record: WatermarkRecord, order: np.ndarray | None = None) -> OVResult:
    """Accept when the bit-error rate is within the record's threshold; `order`
    as in `extract_bits`. The rate is errors / bits, the value the mean of
    the error flags takes."""
    bits = extract_bits(net, record, order)
    ber = int(np.count_nonzero(bits != record.payload)) / bits.size
    return OVResult(accepted=ber <= record.threshold, ber=ber, bits_extracted=bits)


def embed(
    net: Network, record: WatermarkRecord, data, hp: TrainConfig, strength: float,
    max_rounds: int,
) -> Network:
    """Train with the sign penalty, weighted by `strength`, until extraction
    is error free.

    Runs up to max_rounds training passes with `hp`, round r seeded
    hp.seed + r, stopping at the first with zero bit-error rate; later rounds
    keep growing the projection margins only if the first pass leaves
    residual errors. The sign penalty is the `extra_loss` each round trains
    with.
    """
    layer = net.layer(record.layer_name)
    if layer.weights.size != record.key.shape[1]:
        raise TamperError(
            f"record key expects {record.key.shape[1]} weights, layer has {layer.weights.size}"
        )
    key64 = record.key64
    target = record.payload.astype(np.float64)
    shape = layer.weights.shape
    b = record.bits

    def sign_penalty(model: Network):
        w = model.layer(record.layer_name).weights.astype(np.float64).ravel()
        z = key64 @ w
        # log(1 + e^-|z|) + max(-z*y', 0) form keeps the loss finite for large |z|
        zy = np.where(target > 0.5, z, -z)
        loss = float(np.mean(np.log1p(np.exp(-np.abs(zy))) + np.maximum(-zy, 0.0)))
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
        dz = (p - target) / b
        grad = (key64.T @ dz).reshape(shape)
        return strength * loss, {record.layer_name: strength * grad}

    current = net
    for round_idx in range(max_rounds):
        current = train(current, data, replace(hp, seed=hp.seed + round_idx), sign_penalty)
        if verify(current, record).ber == 0.0:
            break
    else:
        final = verify(current, record).ber
        raise EmbedFailure(
            f"bit-error rate still {final:.3f} after {max_rounds} rounds; "
            f"raise strength or epochs"
        )
    return current


def save_record(record: WatermarkRecord, path) -> None:
    w = PayloadWriter()
    w.text(record.layer_name)
    w.u32(record.bits)
    w.u32(record.key.shape[1])
    w.f64(record.threshold)
    w.u64(record.seed & 0xFFFFFFFFFFFFFFFF)
    w.f32_array(record.key)
    w.bits(record.payload)
    write_container(path, MAGIC_RECORD, w.bytes_value())


def load_record(path) -> WatermarkRecord:
    r = PayloadReader(read_container(path, MAGIC_RECORD))
    try:
        layer_name = r.text()
        bits = r.u32()
        width = r.u32()
        threshold = r.f64()
        seed = r.u64()
        key = r.f32_array(bits * width).reshape(bits, width)
        payload = r.bits(bits)
        r.expect_end()
        return WatermarkRecord(layer_name, key, payload, threshold, seed)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
