"""Readers for the program's artifact containers, written apart from it.

Layout of every container: 4-byte magic, u16 format version, a little-endian
payload, and a trailing CRC32 of the payload. The output checks read files
through these readers so that a fault in the program's own serializer cannot
hide a fault elsewhere. `patch` rewrites bytes inside a payload and refreshes
the checksum; the self-test uses it to corrupt a copy of a run.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = 6  # magic + version
ACTIVATIONS = {0: "identity", 1: "relu", 2: "softmax"}


class ContainerError(ValueError):
    """A file is not a well-formed container of the expected kind."""


class _Reader:
    def __init__(self, path, magic: bytes):
        raw = Path(path).read_bytes()
        if len(raw) < HEADER + 4 or raw[:4] != magic:
            raise ContainerError(f"{path}: not a {magic!r} container")
        (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
        if zlib.crc32(raw[HEADER:-4]) != crc:
            raise ContainerError(f"{path}: checksum mismatch")
        self.path = path
        self.raw = raw
        self.off = HEADER

    def scalar(self, fmt: str):
        (value,) = struct.unpack_from("<" + fmt, self.raw, self.off)
        self.off += struct.calcsize(fmt)
        return value

    def text(self) -> str:
        n = self.scalar("H")
        self.off += n
        return self.raw[self.off - n : self.off].decode("utf-8")

    def array(self, dtype: str, count: int) -> np.ndarray:
        out = np.frombuffer(self.raw, dtype=dtype, count=count, offset=self.off).copy()
        self.off += out.nbytes
        return out

    def bits(self, count: int) -> np.ndarray:
        packed = np.frombuffer(self.raw, dtype=np.uint8, count=(count + 7) // 8, offset=self.off)
        self.off += packed.size
        return np.unpackbits(packed, count=count, bitorder="little").astype(bool)

    def end(self):
        if self.off != len(self.raw) - 4:
            raise ContainerError(f"{self.path}: {len(self.raw) - 4 - self.off} trailing bytes")

    def payload_sha256(self) -> str:
        return hashlib.sha256(self.raw[HEADER:-4]).hexdigest()


@dataclass
class Layer:
    weights: np.ndarray  # (out, in) float64 copy of the stored float32
    biases: np.ndarray
    activation: str


def read_model(path) -> list[Layer]:
    r = _Reader(path, b"NAF1")
    layers = []
    for _ in range(r.scalar("H")):
        d_in, d_out, tag = r.scalar("I"), r.scalar("I"), r.scalar("B")
        w = r.array("<f4", d_in * d_out).reshape(d_out, d_in).astype(np.float64)
        b = r.array("<f4", d_out).astype(np.float64)
        layers.append(Layer(w, b, ACTIVATIONS[tag]))
    r.end()
    return layers


@dataclass
class Record:
    layer: str
    key: np.ndarray  # (bits, weights) float64
    payload: np.ndarray  # (bits,) bool
    threshold: float


def read_record(path) -> Record:
    r = _Reader(path, b"NAR1")
    layer = r.text()
    bits, width = r.scalar("I"), r.scalar("I")
    threshold = r.scalar("d")
    r.scalar("Q")  # seed
    key = r.array("<f4", bits * width).reshape(bits, width).astype(np.float64)
    payload = r.bits(bits)
    r.end()
    return Record(layer, key, payload, threshold)


@dataclass
class Codebook:
    words: np.ndarray  # (n, t) uint8
    k: int
    d_min: int
    digest: str
    words_offset: int  # byte offset of words[0, 0] in the file


def read_codebook(path) -> Codebook:
    r = _Reader(path, b"NAC1")
    n, t, k, d_min = r.scalar("I"), r.scalar("I"), r.scalar("H"), r.scalar("I")
    r.scalar("Q")  # seed
    offset = r.off
    words = r.array("<u1", n * t).reshape(n, t)
    r.end()
    return Codebook(words, k, d_min, r.payload_sha256(), offset)


@dataclass
class Triggers:
    mode: str
    variant_count: int
    layer: str
    centroids: np.ndarray
    codebook_ref: str
    inputs: np.ndarray  # (t, input_dim) float32 as stored
    final_losses: np.ndarray  # (t,) float32
    converged: np.ndarray  # (t,) bool
    inputs_offset: int


def read_triggers(path) -> Triggers:
    r = _Reader(path, b"NAT1")
    mode = r.text()
    variants = r.scalar("H")
    layer = r.text()
    t, in_dim, k = r.scalar("I"), r.scalar("I"), r.scalar("H")
    centroids = r.array("<f8", k)
    r.array("<f8", k - 1)  # boundaries
    ref = r.text()
    offset = r.off
    inputs = r.array("<f4", t * in_dim).reshape(t, in_dim)
    losses = r.array("<f4", t)
    conv = r.bits(t)
    r.end()
    return Triggers(mode, variants, layer, centroids, ref, inputs, losses, conv, offset)


def patch(path, offset: int, data: bytes) -> None:
    """Overwrite bytes at a file offset and recompute the payload checksum."""
    raw = bytearray(Path(path).read_bytes())
    raw[offset : offset + len(data)] = data
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(bytes(raw[HEADER:-4])))
    Path(path).write_bytes(bytes(raw))
