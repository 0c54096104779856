"""Binary artifact containers.

Every artifact shares one container layout: a 4-byte magic, a u16 format
version, a structured little-endian payload, and a trailing CRC32 of the
payload. Model files use magic "NAF1"; watermark records, codebooks and
trigger sets use sibling magics so a reader can tell artifacts apart.

Readers parse fields in place, copying each array once out of the payload.
A container whose checksum holds but whose fields fail their type's own
validation is as corrupt as one that is cut short: each `load_*` reports it
as a `FormatError` naming the file.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .network import DenseLayer, Network

MAGIC_MODEL = b"NAF1"
MAGIC_RECORD = b"NAR1"
MAGIC_CODEBOOK = b"NAC1"
MAGIC_TRIGGERS = b"NAT1"
FORMAT_VERSION = 1

_HEADER_LEN = 6  # magic + version

# activation name -> tag byte used by the model file format
ACTIVATION_TAGS = {"identity": 0, "relu": 1, "softmax": 2}
TAG_ACTIVATIONS = {v: k for k, v in ACTIVATION_TAGS.items()}


class FormatError(ValueError):
    """Malformed, truncated, or corrupt artifact file."""


class IntegrityError(RuntimeError):
    """Content fails its checksum, or artifacts that must agree do not."""


class PayloadWriter:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, v: int):
        self.buf += struct.pack("<B", v)

    def u16(self, v: int):
        self.buf += struct.pack("<H", v)

    def u32(self, v: int):
        self.buf += struct.pack("<I", v)

    def u64(self, v: int):
        self.buf += struct.pack("<Q", v)

    def f64(self, v: float):
        self.buf += struct.pack("<d", v)

    def text(self, s: str):
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError("string too long to serialize")
        self.u16(len(raw))
        self.buf += raw

    def f32_array(self, arr: np.ndarray):
        self.buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()

    def f64_array(self, arr: np.ndarray):
        self.buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()

    def bits(self, flags: np.ndarray):
        """A bit vector, eight to a byte, least significant bit first."""
        self.buf += np.packbits(flags, bitorder="little").tobytes()

    def raw(self, data: bytes):
        self.buf += data

    def bytes_value(self) -> bytes:
        return bytes(self.buf)


class PayloadReader:
    """Sequential reader that parses each field in place at its offset, so an
    array costs one copy out of the payload; truncation and negative lengths
    are reported at absolute byte offsets."""

    def __init__(self, data: bytes, base_offset: int = _HEADER_LEN):
        self.data = memoryview(data)
        self.off = 0
        self.base = base_offset

    def _advance(self, n: int) -> int:
        """Start of the next n bytes, which the reader then moves past."""
        if n < 0:
            raise FormatError(f"negative field length {n} at byte {self.base + self.off}")
        if self.off + n > len(self.data):
            raise FormatError(
                f"file truncated at byte {self.base + len(self.data)} "
                f"(needed {n} more bytes at byte {self.base + self.off})"
            )
        start = self.off
        self.off += n
        return start

    def _scalar(self, fmt: str):
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))[0]

    def _array(self, dtype: str, count: int) -> np.ndarray:
        start = self._advance(np.dtype(dtype).itemsize * count)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start).copy()

    def u8(self) -> int:
        return self._scalar("<B")

    def u16(self) -> int:
        return self._scalar("<H")

    def u32(self) -> int:
        return self._scalar("<I")

    def u64(self) -> int:
        return self._scalar("<Q")

    def f64(self) -> float:
        return self._scalar("<d")

    def text(self) -> str:
        n = self.u16()
        return str(self.raw(n), "utf-8")

    def f32_array(self, count: int) -> np.ndarray:
        return self._array("<f4", count)

    def f64_array(self, count: int) -> np.ndarray:
        return self._array("<f8", count)

    def bits(self, count: int) -> np.ndarray:
        """`count` bits as written by `PayloadWriter.bits`, as uint8 0/1."""
        packed = np.frombuffer(self.raw((count + 7) // 8), dtype=np.uint8)
        return np.unpackbits(packed, count=count, bitorder="little")

    def raw(self, n: int) -> memoryview:
        """The next n bytes as a view into the payload, not a copy."""
        start = self._advance(n)
        return self.data[start : start + n]

    def expect_end(self):
        if self.off != len(self.data):
            raise FormatError(f"unexpected trailing bytes at byte {self.base + self.off}")


def write_container(path, magic: bytes, payload: bytes) -> None:
    data = magic + struct.pack("<H", FORMAT_VERSION) + payload + struct.pack("<I", zlib.crc32(payload))
    Path(path).write_bytes(data)


def read_container(path, magic: bytes) -> bytes:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != magic:
        raise FormatError(f"bad magic at byte 0: expected {magic!r}, got {raw[:4]!r}")
    if len(raw) < _HEADER_LEN:
        raise FormatError(f"file truncated at byte {len(raw)} (no format version)")
    version = struct.unpack_from("<H", raw, 4)[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} at byte 4")
    if len(raw) < _HEADER_LEN + 4:
        raise FormatError(f"file truncated at byte {len(raw)} (no checksum)")
    payload = raw[_HEADER_LEN:-4]
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(payload) != stored_crc:
        raise IntegrityError(f"payload checksum mismatch at byte {len(raw) - 4}")
    return payload


def _model_payload(net: Network) -> bytes:
    w = PayloadWriter()
    w.u16(len(net.layers))
    for layer in net.layers:
        w.u32(layer.in_dim)
        w.u32(layer.out_dim)
        w.u8(ACTIVATION_TAGS[layer.activation])
        w.f32_array(layer.weights)
        w.f32_array(layer.biases)
    return w.bytes_value()


def save_model(net: Network, path) -> None:
    write_container(path, MAGIC_MODEL, _model_payload(net))


def load_model(path) -> Network:
    r = PayloadReader(read_container(path, MAGIC_MODEL))
    try:
        n_layers = r.u16()
        layers = []
        for i in range(n_layers):
            in_dim = r.u32()
            out_dim = r.u32()
            tag = r.u8()
            if tag not in TAG_ACTIVATIONS:
                raise FormatError(f"unknown activation tag {tag} at byte {r.base + r.off - 1}")
            weights = r.f32_array(out_dim * in_dim).reshape(out_dim, in_dim)
            biases = r.f32_array(out_dim)
            layers.append(DenseLayer(f"dense{i}", weights, biases, TAG_ACTIVATIONS[tag]))
        r.expect_end()
        return Network(layers)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def file_sha256(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
