"""Binary artifact containers.

Every artifact shares one container layout: a 4-byte magic, a u16 format
version, a structured little-endian payload, and a trailing CRC32 of the
payload. Model files use magic "NAF1"; watermark records, codebooks and
trigger sets use sibling magics so a reader can tell artifacts apart.

Readers parse fields in place, copying each array once out of the payload.
The file is read in one unbuffered call, and fixed-size fields go through
precompiled little-endian `struct.Struct`s, shared by the writer; a model
layer's header (in and out widths, activation tag) is one struct, and its
weights and the biases that follow them are one copy. A container whose
checksum holds but whose fields fail their type's own validation is as
corrupt as one that is cut short: each `load_*` reports it as a
`FormatError` naming the file, whatever count, width or tag it carries.
"""

from __future__ import annotations

import os
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


# little-endian field layouts, compiled once
_U8, _U16, _U32, _U64, _F64 = map(struct.Struct, ("<B", "<H", "<I", "<Q", "<d"))
_LAYER_HEAD = struct.Struct("<IIB")  # in_dim, out_dim, activation tag
_F4_ARRAY, _F8_ARRAY = np.dtype("<f4"), np.dtype("<f8")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A copy of `arr` backed by an immutable bytes object: no one can write
    to it, nor make it writeable again, so values cached from it stay true."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


class FormatError(ValueError):
    """Malformed, truncated, or corrupt artifact file."""


class IntegrityError(RuntimeError):
    """Content fails its checksum, or artifacts that must agree do not."""


class PayloadWriter:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, v: int):
        self.buf += _U8.pack(v)

    def u16(self, v: int):
        self.buf += _U16.pack(v)

    def u32(self, v: int):
        self.buf += _U32.pack(v)

    def u64(self, v: int):
        self.buf += _U64.pack(v)

    def f64(self, v: float):
        self.buf += _F64.pack(v)

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
    are reported at absolute byte offsets.

    Fixed-size fields are read through precompiled `struct.Struct`s, several
    adjacent ones at a time where a layout groups them."""

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

    def _fields(self, layout: struct.Struct) -> tuple:
        """The next `layout.size` bytes unpacked by one precompiled struct."""
        return layout.unpack_from(self.data, self._advance(layout.size))

    def _array(self, dtype: np.dtype, count: int) -> np.ndarray:
        start = self._advance(dtype.itemsize * count)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start).copy()

    def u8(self) -> int:
        return self._fields(_U8)[0]

    def u16(self) -> int:
        return self._fields(_U16)[0]

    def u32(self) -> int:
        return self._fields(_U32)[0]

    def u64(self) -> int:
        return self._fields(_U64)[0]

    def f64(self) -> float:
        return self._fields(_F64)[0]

    def text(self) -> str:
        n = self.u16()
        return str(self.raw(n), "utf-8")

    def f32_array(self, count: int) -> np.ndarray:
        return self._array(_F4_ARRAY, count)

    def f64_array(self, count: int) -> np.ndarray:
        return self._array(_F8_ARRAY, count)

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
    data = magic + _U16.pack(FORMAT_VERSION) + payload + _U32.pack(zlib.crc32(payload))
    Path(path).write_bytes(data)


def read_container(path, magic: bytes) -> bytes:
    # unbuffered: one read of the whole file, and no Path object to build
    with open(os.fspath(path), "rb", buffering=0) as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != magic:
        raise FormatError(f"bad magic at byte 0: expected {magic!r}, got {raw[:4]!r}")
    if len(raw) < _HEADER_LEN:
        raise FormatError(f"file truncated at byte {len(raw)} (no format version)")
    (version,) = _U16.unpack_from(raw, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version} at byte 4")
    if len(raw) < _HEADER_LEN + 4:
        raise FormatError(f"file truncated at byte {len(raw)} (no checksum)")
    payload = raw[_HEADER_LEN:-4]
    (stored_crc,) = _U32.unpack_from(raw, len(raw) - 4)
    if zlib.crc32(payload) != stored_crc:
        raise IntegrityError(f"payload checksum mismatch at byte {len(raw) - 4}")
    return payload


def _model_payload(net: Network) -> bytes:
    w = PayloadWriter()
    w.u16(len(net.layers))
    for layer in net.layers:
        w.buf += _LAYER_HEAD.pack(layer.in_dim, layer.out_dim, ACTIVATION_TAGS[layer.activation])
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
            in_dim, out_dim, tag = r._fields(_LAYER_HEAD)
            activation = TAG_ACTIVATIONS.get(tag)
            if activation is None:
                raise FormatError(f"unknown activation tag {tag} at byte {r.base + r.off - 1}")
            # the weights and the biases that follow them, in one copy
            params = r.f32_array(out_dim * (in_dim + 1))
            cut = out_dim * in_dim
            weights = params[:cut].reshape(out_dim, in_dim)
            layers.append(DenseLayer(f"dense{i}", weights, params[cut:], activation))
        r.expect_end()
        return Network(layers)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def file_sha256(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
