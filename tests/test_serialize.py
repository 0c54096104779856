"""Container round-trips and corruption detection for every artifact type."""

import re
import struct

import numpy as np
import pytest

from neuralign.coding import (
    MAGIC_CODEBOOK,
    default_codebook,
    load_codebook,
    save_codebook,
)
from neuralign.network import ShapeError, init_network, networks_equal
from neuralign.serialize import (
    MAGIC_MODEL,
    MAGIC_RECORD,
    MAGIC_TRIGGERS,
    FormatError,
    IntegrityError,
    PayloadReader,
    file_sha256,
    load_model,
    save_model,
)
from neuralign.triggers import load_trigger_set, save_trigger_set
from neuralign.watermark import load_record, make_record, save_record


@pytest.fixture
def net():
    return init_network(5, [8, 4, 3], seed=7)


def test_model_round_trip(tmp_path, net):
    path = tmp_path / "m.naf"
    save_model(net, path)
    back = load_model(path)
    assert networks_equal(net, back)
    assert [l.name for l in back.layers] == [l.name for l in net.layers]
    assert [l.activation for l in back.layers] == [l.activation for l in net.layers]


def test_model_save_is_deterministic(tmp_path, net):
    a, b = tmp_path / "a.naf", tmp_path / "b.naf"
    save_model(net, a)
    save_model(net, b)
    assert a.read_bytes() == b.read_bytes()
    assert file_sha256(a) == file_sha256(b)


def test_record_round_trip(tmp_path, net):
    record = make_record(net, "dense1", bits=24, threshold=0.2, seed=9)
    path = tmp_path / "r.nar"
    save_record(record, path)
    back = load_record(path)
    assert back.layer_name == "dense1"
    assert back.threshold == pytest.approx(0.2)
    assert back.seed == 9
    np.testing.assert_array_equal(back.payload, record.payload)
    np.testing.assert_array_equal(back.key, record.key)


def test_codebook_round_trip(tmp_path):
    cb = default_codebook(10, 16, 2, 1, seed=4)
    path = tmp_path / "c.nac"
    save_codebook(cb, path)
    back = load_codebook(path)
    np.testing.assert_array_equal(back.codewords, cb.codewords)
    assert back.k == cb.k and back.d_min == cb.d_min and back.seed == cb.seed
    assert back.digest == cb.digest


def test_trigger_round_trip(tmp_path, tiny_run):
    _, out, _ = tiny_run
    ts = load_trigger_set(out / "triggers_t1.nat")
    path = tmp_path / "t.nat"
    save_trigger_set(ts, path)
    back = load_trigger_set(path)
    np.testing.assert_array_equal(back.inputs, ts.inputs)
    np.testing.assert_array_equal(back.final_losses, ts.final_losses)
    np.testing.assert_array_equal(back.converged, ts.converged)
    np.testing.assert_array_equal(back.centroid_set.centroids, ts.centroid_set.centroids)
    assert back.codebook_ref == ts.codebook_ref
    assert back.mode == ts.mode
    assert back.variant_count == ts.variant_count
    assert back.layer_name == ts.layer_name


def test_benchmark_readers_parse_every_container(tmp_path, net, tiny_run, perfbench_module):
    """Every container the program writes reads back field for field through
    the benchmark's strict readers, which are written apart from the program's
    serializer, so a layout change fails here and not only in the benchmark."""
    pb = perfbench_module("containers")

    save_model(net, tmp_path / "m.naf")
    layers = pb.read_model(tmp_path / "m.naf")
    assert len(layers) == len(net.layers)
    for got, want in zip(layers, net.layers):
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.biases, want.biases)
        assert got.activation == want.activation

    record = make_record(net, "dense1", bits=21, threshold=0.2, seed=9)  # 21: a partial byte
    save_record(record, tmp_path / "r.nar")
    rec = pb.read_record(tmp_path / "r.nar")
    assert rec.layer == record.layer_name and rec.threshold == record.threshold
    np.testing.assert_array_equal(rec.key, record.key)
    np.testing.assert_array_equal(rec.payload, record.payload.astype(bool))

    cb = default_codebook(10, 16, 2, 1, seed=4)
    save_codebook(cb, tmp_path / "c.nac")
    book = pb.read_codebook(tmp_path / "c.nac")
    np.testing.assert_array_equal(book.words, cb.codewords)
    assert (book.k, book.d_min, book.digest) == (cb.k, cb.d_min, cb.digest)
    raw = (tmp_path / "c.nac").read_bytes()
    assert raw[book.words_offset : book.words_offset + cb.codewords.size] == cb.codewords.tobytes()

    _, out, _ = tiny_run
    ts = load_trigger_set(out / "triggers_t2.nat")
    save_trigger_set(ts, tmp_path / "t.nat")
    trig = pb.read_triggers(tmp_path / "t.nat")
    assert (trig.mode, trig.variant_count, trig.layer) == (ts.mode, ts.variant_count, ts.layer_name)
    assert trig.codebook_ref == ts.codebook_ref
    np.testing.assert_array_equal(trig.centroids, ts.centroid_set.centroids)
    np.testing.assert_array_equal(trig.inputs, ts.inputs)
    np.testing.assert_array_equal(trig.final_losses, ts.final_losses)
    np.testing.assert_array_equal(trig.converged, ts.converged)
    raw = (tmp_path / "t.nat").read_bytes()
    assert raw[trig.inputs_offset : trig.inputs_offset + ts.inputs.nbytes] == ts.inputs.tobytes()
    # the K-1 reserved float64 slots between the centroids and the codebook pin are zero
    end = trig.inputs_offset - 2 - len(ts.codebook_ref)
    assert raw[end - 8 * (ts.centroid_set.k - 1) : end] == bytes(8 * (ts.centroid_set.k - 1))


def _saved_model(tmp_path, net):
    path = tmp_path / "m.naf"
    save_model(net, path)
    return path


def test_wrong_magic_is_rejected(tmp_path, net):
    path = _saved_model(tmp_path, net)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_model(path)


def test_cross_container_magic_is_rejected(tmp_path, net):
    """A codebook file is not a model file even though both are containers."""
    cb = default_codebook(6, 8, 2, 1, seed=1)
    path = tmp_path / "c.nac"
    save_codebook(cb, path)
    with pytest.raises(FormatError, match="magic"):
        load_model(path)


def test_unsupported_version_is_rejected(tmp_path, net):
    path = _saved_model(tmp_path, net)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_model(path)


def test_payload_corruption_fails_checksum(tmp_path, net):
    path = _saved_model(tmp_path, net)
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="checksum"):
        load_model(path)


def test_file_truncation_is_detected(tmp_path, net):
    path = _saved_model(tmp_path, net)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises((FormatError, IntegrityError)):
        load_model(path)


def test_payload_truncation_reports_offset(tmp_path, net):
    """A checksum-valid but short payload fails with the exact byte offset."""
    from neuralign.serialize import MAGIC_MODEL, read_container, write_container

    path = _saved_model(tmp_path, net)
    payload = read_container(path, MAGIC_MODEL)
    write_container(path, MAGIC_MODEL, payload[: len(payload) // 2])
    with pytest.raises(FormatError, match=r"byte \d+"):
        load_model(path)


def test_appended_garbage_fails_checksum(tmp_path, net):
    path = _saved_model(tmp_path, net)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(IntegrityError):
        load_model(path)


def test_payload_trailing_bytes_are_rejected(tmp_path, net):
    """Valid checksum over an overlong payload still fails structurally."""
    from neuralign.serialize import MAGIC_MODEL, read_container, write_container

    path = _saved_model(tmp_path, net)
    payload = read_container(path, MAGIC_MODEL)
    write_container(path, MAGIC_MODEL, payload + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_model(path)


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "empty.naf"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        load_model(path)


def test_file_sha256_matches_content(tmp_path):
    import hashlib

    path = tmp_path / "blob.bin"
    path.write_bytes(b"0123456789")
    assert file_sha256(path) == hashlib.sha256(b"0123456789").hexdigest()


# Each builder saves one container and names a field to overwrite: its payload
# offset, the checksum-valid bytes that break the type's own validation, the
# loader and the complaint the loader must carry.
def _model_with_nan_weight(tmp_path, net, tiny_run):
    path = _saved_model(tmp_path, net)
    # u16 layer count, then dense0's u32 in, u32 out and u8 tag before its first weight
    return path, MAGIC_MODEL, 11, struct.pack("<f", np.nan), load_model, "layer dense0: non-finite"


def _record_with_zero_threshold(tmp_path, net, tiny_run):
    path = tmp_path / "r.nar"
    save_record(make_record(net, "dense1", bits=8, seed=1), path)
    # text "dense1" (u16 length + 6 bytes), u32 bits and u32 width before the threshold
    return path, MAGIC_RECORD, 16, struct.pack("<d", 0.0), load_record, "threshold must lie"


def _codebook_with_one_symbol(tmp_path, net, tiny_run):
    path = tmp_path / "c.nac"
    save_codebook(default_codebook(10, 16, 2, 1, seed=4), path)
    # u32 n and u32 t before the u16 symbol count
    return path, MAGIC_CODEBOOK, 8, struct.pack("<H", 1), load_codebook, "symbol count must be"


def _triggers_with_no_centroids(tmp_path, net, tiny_run):
    ts = load_trigger_set(tiny_run[1] / "triggers_t1.nat")
    path = tmp_path / "t.nat"
    save_trigger_set(ts, path)
    # text mode, u16 variant count, text layer, u32 t and u32 input width before
    # the u16 centroid count; zero centroids leave -1 reserved slots to skip
    offset = 2 + len(ts.mode) + 2 + 2 + len(ts.layer_name) + 8
    return path, MAGIC_TRIGGERS, offset, struct.pack("<H", 0), load_trigger_set, "negative field length -8"


@pytest.mark.parametrize("build", [_model_with_nan_weight, _record_with_zero_threshold,
                                   _codebook_with_one_symbol, _triggers_with_no_centroids])
def test_invalid_field_is_a_format_error_naming_the_file(build, tmp_path, net, tiny_run,
                                                         rewrite_payload):
    """A container whose checksum holds but whose fields fail their type's own
    validation is as corrupt as a truncated one: a FormatError naming the file."""
    path, magic, offset, value, load, complaint = build(tmp_path, net, tiny_run)
    rewrite_payload(path, magic, offset, value)
    with pytest.raises(FormatError, match=re.escape(f"{path}: ") + ".*" + re.escape(complaint)):
        load(path)


def test_reader_refuses_negative_lengths():
    """A negative length must not walk the reader backwards over read bytes."""
    r = PayloadReader(b"\x00" * 8)
    r.u32()
    with pytest.raises(FormatError, match="negative field length -4 at byte 10"):
        r.raw(-4)
    assert r.off == 4


def _model_field_cases():
    """(id, payload offset, packed value) for every count, dimension and tag
    field of the `net` fixture's model file, each set to values that do not
    describe the weights that follow."""
    dims = [(5, 8), (8, 4), (4, 3)]  # init_network(5, [8, 4, 3]): (in_dim, out_dim)
    cases = [(f"layer-count-{v}", 0, struct.pack("<H", v)) for v in (0, 0xFFFF)]
    offset = 2
    for i, (in_dim, out_dim) in enumerate(dims):
        for field, at in (("in_dim", 0), ("out_dim", 4)):
            cases += [(f"dense{i}-{field}-{v}", offset + at, struct.pack("<I", v))
                      for v in (0, 0xFFFFFFFF)]
        cases += [(f"dense{i}-tag-{v}", offset + 8, struct.pack("<B", v)) for v in (3, 255)]
        offset += 9 + 4 * out_dim * (in_dim + 1)
    return cases


@pytest.mark.parametrize("offset, value", [c[1:] for c in _model_field_cases()],
                         ids=[c[0] for c in _model_field_cases()])
def test_corrupt_model_fields_with_a_valid_checksum_are_format_errors(
    offset, value, tmp_path, net, rewrite_payload
):
    """A layer count, dimension or activation tag that passes the checksum
    but not the layout fails as a FormatError naming the file, never as a
    struct, index, memory or numpy error."""
    path = _saved_model(tmp_path, net)
    rewrite_payload(path, MAGIC_MODEL, offset, value)
    with pytest.raises(FormatError, match=re.escape(f"{path}: ")) as info:
        load_model(path)
    # the complaint is the reader's or the network's own, not a library's
    assert isinstance(info.value.__cause__, (FormatError, ShapeError)), repr(info.value.__cause__)
