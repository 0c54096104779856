"""Sign-projection watermark: extraction oracles, embedding, sensitivity."""

import dataclasses

import numpy as np
import pytest

from neuralign.attacks import inverse_permutation, permute_neurons, random_permutation, PermutationSpec
from neuralign.data import make_blobs
from neuralign.network import DenseLayer, Network, TrainConfig, accuracy, init_network, train
from neuralign.watermark import (
    TamperError,
    WatermarkRecord,
    embed,
    extract_bits,
    make_record,
    save_record,
    verify,
)


def two_layer_net(first_weights):
    l0 = DenseLayer("dense0", np.asarray(first_weights, dtype=np.float32),
                    np.zeros(len(first_weights), dtype=np.float32), "relu")
    l1 = DenseLayer("dense1", np.ones((2, len(first_weights)), dtype=np.float32),
                    np.zeros(2, dtype=np.float32), "softmax")
    return Network([l0, l1])


def test_extraction_matches_hand_projections():
    # flattened dense0 weights: [1, -2, 3, -4]
    net = two_layer_net([[1.0, -2.0], [3.0, -4.0]])
    key = np.array([
        [1, 0, 0, 0],   # -> 1      -> bit 1
        [0, 1, 0, 0],   # -> -2     -> bit 0
        [1, 1, 1, 1],   # -> -2     -> bit 0
        [0, 0, 0, 0],   # -> 0 tie  -> bit 1
    ], dtype=np.float32)
    record = WatermarkRecord("dense0", key, np.array([1, 0, 0, 1], dtype=np.uint8),
                             threshold=0.15, seed=0)
    np.testing.assert_array_equal(extract_bits(net, record), [1, 0, 0, 1])
    result = verify(net, record)
    assert result.accepted and result.ber == 0.0


def test_zero_weights_read_as_all_ones():
    # documented tie rule: projection exactly 0 maps to bit 1, so an all-zero
    # payload on an all-zero layer gives ber = 1.0
    net = two_layer_net([[0.0, 0.0], [0.0, 0.0]])
    key = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
    record = WatermarkRecord("dense0", key, np.zeros(8, dtype=np.uint8),
                             threshold=0.15, seed=0)
    result = verify(net, record)
    np.testing.assert_array_equal(result.bits_extracted, np.ones(8, dtype=np.uint8))
    assert result.ber == 1.0 and not result.accepted


def test_acceptance_boundary_is_inclusive():
    net = two_layer_net([[1.0, -2.0], [3.0, -4.0]])
    rng = np.random.default_rng(1)
    key = rng.normal(size=(20, 4)).astype(np.float32)
    bits = extract_bits(net, WatermarkRecord("dense0", key, np.zeros(20, dtype=np.uint8),
                                             threshold=0.15, seed=0))
    flip3 = bits.copy()
    flip3[:3] ^= 1
    assert verify(net, WatermarkRecord("dense0", key, flip3, 0.15, 0)).accepted
    flip4 = bits.copy()
    flip4[:4] ^= 1
    assert not verify(net, WatermarkRecord("dense0", key, flip4, 0.15, 0)).accepted


def test_record_validation_and_tamper_errors():
    net = two_layer_net([[1.0, -2.0], [3.0, -4.0]])
    record = make_record(net, "dense0", bits=8, seed=0)
    assert record.key.shape == (8, 4)
    other = init_network(3, [5, 2], seed=0)
    with pytest.raises(TamperError, match="weights"):
        verify(other, record)
    gone = net.clone()
    gone.layers[0].name = "dense7"
    with pytest.raises(TamperError, match="no layer"):
        verify(gone, record)


def test_float64_key_is_cast_once_outside_equality_and_bytes(tmp_path):
    """The float64 key is computed once per record and read-only; it is no
    field, so equality and the saved bytes do not see it."""
    net = init_network(5, [8, 4, 3], seed=7)
    record = make_record(net, "dense1", bits=12, seed=3)
    twin = WatermarkRecord(record.layer_name, record.key, record.payload, record.threshold,
                           record.seed)
    save_record(record, tmp_path / "before.nar")
    key64 = record.key64
    assert key64 is record.key64 and not key64.flags.writeable
    assert key64.dtype == np.float64
    np.testing.assert_array_equal(key64, record.key.astype(np.float64))
    assert "key64" not in {f.name for f in dataclasses.fields(record)}
    assert record == twin  # only record has cast its key
    save_record(record, tmp_path / "after.nar")
    assert (tmp_path / "after.nar").read_bytes() == (tmp_path / "before.nar").read_bytes()


def test_record_keeps_its_own_key_and_compares_by_value():
    """A caller writing into the arrays it built a record from changes neither
    the record nor its verdict, and records built from equal values are equal."""
    net = init_network(5, [8, 4, 3], seed=7)
    made = make_record(net, "dense1", bits=12, seed=4)
    key, payload = np.array(made.key), extract_bits(net, made)  # the caller's own arrays
    record = WatermarkRecord("dense1", key, payload, 0.15, 4)
    before = verify(net, record)
    key *= -1
    payload ^= 1
    after = verify(net, record)
    np.testing.assert_array_equal(after.bits_extracted, before.bits_extracted)
    assert after.ber == before.ber == 0.0
    np.testing.assert_array_equal(record.key, -key)
    assert not (record.key.flags.writeable or record.payload.flags.writeable)
    assert made == make_record(net, "dense1", bits=12, seed=4)
    assert record == WatermarkRecord("dense1", -key, payload ^ 1, 0.15, 4)
    assert record != WatermarkRecord("dense1", key, payload ^ 1, 0.15, 4)
    assert record != WatermarkRecord("dense1", -key, payload ^ 1, 0.15, 5)


def test_make_record_is_seeded():
    net = init_network(4, [6, 2], seed=0)
    a = make_record(net, "dense0", bits=16, seed=5)
    b = make_record(net, "dense0", bits=16, seed=5)
    c = make_record(net, "dense0", bits=16, seed=6)
    np.testing.assert_array_equal(a.key, b.key)
    np.testing.assert_array_equal(a.payload, b.payload)
    assert not np.array_equal(a.key, c.key)


EMBED_HP = TrainConfig(epochs=3, lr=0.05, batch_size=32, seed=3)


@pytest.fixture(scope="module")
def marked_setup():
    data = make_blobs(400, 8, 3, spread=0.3, seed=3)
    net = train(init_network(8, [24, 12, 3], seed=3), data,
                TrainConfig(epochs=15, lr=0.1, seed=3))
    record = make_record(net, "dense1", bits=32, seed=3)
    marked = embed(net, record, data, EMBED_HP, strength=2.0, max_rounds=4)
    return net, marked, record, data


def test_embedding_is_a_verification_fixed_point(marked_setup):
    _, marked, record, _ = marked_setup
    result = verify(marked, record)
    assert result.ber == 0.0 and result.accepted


def test_embedding_keeps_task_accuracy(marked_setup):
    net, marked, _, data = marked_setup
    assert accuracy(net, data) - accuracy(marked, data) <= 0.02


def test_embedding_is_deterministic(marked_setup):
    net, marked, record, data = marked_setup
    again = embed(net, record, data, EMBED_HP, strength=2.0, max_rounds=4)
    np.testing.assert_array_equal(
        again.layer("dense1").weights, marked.layer("dense1").weights
    )


def test_unwatermarked_nets_read_as_coin_flips():
    """A random record on a fresh net projects to ~uniform bits."""
    bers = []
    for seed in range(30):
        data = make_blobs(150, 6, 2, spread=0.3, seed=100 + seed)
        net = train(init_network(6, [12, 2], seed=200 + seed), data,
                    TrainConfig(epochs=5, lr=0.1, seed=seed))
        record = make_record(net, "dense0", bits=32, seed=300 + seed)
        bers.append(verify(net, record).ber)
    assert 0.35 <= float(np.mean(bers)) <= 0.65
    assert all(0.15 <= b <= 0.85 for b in bers)


def test_permutation_breaks_verification(marked_setup):
    """The premise of the permutation attack: ber jumps past the threshold."""
    _, marked, record, _ = marked_setup
    broken = 0
    for seed in range(100):
        spec = random_permutation(12, seed=seed, layer_name="dense1")
        if verify(permute_neurons(marked, spec), record).ber > record.threshold:
            broken += 1
    assert broken >= 99


def test_exact_inverse_permutation_restores_ber_zero(marked_setup):
    _, marked, record, _ = marked_setup
    spec = random_permutation(12, seed=9, layer_name="dense1")
    shuffled = permute_neurons(marked, spec)
    assert verify(shuffled, record).ber > record.threshold
    restored = permute_neurons(
        shuffled, PermutationSpec("dense1", inverse_permutation(spec.perm))
    )
    assert verify(restored, record).ber == 0.0
    np.testing.assert_array_equal(
        restored.layer("dense1").weights, marked.layer("dense1").weights
    )
