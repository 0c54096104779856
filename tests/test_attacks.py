"""Functionality-equivalence attacks: exactness, composition, distributions."""

import numpy as np
import pytest
import scipy.stats

from neuralign.attacks import (
    PermutationSpec,
    attack_rescale,
    functional_drift,
    inverse_permutation,
    permute_neurons,
    random_permutation,
    random_scales,
)
from neuralign.config import AttackSpec
from neuralign.data import make_blobs
from neuralign.network import (
    TrainConfig,
    accuracy,
    init_network,
    train,
)
from neuralign.pipeline import _forge_suspect
from neuralign.triggers import layer_outputs
from conftest import networks_equal


@pytest.fixture(scope="module")
def victim():
    data = make_blobs(300, 8, 3, spread=0.3, seed=4)
    net = train(init_network(8, [20, 10, 3], seed=4), data,
                TrainConfig(epochs=12, lr=0.1, seed=4))
    probes = np.random.default_rng(4).normal(size=(200, 8))
    return net, data, probes


def test_permutation_spec_requires_bijection():
    with pytest.raises(ValueError):
        PermutationSpec("dense0", np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        PermutationSpec("dense0", np.array([[0, 1]]))


def test_inverse_permutation_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.permutation(rng.integers(1, 30))
        np.testing.assert_array_equal(p[inverse_permutation(p)], np.arange(p.size))
        np.testing.assert_array_equal(inverse_permutation(inverse_permutation(p)), p)


def test_permute_moves_rows_to_destinations(victim):
    net, _, _ = victim
    spec = PermutationSpec("dense1", np.array([2, 0, 1] + list(range(3, 10))))
    out = permute_neurons(net, spec)
    # row 0 lands at position 2, successor column 0 lands at column 2
    np.testing.assert_array_equal(out.layer("dense1").weights[2], net.layer("dense1").weights[0])
    np.testing.assert_array_equal(out.layer("dense1").biases[2:3], net.layer("dense1").biases[0:1])
    np.testing.assert_array_equal(out.layer("dense2").weights[:, 2], net.layer("dense2").weights[:, 0])


def test_permutation_preserves_function(victim):
    net, _, probes = victim
    for seed in range(5):
        spec = random_permutation(10, seed=seed, layer_name="dense1")
        assert functional_drift(net, permute_neurons(net, spec), probes) <= 1e-5


def test_permutation_inverse_restores_bits(victim):
    net, _, _ = victim
    spec = random_permutation(10, seed=1, layer_name="dense1")
    back = permute_neurons(
        permute_neurons(net, spec),
        PermutationSpec("dense1", inverse_permutation(spec.perm)),
    )
    assert networks_equal(net, back)


def test_permutation_composition(victim):
    net, _, _ = victim
    s1 = random_permutation(10, seed=2, layer_name="dense1")
    s2 = random_permutation(10, seed=3, layer_name="dense1")
    chained = permute_neurons(permute_neurons(net, s1), s2)
    combined = permute_neurons(net, PermutationSpec("dense1", s2.perm[s1.perm]))
    assert networks_equal(chained, combined)


def test_output_layer_cannot_be_permuted(victim):
    net, _, _ = victim
    with pytest.raises(ValueError, match="output layer"):
        permute_neurons(net, PermutationSpec("dense2", np.arange(3)))


def test_random_permutation_never_identity():
    for seed in range(200):
        spec = random_permutation(3, seed=seed)
        assert not np.array_equal(spec.perm, np.arange(3))


def test_random_permutations_are_uniform():
    """chi-square over the 23 non-identity permutations of 4 elements."""
    counts = {}
    for seed in range(10000):
        key = tuple(random_permutation(4, seed=seed).perm)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 23
    _, p = scipy.stats.chisquare(list(counts.values()))
    assert p > 0.01


def forge(net, data, spec, trial_seed, **attack):
    """The attack stage's suspect for one trial of AttackSpec(**attack):
    its transform of `net`, then `spec`."""
    return _forge_suspect(AttackSpec(**attack), net, spec.layer_name, spec, data, trial_seed)


def test_ftp_drifts_but_keeps_accuracy(victim):
    net, data, probes = victim
    spec = random_permutation(10, seed=5, layer_name="dense1")
    suspect = forge(net, data, spec, 5, kind="ftp", epochs=1)
    assert functional_drift(net, suspect, probes) > 0.0
    assert abs(accuracy(net, data) - accuracy(suspect, data)) <= 0.05


def test_ftp_zero_epochs_is_pure_permutation(victim):
    net, data, _ = victim
    spec = random_permutation(10, seed=6, layer_name="dense1")
    assert networks_equal(
        forge(net, data, spec, 6, kind="ftp", epochs=0),
        permute_neurons(net, spec),
    )


def test_npp_prunes_then_permutes(victim):
    net, data, probes = victim
    spec = random_permutation(10, seed=7, layer_name="dense1")
    suspect = forge(net, data, spec, 7, kind="npp", fraction=0.3)
    rows = np.abs(suspect.layer("dense1").weights).sum(axis=1)
    assert int((rows == 0).sum()) == 3  # floor(0.3 * 10)
    # live neurons still compute their original outputs, permuted
    orig = layer_outputs(net, "dense1", probes)
    got = layer_outputs(suspect, "dense1", probes)
    for i in range(10):
        if rows[spec.perm[i]] != 0:
            np.testing.assert_allclose(got[spec.perm[i]], orig[i], atol=1e-6)


def test_npp_zero_fraction_equals_np(victim):
    net, data, _ = victim
    spec = random_permutation(10, seed=8, layer_name="dense1")
    assert networks_equal(forge(net, data, spec, 8, kind="npp", fraction=0.0),
                          permute_neurons(net, spec))


def test_random_scales_bounds_and_determinism():
    s1 = random_scales(50, seed=1, low=0.5, high=2.0)
    s2 = random_scales(50, seed=1, low=0.5, high=2.0)
    np.testing.assert_array_equal(s1, s2)
    assert (s1 >= 0.5).all() and (s1 <= 2.0).all()
    with pytest.raises(ValueError):
        random_scales(5, seed=0, low=0.0, high=2.0)
    with pytest.raises(ValueError):
        random_scales(5, seed=0, low=3.0, high=2.0)


def test_rescale_preserves_function(victim):
    net, _, probes = victim
    for seed in range(5):
        scales = random_scales(10, seed=seed, low=0.5, high=2.0)
        suspect = attack_rescale(net, "dense1", scales)
        assert functional_drift(net, suspect, probes) <= 1e-5


def test_rescale_changes_every_touched_weight(victim):
    net, _, _ = victim
    scales = random_scales(10, seed=3, low=1.1, high=2.0)  # keep scales off 1.0
    suspect = attack_rescale(net, "dense1", scales)
    assert not np.any(suspect.layer("dense1").weights == net.layer("dense1").weights)
    assert not np.any(suspect.layer("dense2").weights == net.layer("dense2").weights)
    np.testing.assert_allclose(
        suspect.layer("dense1").weights,
        (net.layer("dense1").weights.astype(np.float64) * scales[:, None]).astype(np.float32),
    )


def test_rescale_validation(victim):
    net, _, _ = victim
    with pytest.raises(ValueError, match="output layer"):
        attack_rescale(net, "dense2", np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        attack_rescale(net, "dense1", np.linspace(-1, 1, 10))
    with pytest.raises(ValueError, match="scales"):
        attack_rescale(net, "dense1", np.ones(4))


def test_unit_scales_are_identity(victim):
    net, _, _ = victim
    assert networks_equal(net, attack_rescale(net, "dense1", np.ones(10)))


def test_functional_drift_is_zero_for_clones(victim):
    net, _, probes = victim
    assert functional_drift(net, net.clone(), probes) == 0.0
