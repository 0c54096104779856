"""Fold centroids, capacity bound, and codebook behavior against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralign.align import align_to_matrix
from neuralign.coding import (
    CapacityError,
    CentroidSet,
    compute_centroids,
    default_codebook,
    generate_codebook,
    max_correctable,
    min_pairwise_distance,
    nearest_centroid,
    Codebook,
    _candidate_words,
)

# ------------------------------------------------------------- centroids

# published capacity table: rows N=64 and N=128 over T=20..160 step 20,
# binary folds, one corrupted alternative per position
PUBLISHED_BOUNDS = {
    64: [4, 12, 21, 29, 38, 47, 56, 65],
    128: [4, 11, 20, 28, 37, 46, 55, 64],
}


def test_two_folds_of_eight_values():
    # sorted 0..7, K=2: folds {0,1,2,3} and {4,5,6,7}, divisor ceil(8/2)=4
    cs = compute_centroids(np.arange(8.0), 2)
    np.testing.assert_allclose(cs.centroids, [6 / 4, 22 / 4])
    assert cs.k == 2
    assert cs.min_gap == pytest.approx(4.0)


def test_uneven_fold_keeps_ceil_divisor():
    # M=7, K=2: edges at ceil(0)=0, ceil(3.5)=4, 7; both folds divide by ceil(7/2)=4,
    # so the short second fold's centroid is (4+5+6)/4, not the fold mean
    cs = compute_centroids(np.arange(7.0), 2)
    np.testing.assert_allclose(cs.centroids, [6 / 4, 15 / 4])


def test_three_folds_of_six_values():
    cs = compute_centroids(np.arange(6.0), 3)
    np.testing.assert_allclose(cs.centroids, [0.5, 2.5, 4.5])


def test_centroids_ignore_input_order_and_shape():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(37, 11))
    a = compute_centroids(vals, 4)
    b = compute_centroids(rng.permutation(vals.ravel()).reshape(11, 37), 4)
    np.testing.assert_allclose(a.centroids, b.centroids)


def test_degenerate_outputs_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        compute_centroids(np.ones(100), 2)
    with pytest.raises(ValueError):
        compute_centroids(np.arange(3.0), 4)  # fewer values than folds


def test_centroid_set_validation():
    with pytest.raises(ValueError, match="ascending"):
        CentroidSet(np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="non-empty"):
        CentroidSet(np.array([]))


def test_nearest_centroid_rounds_to_closest():
    cs = compute_centroids(np.arange(8.0), 2)  # centroids 1.5 and 5.5
    np.testing.assert_array_equal(
        nearest_centroid(np.array([0.0, 3.49, 3.51, 9.0]), cs), [0, 0, 1, 1]
    )
    assert nearest_centroid(2.0, cs) == 0


def test_nearest_centroid_tie_takes_lower_index():
    cs = compute_centroids(np.arange(8.0), 2)
    assert nearest_centroid(3.5, cs) == 0  # equidistant from 1.5 and 5.5


@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_each_centroid_reads_back_as_itself(k, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=200)
    cs = compute_centroids(vals, k)
    got = nearest_centroid(cs.centroids, cs)
    np.testing.assert_array_equal(got, np.arange(k))


# ------------------------------------------------------------- capacity


def brute_force_bound(n: int, t: int, k: int, kc: int) -> int:
    """Independent restatement: the largest t_c whose corruption-ball count,
    over all N neurons, still fits in the K^T word space."""
    best = 0
    for tc in range(1, t + 1):
        total = n * sum(math.comb(t, i) * kc**i for i in range(1, tc + 1))
        if total <= k**t:
            best = tc
        else:
            break
    return best


def test_capacity_matches_published_table():
    for n, row in PUBLISHED_BOUNDS.items():
        got = [max_correctable(n, t, 2, 1) for t in range(20, 161, 20)]
        assert got == row


@given(
    st.integers(1, 64), st.integers(1, 24), st.integers(2, 4), st.integers(1, 3)
)
@settings(max_examples=80, deadline=None)
def test_capacity_matches_brute_force(n, t, k, kc):
    if kc >= k:
        kc = k - 1
    assert max_correctable(n, t, k, kc) == brute_force_bound(n, t, k, kc)


def test_capacity_monotone_in_width_and_length():
    for t in (20, 60, 100):
        assert max_correctable(64, t, 2, 1) >= max_correctable(128, t, 2, 1)
    for n in (16, 64):
        bounds = [max_correctable(n, t, 2, 1) for t in range(20, 161, 20)]
        assert bounds == sorted(bounds)


def test_capacity_uses_exact_big_integers():
    # at T=500 the word space is astronomically large; floats would overflow
    assert max_correctable(64, 500, 2, 1) == brute_force_bound(64, 500, 2, 1)


def test_capacity_argument_validation():
    with pytest.raises(ValueError):
        max_correctable(0, 10, 2, 1)
    with pytest.raises(ValueError):
        max_correctable(4, 0, 2, 1)
    with pytest.raises(ValueError):
        max_correctable(4, 10, 2, 2)  # corrupted alternatives must stay below k


# ------------------------------------------------------------- codebooks


def test_generated_codebook_honors_distance():
    cb = generate_codebook(12, 24, 2, 8, seed=3)
    assert cb.codewords.shape == (12, 24)
    assert min_pairwise_distance(cb.codewords) >= 8
    assert cb.d_min >= 8
    assert len({w.tobytes() for w in cb.codewords}) == 12


def test_generation_is_seed_deterministic():
    a = generate_codebook(8, 16, 2, 5, seed=11)
    b = generate_codebook(8, 16, 2, 5, seed=11)
    c = generate_codebook(8, 16, 2, 5, seed=12)
    np.testing.assert_array_equal(a.codewords, b.codewords)
    assert not np.array_equal(a.codewords, c.codewords)


def test_word_space_too_small_raises():
    with pytest.raises(CapacityError, match="distinct words"):
        generate_codebook(100, 5, 2, 1, seed=0)  # 2^5 = 32 < 100


def test_distance_beyond_length_raises():
    with pytest.raises(CapacityError):
        generate_codebook(4, 10, 2, 11, seed=0)


def test_overambitious_distance_exhausts_budget():
    # binary words of length 160 at pairwise distance 129: with d > T/2 only a
    # couple of words can coexist, so 32 are unreachable at any budget
    with pytest.raises(CapacityError, match="attempts"):
        generate_codebook(32, 160, 2, 129, seed=0)


def _reference_codebook(n, t, k, d_min, seed):
    """The generator as a plain loop: one candidate at a time against every
    kept word. Returns (codewords, None) or (None, kept count at exhaustion)."""
    rng = np.random.default_rng(seed)
    kept = np.empty((n, t), dtype=np.uint8)
    count = 0
    for _ in range(400 * n):
        cand = rng.integers(0, k, size=t, dtype=np.uint8)
        if count == 0 or int((kept[:count] != cand).sum(axis=1).min()) >= d_min:
            kept[count] = cand
            count += 1
            if count == n:
                return kept, None
    return None, count


@pytest.mark.parametrize("n, t, k, seeds", [
    (1, 5, 2, (0, 3)), (2, 1, 2, (0, 3)), (5, 8, 3, (0, 3, 11)), (9, 12, 7, (0, 3)),
    (12, 24, 2, (3,)),
])
def test_generator_matches_the_plain_loop(n, t, k, seeds):
    """Same words, or the same exhaustion count, at every distance."""
    for seed in seeds:
        for d_min in range(1, t + 1):
            words, count = _reference_codebook(n, t, k, d_min, seed)
            if words is None:
                with pytest.raises(CapacityError, match=f"found only {count}/{n} codewords"):
                    generate_codebook(n, t, k, d_min, seed)
                continue
            cb = generate_codebook(n, t, k, d_min, seed)
            assert cb.codewords.tobytes() == words.tobytes()
            assert cb.d_min == min_pairwise_distance(words)


# power-of-two symbol counts take one draw for the whole stream, the others
# the per-word loop; lengths that do and do not fill whole 32-bit draws
@pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64, 128, 256, 3, 5, 7, 255])
def test_candidate_stream_is_one_draw_per_word(k):
    for t in (1, 2, 3, 5, 7, 13, 60, 61, 64, 70):
        rng = np.random.default_rng(9)
        per_word = np.stack([rng.integers(0, k, size=t, dtype=np.uint8) for _ in range(400)])
        words = _candidate_words.__wrapped__(1, t, k, 9)  # past the cache
        assert words.shape == per_word.shape and words.flags.c_contiguous
        assert words.tobytes() == per_word.tobytes(), (k, t)
        assert not words.flags.writeable


def _count_nonzero_codebook(words, n, d_min):
    """The draw-order search over a stream of unpacked candidate words,
    counting differing symbols with `count_nonzero`. Returns (codewords,
    None) or (None, kept count at exhaustion)."""
    t = words.shape[1]
    kept = [0]
    nearest = np.full(len(words), t, dtype=np.int64)
    while len(kept) < n:
        last = kept[-1]
        rest = nearest[last + 1 :]
        np.minimum(rest, np.count_nonzero(words[last + 1 :] != words[last], axis=1), out=rest)
        far = np.flatnonzero(rest >= d_min)
        if far.size == 0:
            return None, len(kept)
        kept.append(last + 1 + int(far[0]))
    return words[kept], None


# symbol counts at each field width (1, 2, 4 and 8 bits), with lengths that
# do not fill a whole number of uint64 words (64, 32, 16 and 8 fields a word)
@pytest.mark.parametrize("n, t, k", [
    (6, 70, 2), (8, 60, 2), (6, 37, 3), (6, 21, 5), (6, 19, 7), (6, 18, 9), (6, 23, 16),
    (5, 13, 256),
])
def test_packed_search_matches_the_count_nonzero_search(n, t, k):
    """Same words, or the same exhaustion count, at every distance 1..T."""
    for seed in (0, 4):
        rng = np.random.default_rng(seed)
        stream = np.stack([rng.integers(0, k, size=t, dtype=np.uint8) for _ in range(400 * n)])
        for d_min in range(1, t + 1):
            words, count = _count_nonzero_codebook(stream, n, d_min)
            if words is None:
                with pytest.raises(CapacityError, match=f"found only {count}/{n} codewords"):
                    generate_codebook(n, t, k, d_min, seed)
            else:
                assert generate_codebook(n, t, k, d_min, seed).codewords.tobytes() == words.tobytes()


@pytest.mark.parametrize("n, t, k, kc, seed", [
    (32, 60, 2, 1, 0), (16, 24, 2, 1, 5), (16, 40, 2, 1, 7), (10, 12, 3, 2, 1),
])
def test_default_codebook_matches_a_search_over_the_plain_loop(n, t, k, kc, seed):
    lo, hi = 1, max(min(2 * max_correctable(n, t, k, kc) + 1, t), 1)
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        words, _ = _reference_codebook(n, t, k, mid, seed)
        if words is None:
            hi = mid - 1
        else:
            best, lo = words, mid + 1
    assert default_codebook(n, t, k, kc, seed).codewords.tobytes() == best.tobytes()


def test_default_codebook_reaches_useful_distance():
    cb = default_codebook(32, 60, 2, 1, seed=0)
    assert cb.n == 32 and cb.t == 60 and cb.k == 2
    assert cb.d_min == min_pairwise_distance(cb.codewords)
    # random binary words of length 60 concentrate near distance 30; the
    # search should keep a comfortable correction radius
    assert cb.d_min >= 20
    assert (cb.d_min - 1) // 2 >= 9


def test_default_codebook_is_maximal_for_its_seed():
    cb = default_codebook(16, 24, 2, 1, seed=5)
    with pytest.raises(CapacityError):
        generate_codebook(16, 24, 2, cb.d_min + 1, seed=5)


def test_decode_within_radius_is_exact():
    """Every word corrupted within (d_min - 1) // 2 flips, its symbols read
    as fold centroids, is assigned its own index under any permutation; a word
    read without flips is nearest to itself, so its margin is positive."""
    centroids = np.array([0.1, 1.0])
    cb = default_codebook(16, 40, 2, 1, seed=7)
    radius = (cb.d_min - 1) // 2
    rng = np.random.default_rng(7)
    for _ in range(50):
        perm = rng.permutation(cb.n)
        obs = np.empty_like(cb.codewords)
        obs[perm] = cb.codewords
        n_flips = rng.integers(0, radius + 1, size=cb.n)
        for word, pos in enumerate(perm):
            flips = rng.choice(cb.t, size=n_flips[word], replace=False)
            obs[pos, flips] = 1 - obs[pos, flips]
        res = align_to_matrix(centroids[obs], centroids[cb.codewords])
        np.testing.assert_array_equal(res.perm_estimate, perm)
        assert (res.per_neuron_margin[perm][n_flips == 0] > 0).all()


def test_min_pairwise_distance_hand_cases():
    words = np.array([[0, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    assert min_pairwise_distance(words) == 2
    assert min_pairwise_distance(words[:1]) == 3  # lone word: full length


def test_digest_tracks_codewords():
    a = generate_codebook(6, 12, 2, 4, seed=0)
    flipped = a.codewords.copy()
    flipped[0, 0] = 1 - flipped[0, 0]
    b = Codebook(flipped, a.k, min_pairwise_distance(flipped), a.seed)
    assert a.digest != b.digest


def test_codebook_validation():
    with pytest.raises(ValueError, match="distinct"):
        Codebook(np.zeros((2, 4), dtype=np.uint8), 2, 4, 0)
    with pytest.raises(ValueError, match="out of range"):
        Codebook(np.array([[0, 3]], dtype=np.uint8), 2, 2, 0)
