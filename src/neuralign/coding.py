"""Output-space coding for the watermarked layer.

Neuron outputs on a trigger batch are pooled, rank-split into K folds, and
each fold is summarized by a centroid. A neuron's response to one trigger is
quantized to the index of its nearest centroid, so a trigger sequence of
length T reads out a length-T codeword over {0..K-1}. Codewords are drawn
from a seeded random codebook with a guaranteed minimum pairwise distance so
that decoding tolerates corrupted positions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .serialize import (
    MAGIC_CODEBOOK,
    FormatError,
    PayloadReader,
    PayloadWriter,
    _frozen,
    read_container,
    write_container,
)


class CapacityError(ValueError):
    """The requested code parameters cannot be met."""


@dataclass(frozen=True)
class CentroidSet:
    """K fold centroids in ascending order; a value reads as the index of the
    nearest one, so the folds split at the midpoints between centroids."""

    centroids: np.ndarray  # (K,) float64, strictly ascending

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("centroids must be a non-empty 1-D array")
        if np.any(np.diff(c) <= 0):
            raise ValueError("centroids must be strictly ascending")
        # a read-only copy, as the codewords are: trigger sets derive their
        # alignment targets from it once
        object.__setattr__(self, "centroids", _frozen(c))

    @property
    def k(self) -> int:
        return int(self.centroids.size)

    @property
    def min_gap(self) -> float:
        if self.k < 2:
            return float("inf")
        return float(np.min(np.diff(self.centroids)))

    @property
    def separation_bound(self) -> float:
        """Largest mean intra-fold distance at which probes still separate."""
        return self.min_gap / 10.0


def compute_centroids(outputs: np.ndarray, k: int) -> CentroidSet:
    """Split the pooled, sorted outputs into K rank-equal folds.

    Fold k covers sorted positions [ceil(M*k/K), ceil(M*(k+1)/K)) for M pooled
    values, and its centroid is the fold sum divided by ceil(M/K). When K does
    not divide M the last fold is smaller, so its centroid is pulled slightly
    toward zero relative to the fold mean; the divisor is kept as ceil(M/K)
    deliberately so that the quantity is reproducible from the definition.
    """
    pooled = np.sort(np.asarray(outputs, dtype=np.float64).ravel())
    m = pooled.size
    if k < 1:
        raise ValueError(f"need at least one fold, got k={k}")
    if m < k:
        raise ValueError(f"cannot split {m} pooled outputs into {k} folds")
    edges = [int(np.ceil(m * j / k)) for j in range(k + 1)]
    denom = int(np.ceil(m / k))
    centroids = np.array([pooled[edges[j] : edges[j + 1]].sum() / denom for j in range(k)])
    if np.any(np.diff(centroids) <= 0):
        raise ValueError("pooled outputs are too degenerate to form K distinct folds")
    return CentroidSet(centroids)


def nearest_centroid(values: np.ndarray | float, cs: CentroidSet) -> np.ndarray:
    """Index of the closest centroid as uint8; ties resolve to the lower index."""
    arr = np.asarray(values, dtype=np.float64)
    return np.abs(arr[..., None] - cs.centroids).argmin(axis=-1).astype(np.uint8)


def max_correctable(n: int, t: int, k: int, k_corrupted: int) -> int:
    """Largest t_c with N * sum_{i=1..t_c} C(T,i) * Kc^i <= K^T.

    Exact integer arithmetic; the left side is strictly increasing in t_c so
    the first violation terminates the scan.
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    if k < 2:
        raise ValueError("need at least two code symbols")
    if not 1 <= k_corrupted <= k - 1:
        raise ValueError("k_corrupted counts wrong symbols per position: 1..k-1")
    budget = k**t
    acc = 0
    best = 0
    for i in range(1, t + 1):
        acc += comb(t, i) * k_corrupted**i
        if n * acc <= budget:
            best = i
        else:
            break
    return best


@dataclass(frozen=True)
class Codebook:
    """N distinct codewords of length T over symbols {0..K-1}."""

    codewords: np.ndarray  # (N, T) uint8
    k: int
    d_min: int
    seed: int

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=np.uint8)
        if cw.ndim != 2 or cw.size == 0:
            raise ValueError("codewords must be a non-empty 2-D array")
        if self.k < 2 or self.k > 256:
            raise ValueError("symbol count must be in [2, 256]")
        if np.any(cw >= self.k):
            raise ValueError("codeword symbol out of range")
        if len({w.tobytes() for w in cw}) != cw.shape[0]:
            raise ValueError("codewords must be pairwise distinct")
        object.__setattr__(self, "codewords", _frozen(cw))

    @property
    def n(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def t(self) -> int:
        return int(self.codewords.shape[1])

    @cached_property
    def digest(self) -> str:
        """Hex SHA-256 of the serialized form, which pins trigger sets to
        their book; computed once per codebook:
        every field is frozen (the codewords are a copy no one can write to),
        so the bytes it hashes cannot change."""
        return hashlib.sha256(_codebook_payload(self)).hexdigest()


def min_pairwise_distance(codewords: np.ndarray) -> int:
    """Minimum Hamming distance over all pairs; T by convention for one word."""
    cw = np.asarray(codewords)
    n = cw.shape[0]
    if n < 2:
        return int(cw.shape[1])
    best = cw.shape[1]
    for i in range(n - 1):
        d = int((cw[i + 1 :] != cw[i]).sum(axis=1).min())
        best = min(best, d)
    return best


@lru_cache(maxsize=1)
def _candidate_words(n: int, t: int, k: int, seed: int) -> np.ndarray:
    """The seed's stream of 400 * N candidate words, one draw per word, so
    every probe of `default_codebook`'s search reads the same stream; kept
    for the next call with the same arguments (read-only).

    A draw of uint8 symbols takes them four at a time from fresh 32-bit
    words and drops what its last 32-bit word has left. For a power-of-two
    K, Lemire's bounded method never rejects a draw, so one draw of
    ceil(T / 4) * 4 symbols per word, cut to T, is the per-word stream;
    other K keep the per-word loop."""
    rng = np.random.default_rng(seed)
    if k & (k - 1) == 0:
        drawn = rng.integers(0, k, size=(400 * n, -(-t // 4) * 4), dtype=np.uint8)
        words = np.ascontiguousarray(drawn[:, :t])
    else:
        words = np.stack([
            rng.integers(0, k, size=t, dtype=np.uint8) for _ in range(400 * n)
        ])
    words.flags.writeable = False
    return words


def _field_bits(k: int) -> int:
    """Bits per packed symbol field: ceil(log2 K) rounded up to a power of
    two (1, 2, 4 or 8), so a field's OR-fold shifts stay inside it."""
    return 1 << ((k - 1).bit_length() - 1).bit_length()


@lru_cache(maxsize=1)
def _packed_words(n: int, t: int, k: int, seed: int) -> np.ndarray:
    """`_candidate_words` bit-packed: (400 * N, W) uint64, symbol j of a word
    in field j % F of its uint64 j // F, F = 64 / field bits fields a uint64;
    fields past T stay zero. Kept for the next call (read-only)."""
    words = _candidate_words(n, t, k, seed)
    bits = _field_bits(k)
    fields = 64 // bits
    padded = np.zeros((len(words), -(-t // fields) * fields), dtype=np.uint8)
    padded[:, :t] = words
    packed = np.zeros((len(words), padded.shape[1] // fields), dtype=np.uint64)
    for j in range(fields):
        packed |= padded[:, j::fields].astype(np.uint64) << np.uint64(j * bits)
    packed.flags.writeable = False
    return packed


def generate_codebook(n: int, t: int, k: int, d_min: int, seed: int) -> Codebook:
    """Draw codewords uniformly at random, rejecting any too close to a kept one.

    Raises CapacityError when 400 * N attempts run out before N words are
    found, which is the practical signal that d_min is too ambitious for
    (N, T, K); the remedy is a longer T or a smaller d_min. The candidates are
    tested in draw order against every kept word at once: each accepted word
    lowers the nearest-kept distance of all later candidates in one pass.

    The pass runs on the candidates bit-packed into uint64 fields of a
    power-of-two width (`_packed_words`; one uint64 per word at K = 2 and
    T <= 64): XOR with the kept word, OR-fold each field onto its low bit,
    mask the low bits and count them, which is the number of differing
    symbols.
    """
    if n < 1:
        raise ValueError("need at least one codeword")
    if t < 1:
        raise ValueError("codewords must have positive length")
    if k < 2 or k > 256:
        raise ValueError("symbol count must be in [2, 256]")
    if d_min < 1:
        raise ValueError("minimum distance must be positive")
    if n >= 2 and d_min > t:
        raise CapacityError(
            f"no two length-{t} words can differ in {d_min} positions; "
            f"increase T or decrease d_min"
        )
    if k**t < n:
        raise CapacityError(f"only {k**t} distinct words of length {t} exist, need {n}")
    packed = _packed_words(n, t, k, seed)
    bits = _field_bits(k)
    folds = [np.uint64(s) for s in (1, 2, 4) if s < bits]
    low = np.uint64((2**64 - 1) // (2**bits - 1))  # each field's low bit set
    diff = np.empty_like(packed)
    spill = np.empty_like(packed)
    count = np.empty(packed.shape, dtype=np.uint8)
    kept = [0]  # stream indices of the kept words, in draw order
    # each candidate's distance to its nearest kept word; only candidates
    # after the last kept one are ever read
    nearest = np.full(len(packed), t, dtype=np.int64)
    distance = np.empty_like(nearest)
    while len(kept) < n:
        last = kept[-1]
        rest = nearest[last + 1 :]
        x = np.bitwise_xor(packed[last + 1 :], packed[last], out=diff[last + 1 :])
        for s in folds:
            x |= np.right_shift(x, s, out=spill[last + 1 :])
        x &= low
        c = np.bitwise_count(x, out=count[last + 1 :])
        np.minimum(rest, np.add.reduce(c, axis=1, dtype=np.int64, out=distance[last + 1 :]),
                   out=rest)
        far = np.flatnonzero(rest >= d_min)
        if far.size == 0:
            raise CapacityError(
                f"found only {len(kept)}/{n} codewords at distance >= {d_min} within "
                f"{len(packed)} attempts; increase T or decrease d_min"
            )
        kept.append(last + 1 + int(far[0]))
    cw = _candidate_words(n, t, k, seed)[kept]
    return Codebook(cw, k, min_pairwise_distance(cw), seed)


def default_codebook(n: int, t: int, k: int, k_corrupted: int, seed: int) -> Codebook:
    """Codebook at the capacity-derived target distance, or the best below it.

    The target is 2 * max_correctable + 1. Random search cannot always reach
    it, so a binary search finds the largest distance the generator attains
    within its attempt budget; the search path is deterministic in the seed.
    """
    target = min(2 * max_correctable(n, t, k, k_corrupted) + 1, t)
    lo, hi = 1, max(target, 1)
    best: Codebook | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        try:
            best = generate_codebook(n, t, k, mid, seed)
            lo = mid + 1
        except CapacityError:
            hi = mid - 1
    if best is None:
        raise CapacityError(
            f"no codebook of {n} distinct words over {k} symbols and length {t}; "
            f"increase T"
        )
    return best


def _codebook_payload(cb: Codebook) -> bytes:
    w = PayloadWriter()
    w.u32(cb.n)
    w.u32(cb.t)
    w.u16(cb.k)
    w.u32(cb.d_min)
    w.u64(cb.seed & 0xFFFFFFFFFFFFFFFF)
    w.raw(cb.codewords.tobytes())
    return w.bytes_value()


def save_codebook(cb: Codebook, path) -> None:
    write_container(path, MAGIC_CODEBOOK, _codebook_payload(cb))


def load_codebook(path) -> Codebook:
    r = PayloadReader(read_container(path, MAGIC_CODEBOOK))
    try:
        n = r.u32()
        t = r.u32()
        k = r.u16()
        d_min = r.u32()
        seed = r.u64()
        words = np.frombuffer(r.raw(n * t), dtype=np.uint8).reshape(n, t).copy()
        r.expect_end()
        return Codebook(words, k, d_min, seed)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
