"""Classical polar coding machinery.

Butterfly encoding with the 2x2 kernel [[1,1],[0,1]] and even/odd
interleaving, channel combining into 'bad' (first input unknown) and 'good'
(first input known) halves, Bhattacharyya parameter tracking through the
recursion, threshold selection of good/bad index sets, successive
cancellation decoding, and Monte Carlo block error estimation.

Index ordering convention used everywhere: the binary expansion of a
synthesized-channel index, read most-significant-bit first, gives the split
sequence from the base channel with bit 0 = bad split and bit 1 = good
split. Equivalently, message positions in the first half of a block pass
through a bad split first, positions in the second half through a good
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12
LLR_CLIP = 700.0


class BDMC:
    """Binary-input discrete memoryless channel as a 2 x m probability table.

    Row x holds P(y|x) over the m output symbols; rows must sum to one
    within 1e-12 and entries must be finite and nonnegative.
    """

    def __init__(self, w):
        table = np.array(w, dtype=float)
        if table.ndim != 2 or table.shape[0] != 2 or table.shape[1] < 1:
            raise ValueError(f"transition table must be 2 x m, got {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ValueError("transition probabilities must be finite")
        if np.any(table < 0.0):
            raise ValueError("negative transition probability")
        sums = table.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1, got {sums}")
        self.w = table

    @property
    def output_alphabet_size(self) -> int:
        return int(self.w.shape[1])

    @classmethod
    def bec(cls, epsilon: float) -> "BDMC":
        """Binary erasure channel with outputs (0, 1, erasure)."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        return cls([[1.0 - epsilon, 0.0, epsilon],
                    [0.0, 1.0 - epsilon, epsilon]])

    @classmethod
    def bsc(cls, p: float) -> "BDMC":
        """Binary symmetric channel with crossover probability p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        return cls([[1.0 - p, p], [p, 1.0 - p]])

    def __repr__(self):
        return f"BDMC(m={self.output_alphabet_size})"


@dataclass(frozen=True)
class PolarizationResult:
    """Bhattacharyya parameters of the n synthesized channels."""
    n: int
    z: np.ndarray

    def __post_init__(self):
        if len(self.z) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(self.z)}")
        if np.any(self.z < 0.0) or np.any(self.z > 1.0 + 1e-12):
            raise ValueError("Bhattacharyya values must lie in [0, 1]")


def _is_mask(a, n: int) -> bool:
    """True when ``a`` is an index set of a length-n block: a bool array."""
    return isinstance(a, np.ndarray) and a.dtype == bool and a.shape == (n,)


@dataclass(frozen=True)
class GoodBadSets:
    """Good/bad bool masks split at the threshold (1/n) 2^(-n^beta)."""
    good: np.ndarray
    bad: np.ndarray
    beta: float
    threshold: float
    n: int

    def __post_init__(self):
        if not (_is_mask(self.good, self.n) and _is_mask(self.bad, self.n)
                and np.array_equal(self.good, ~self.bad)):
            raise ValueError("good and bad must partition the index range")


@dataclass(frozen=True)
class MonteCarloResult:
    """Block error estimate from uniformly sampled messages."""
    trials: int
    errors: int
    block_error_rate: float


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_block(u: np.ndarray) -> np.ndarray:
    """Butterfly encoding of a (batch, n) bit array."""
    n = u.shape[1]
    if n == 1:
        return u
    half = n // 2
    a = _encode_block(u[:, :half])
    b = _encode_block(u[:, half:])
    x = np.empty_like(u)
    x[:, 0::2] = a ^ b
    x[:, 1::2] = b
    return x


# ---------------------------------------------------------------------------
# Channel combining and parameters
# ---------------------------------------------------------------------------

def combine_bad(w: BDMC) -> BDMC:
    """One-level 'bad' channel: the first input seen through a pair of uses
    with the second input unknown and uniform. Output alphabet (y1, y2)."""
    w0, w1 = w.w[0], w.w[1]
    r0 = 0.5 * (np.outer(w0, w0) + np.outer(w1, w1)).ravel()
    r1 = 0.5 * (np.outer(w1, w0) + np.outer(w0, w1)).ravel()
    table = np.vstack([r0, r1])
    table /= table.sum(axis=1, keepdims=True)
    return BDMC(table)


def combine_good(w: BDMC) -> BDMC:
    """One-level 'good' channel: the second input with the first revealed.
    Output alphabet (u1, y1, y2)."""
    w0, w1 = w.w[0], w.w[1]
    r0 = 0.5 * np.concatenate([np.outer(w0, w0).ravel(),
                               np.outer(w1, w0).ravel()])
    r1 = 0.5 * np.concatenate([np.outer(w1, w1).ravel(),
                               np.outer(w0, w1).ravel()])
    table = np.vstack([r0, r1])
    table /= table.sum(axis=1, keepdims=True)
    return BDMC(table)


def bhattacharyya(w: BDMC) -> float:
    """Z = sum_y sqrt(P(y|0) P(y|1)); 0 for noiseless, 1 for useless."""
    return float(np.sum(np.sqrt(w.w[0] * w.w[1])))


def merge_equal_likelihood_outputs(w: BDMC) -> BDMC:
    """Lossless alphabet reduction: pool output symbols with exactly equal
    likelihood ratios and drop zero-probability symbols.

    Pooled columns appear in increasing ratio order (np.inf for outputs
    that rule out input 1), each summed in output order.
    """
    w0, w1 = w.w[0], w.w[1]
    seen = (w0 != 0.0) | (w1 != 0.0)
    p0, p1 = w0[seen], w1[seen]
    ratio = np.full_like(p0, np.inf)
    np.divide(p0, p1, out=ratio, where=p1 != 0.0)
    keys, group = np.unique(ratio, return_inverse=True)
    table = np.vstack([np.bincount(group, weights=p0, minlength=len(keys)),
                       np.bincount(group, weights=p1, minlength=len(keys))])
    table /= table.sum(axis=1, keepdims=True)
    return BDMC(table)


def _erasure_like(w: BDMC) -> bool:
    """True when every output either reveals the input or is a pure erasure."""
    w0, w1 = w.w[0], w.w[1]
    return bool(np.all((w0 == 0.0) | (w1 == 0.0) | (w0 == w1)))


def polarize(w: BDMC, k: int, alphabet_cap: int = 4096,
             method: str = "auto") -> PolarizationResult:
    """Track Bhattacharyya parameters through k levels of combining.

    Erasure-like channels use the exact closed-form recursion
    z -> (2z - z^2, z^2); general channels track full transition tables,
    pooling exactly-equal likelihood-ratio outputs at every level. A
    post-merge alphabet beyond ``alphabet_cap`` raises.

    The output ordering follows the module convention: entry i applies the
    splits named by the bits of i, most significant first, 0 = bad.
    """
    if k < 1:
        raise ValueError(f"recursion level must be >= 1, got {k}")
    if method not in ("auto", "bec", "tables"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "bec" if _erasure_like(w) else "tables"

    if method == "bec":
        if not _erasure_like(w):
            raise ValueError("closed-form recursion requires an erasure-like channel")
        z = np.array([bhattacharyya(w)])
        for _ in range(k):
            # each level written in place, by the same IEEE operations in
            # the same order as 2z - z^2 and z^2
            nxt = np.empty(2 * len(z))
            bad, good = nxt[0::2], nxt[1::2]
            np.multiply(z, z, out=good)
            np.multiply(2.0, z, out=bad)
            np.subtract(bad, good, out=bad)
            z = nxt
        return PolarizationResult(n=2 ** k, z=np.clip(z, 0.0, 1.0, out=z))

    channels = [w]
    for _ in range(k):
        nxt = []
        for ch in channels:
            for split in (combine_bad(ch), combine_good(ch)):
                split = merge_equal_likelihood_outputs(split)
                if split.output_alphabet_size > alphabet_cap:
                    raise ValueError(
                        f"output alphabet {split.output_alphabet_size} exceeds "
                        f"cap {alphabet_cap}")
                nxt.append(split)
        channels = nxt
    z = np.array([bhattacharyya(ch) for ch in channels])
    return PolarizationResult(n=2 ** k, z=np.clip(z, 0.0, 1.0))


def _threshold(n: int, beta: float) -> float:
    """Good-set threshold (1/n) 2^(-n^beta); beta must lie in (0, 0.5)."""
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie strictly inside (0, 0.5), got {beta}")
    return (1.0 / n) * 2.0 ** (-(n ** beta))


def select_sets(pr: PolarizationResult, beta: float) -> GoodBadSets:
    """Split indices at the threshold (1/n) 2^(-n^beta); ties go to bad."""
    threshold = _threshold(pr.n, beta)
    good = pr.z < threshold
    return GoodBadSets(good, ~good, beta, threshold, pr.n)


def error_bound(n: int, beta: float) -> float:
    """Block error bound n * 2^(-n^beta)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return float(n) * 2.0 ** (-(float(n) ** beta))


# ---------------------------------------------------------------------------
# Successive cancellation decoding
# ---------------------------------------------------------------------------

def _boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact log-domain combination for the unknown-first-input recursion:
    log((1 + e^(a+b)) / (e^a + e^b)), computed stably."""
    base = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return base + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def _sc_decode_block(lam, frozen_mask, frozen_values):
    """Recursive SC decoding; returns (message bits, re-encoded codeword)."""
    batch, n = lam.shape
    if n == 1:
        if frozen_mask[0]:
            u = np.full(batch, frozen_values[0], dtype=np.uint8)
        else:
            u = (lam[:, 0] < 0.0).astype(np.uint8)  # L >= 1 decides bit 0
        col = u[:, None]
        return col, col
    half = n // 2
    lam_even = lam[:, 0::2]
    lam_odd = lam[:, 1::2]
    lam_first = np.clip(_boxplus(lam_even, lam_odd), -LLR_CLIP, LLR_CLIP)
    u_first, x_first = _sc_decode_block(lam_first, frozen_mask[:half],
                                        frozen_values[:half])
    lam_second = lam_odd + np.where(x_first == 0, lam_even, -lam_even)
    lam_second = np.clip(lam_second, -LLR_CLIP, LLR_CLIP)
    u_second, x_second = _sc_decode_block(lam_second, frozen_mask[half:],
                                          frozen_values[half:])
    x = np.empty((batch, n), dtype=np.uint8)
    x[:, 0::2] = x_first ^ x_second
    x[:, 1::2] = x_second
    return np.concatenate([u_first, u_second], axis=1), x


def _resolve_frozen(n: int, frozen_values) -> np.ndarray:
    """The frozen bits of a length-n block: all zero by default, else the
    low bit of each of the n given values."""
    if frozen_values is None:
        return np.zeros(n, dtype=np.uint8)
    arr = np.asarray(frozen_values)
    if arr.shape != (n,):
        raise ValueError(f"frozen values must cover all {n} positions")
    return arr.astype(np.uint8) & 1


# ---------------------------------------------------------------------------
# Monte Carlo block error estimation
# ---------------------------------------------------------------------------

def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial: a Philox generator
    keyed by the run seed, advanced to a trial-specific counter block.

    This defines the stream contract; ``trial_words`` evaluates the same
    raw words for many trials at once.
    """
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(int(trial_index) << 64)
    return np.random.Generator(bg)


# Philox4x64-10 as in numpy's Philox bit generator (Salmon et al., SC'11)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_PHILOX_SLICE = 2 ** 14  # counter blocks evaluated per numpy pass
_U64 = 2 ** 64
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray):
    """High and low 64-bit words of the 128-bit products m * x."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    ll = x_lo * m_lo
    hl = x_hi * m_lo
    cross = (ll >> _SHIFT32) + (hl & _LOW32) + x_lo * m_hi  # < 2^64
    hi = x_hi * m_hi + (hl >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, x * m


def _philox_blocks(key: int, c0: np.ndarray, c1: np.ndarray):
    """The four output words of Philox4x64-10 at counters (c0, c1, 0, 0)."""
    x0, x1 = c0, c1
    x2 = x3 = np.zeros_like(c0)
    k0, k1 = int(key), 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % _U64
            k1 = (k1 + _PHILOX_W[1]) % _U64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = (hi1 ^ x1 ^ np.uint64(k0), lo1,
                          hi0 ^ x3 ^ np.uint64(k1), lo0)
    return x0, x1, x2, x3


def trial_words(seed: int, first: int, count: int, words: int) -> np.ndarray:
    """Raw outputs 0..words-1 of ``trial_rng(seed, t)`` for the trials
    t = first, ..., first + count - 1, as a (count, words) uint64 array.

    Stream t is keyed by (seed, 0); ``advance(t << 64)`` puts t in counter
    word 1, and each refill of four outputs first increments word 0, so
    outputs 4(b-1)..4b-1 come from counter (b, t, 0, 0), b = 1, 2, ....
    Counters are evaluated in bounded slices.
    """
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if first < 0 or count < 0 or first + count > _U64:
        raise ValueError(f"trials [{first}, {first + count}) out of range")
    blocks = -(-words // 4)
    out = np.empty((count * blocks, 4), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for start in range(0, count * blocks, _PHILOX_SLICE):
            flat = np.arange(start, min(start + _PHILOX_SLICE, count * blocks),
                             dtype=np.uint64)
            c0 = flat % np.uint64(blocks) + np.uint64(1)
            c1 = flat // np.uint64(blocks) + np.uint64(first)
            for j, word in enumerate(_philox_blocks(seed, c0, c1)):
                out[start:start + len(flat), j] = word
    return out.reshape(count, 4 * blocks)[:, :words]


def uniforms(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words, as ``Generator.random()``."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def _mc_batch(w: BDMC, info: np.ndarray, frozen: np.ndarray,
              ratio: np.ndarray, seed: int, first: int, count: int):
    """Messages and channel likelihood ratios of trials first..first+count-1.

    Each trial draws its message bits as ``Generator.integers(0, 2, m)``
    does on Philox (the top bit of each 32-bit half, low half first) and
    then n uniforms for the channel outputs, from its own stream.
    """
    n = len(info)
    m = int(np.count_nonzero(info))
    half = -(-m // 2)
    raw = trial_words(seed, first, count, half + n)
    halves = np.empty((count, 2 * half), dtype=np.uint8)
    halves[:, 0::2] = (raw[:, :half] >> np.uint64(31)) & np.uint64(1)
    halves[:, 1::2] = raw[:, :half] >> np.uint64(63)
    messages = np.tile(frozen, (count, 1))
    messages[:, info] = halves[:, :m]
    u = uniforms(raw[:, half:])
    del raw, halves  # the raw words would set the batch's peak memory
    x = _encode_block(messages)
    cdf = np.cumsum(w.w, axis=1)
    y = np.empty((count, n), dtype=np.int64)
    for bit in (0, 1):
        sent = x == bit
        y[sent] = np.searchsorted(cdf[bit], u[sent], side="right")
    np.minimum(y, w.output_alphabet_size - 1, out=y)
    return messages, ratio[y]


def monte_carlo_block_error(w: BDMC, n: int, info_set, trials: int, seed: int,
                            frozen_values=None,
                            batch_size: int = 2048) -> MonteCarloResult:
    """Estimate the average block error rate over uniform messages.

    ``info_set`` is a bool mask of length n or an array of indices. Each
    trial draws from its own (seed, trial_index) stream, so estimates are
    reproducible and independent of batching or execution order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    k = int(math.log2(n))
    if 2 ** k != n:
        raise ValueError(f"block length must be a power of 2, got {n}")
    sel = np.asarray(info_set)
    if sel.dtype != bool and np.any((sel < 0) | (sel >= n)):
        raise ValueError("info set indices out of range")
    info = np.zeros(n, dtype=bool)
    info[sel] = True
    frozen = _resolve_frozen(n, frozen_values)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = w.w[0] / w.w[1]
    ratio[np.isnan(ratio)] = 1.0  # zero-probability outputs, never sampled

    errors = 0
    for first in range(0, trials, batch_size):
        count = min(batch_size, trials - first)
        messages, lam = _mc_batch(w, info, frozen, ratio, seed, first, count)
        log_lam = np.clip(np.log(lam, where=lam > 0,
                                 out=np.full_like(lam, -np.inf)),
                          -LLR_CLIP, LLR_CLIP)
        del lam
        decoded, _ = _sc_decode_block(log_lam, ~info, frozen)
        errors += int(np.sum(np.any(decoded[:, info] != messages[:, info],
                                    axis=1)))
    return MonteCarloResult(trials=trials, errors=errors,
                            block_error_rate=errors / trials)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def polarization_rows(pr: PolarizationResult, sets: GoodBadSets):
    """Columns (index, z, set-label) for CSV export: the index as a range
    and the labels as byte strings, so no n-row index or str array is
    built."""
    if sets.n != pr.n:
        raise ValueError("sets and polarization result disagree on n")
    return range(pr.n), pr.z, np.where(sets.good, b"good", b"bad")
