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
from typing import Callable

import numpy as np

ROW_SUM_TOL = 1e-12
LLR_CLIP = 700.0
ALPHABET_CAP = 4096  # largest post-merge output alphabet polarize tracks
MC_BATCH, MC_BATCH_LLRS = 2048, 2 ** 21  # trials and LLRs per decoding pass


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
    z: np.ndarray

    @property
    def n(self) -> int:
        return len(self.z)

    def __post_init__(self):
        if np.min(self.z) < 0.0 or np.max(self.z) > 1.0 + 1e-12:
            raise ValueError("Bhattacharyya values must lie in [0, 1]")


@dataclass(frozen=True)
class LabelColumn:
    """n rows of byte strings, built per slice s as labels[code(s)]."""
    n: int
    code: Callable[[slice], np.ndarray]
    labels: tuple

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.array(self.labels).take(self.code(rows))


@dataclass(frozen=True)
class MonteCarloResult:
    """Block error estimate from uniformly sampled messages."""
    trials: int
    errors: int

    @property
    def block_error_rate(self) -> float:
        return self.errors / self.trials


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
    that rule out input 1), each summed in output order. A ratio past
    float64 overflows to np.inf and pools with those outputs: that only
    degrades the channel, and moves Z by less than 1e-154, since such an
    output has P(y|1) < 2^-1024.
    """
    w0, w1 = w.w[0], w.w[1]
    seen = (w0 != 0.0) | (w1 != 0.0)
    p0, p1 = w0[seen], w1[seen]
    ratio = np.full_like(p0, np.inf)
    with np.errstate(over="ignore"):
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


def polarize(w: BDMC, k: int) -> PolarizationResult:
    """Track Bhattacharyya parameters through k levels of combining.

    Erasure-like channels use the exact closed-form recursion
    z -> (2z - z^2, z^2); general channels track full transition tables,
    pooling exactly-equal likelihood-ratio outputs at every level. A
    post-merge alphabet beyond ``ALPHABET_CAP`` raises.

    The output ordering follows the module convention: entry i applies the
    splits named by the bits of i, most significant first, 0 = bad.
    """
    if k < 1:
        raise ValueError(f"recursion level must be >= 1, got {k}")
    recursion = _polarize_erasure if _erasure_like(w) else _polarize_tables
    return PolarizationResult(recursion(w, k))


def _polarize_erasure(w: BDMC, k: int) -> np.ndarray:
    """Closed-form z vector of an erasure-like channel, clipped to [0, 1],
    in one 2^k buffer: a level's h values in [0, h) move up chunk by chunk,
    [h/2, h) to [h, 2h) first, and the last 2^12 or fewer through a copy."""
    z = np.empty(2 ** k)
    z[0] = bhattacharyya(w)
    for level in range(k):
        lo = 2 ** level
        while lo:   # each chunk is read before a lower one overwrites it
            hi, lo = lo, (lo // 2 if lo > 2 ** 12 else 0)
            src = z[lo:hi] if lo else z[:hi].copy()
            bad, good = z[2 * lo:2 * hi].reshape(-1, 2).T
            np.multiply(src, src, out=good)   # the same IEEE operations in
            np.multiply(2.0, src, out=bad)    # the same order as 2z - z^2
            np.subtract(bad, good, out=bad)   # and z^2 level by level
    return np.clip(z, 0.0, 1.0, out=z)


def _polarize_tables(w: BDMC, k: int) -> np.ndarray:
    """z vector from the merged transition tables of every synthesized
    channel, clipped to [0, 1]."""
    channels = [w]
    for _ in range(k):
        nxt = []
        for ch in channels:
            for split in (combine_bad(ch), combine_good(ch)):
                split = merge_equal_likelihood_outputs(split)
                if split.output_alphabet_size > ALPHABET_CAP:
                    raise ValueError(
                        f"output alphabet {split.output_alphabet_size} exceeds "
                        f"cap {ALPHABET_CAP}")
                nxt.append(split)
        channels = nxt
    return np.clip([bhattacharyya(ch) for ch in channels], 0.0, 1.0)


def _threshold(n: int, beta: float) -> float:
    """Good-set threshold (1/n) 2^(-n^beta); beta must lie in (0, 0.5)."""
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie strictly inside (0, 0.5), got {beta}")
    return (1.0 / n) * 2.0 ** (-(n ** beta))


def select_sets(pr: PolarizationResult, beta: float, rows=slice(None)):
    """Good index mask of the given rows (all by default): z below the
    threshold (1/n) 2^(-n^beta); ties go to bad."""
    return pr.z[rows] < _threshold(pr.n, beta)


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

# exp(-t) rounds to 0.0 for every t >= 745.14; numpy's exp leaves its fast
# path on such lanes, so they are zeroed before exp and their result set to
# log1p(0.0) = 0.0 after it
_EXP_ZERO = 746.0


def _log1p_exp_neg(t: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """log1p(exp(-t)) in place, bit for bit, for every t including +-inf;
    ``mask`` is a bool array of t's shape that this overwrites."""
    np.minimum(t, _EXP_ZERO, out=t)  # +inf -> 746: t * mask stays finite
    np.less(t, _EXP_ZERO, out=mask)
    np.multiply(t, mask, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    return np.multiply(t, mask, out=t)


def _boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact log-domain combination for the unknown-first-input recursion:
    log((1 + e^(a+b)) / (e^a + e^b)), computed stably as
    sign(a) sign(b) min(|a|, |b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|).

    The result array holds the first term and one scratch array takes the
    two log1p terms in turn. The first term is copysign(min, a*b); it can
    differ from the sign product only in the sign of a zero, which adding
    the second term (>= +0.0) erases.
    """
    out = np.abs(a)
    tmp = np.abs(b)
    np.minimum(out, tmp, out=out)
    np.copysign(out, np.multiply(a, b, out=tmp), out=out)
    mask = np.empty(out.shape, dtype=bool)
    np.abs(np.add(a, b, out=tmp), out=tmp)
    np.add(out, _log1p_exp_neg(tmp, mask), out=out)
    np.abs(np.subtract(a, b, out=tmp), out=tmp)
    return np.subtract(out, _log1p_exp_neg(tmp, mask), out=out)


def _clip(lam: np.ndarray) -> np.ndarray:
    """Clip LLRs to +-LLR_CLIP in place."""
    return np.clip(lam, -LLR_CLIP, LLR_CLIP, out=lam)


def _sc_decode_block(lam, info):
    """SC decoding of a (batch, n) array of finite LLRs, with every bit
    outside the ``info`` mask frozen to 0; returns the (batch, n) uint8
    message bits. The input of every node below the root is clipped to
    +-LLR_CLIP.

    A subtree whose positions are all frozen takes no LLR work: its bits
    stay 0 and its codeword is the scalar 0, so its parent computes no
    input for it. This is exact, because SC never reads the LLRs at
    frozen leaves.
    """
    batch, n = lam.shape
    u = np.zeros((batch, n), dtype=np.uint8)
    info_before = [0] + np.cumsum(info).tolist()

    def decode(lam, lo, hi):
        """Bits lo..hi-1, at least one of them not frozen, into u; returns
        their codeword."""
        if hi - lo == 1:
            return np.less(lam, 0.0, out=u[:, lo:hi])  # L >= 1 decides 0
        mid = (lo + hi) // 2
        even, odd = lam[:, 0::2], lam[:, 1::2]
        x_first = x_second = np.uint8(0)
        if info_before[mid] > info_before[lo]:
            x_first = decode(_clip(_boxplus(even, odd)), lo, mid)
        if info_before[hi] > info_before[mid]:
            # odd + even where the first codeword bit is 0 and odd - even
            # where it is 1: even * (1 - 2x) negates exactly
            lam_second = np.multiply(x_first, -2.0, out=np.empty(even.shape))
            np.add(lam_second, 1.0, out=lam_second)
            np.multiply(even, lam_second, out=lam_second)
            np.add(odd, lam_second, out=lam_second)
            x_second = decode(_clip(lam_second), mid, hi)
        x = np.empty((batch, hi - lo), dtype=np.uint8)
        np.bitwise_xor(x_first, x_second, out=x[:, 0::2])
        x[:, 1::2] = x_second
        return x

    if info_before[n]:
        decode(lam, 0, n)
    return u


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
    """High and low 64-bit words of the 128-bit products m * x, from the
    four 32 x 32-bit partial products, summed in place."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo = x & _LOW32
    hi = x >> _SHIFT32
    hl = hi * m_lo
    hi *= m_hi
    cross = x_lo * m_lo
    cross >>= _SHIFT32
    x_lo *= m_hi
    cross += x_lo
    cross += np.bitwise_and(hl, _LOW32, out=x_lo)  # < 2^64
    hl >>= _SHIFT32
    hi += hl
    cross >>= _SHIFT32
    hi += cross
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
        hi1 ^= x1
        hi1 ^= np.uint64(k0)
        hi0 ^= x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
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
    """Doubles in [0, 1) from raw words, as ``Generator.random()``. The
    words are shifted in place, so the result is the only new array."""
    np.right_shift(raw, np.uint64(11), out=raw)
    u = raw.astype(np.float64)
    u *= 2.0 ** -53
    return u


def _output_llr_sampler(w: BDMC):
    """Breakpoints and a flat lookup table that turn a uniform draw u and
    a sent bit x into the clipped LLR log(P(y|0)/P(y|1)) of the output y
    they sample; zero-probability outputs, never sampled, get LLR 0.

    The output is y = min(#{j : cdf[x, j] <= u}, m - 1), as
    ``searchsorted(cdf[x], u, side="right")`` gives it. That count only
    changes where u crosses one of the 2m cdf values of either row, so
    k = searchsorted(breaks, u, side="right") over those values, sorted,
    fixes y for both bits: table[2k + x] = llr[y].
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = w.w[0] / w.w[1]  # past float64 is past LLR_CLIP too
        ratio[np.isnan(ratio)] = 1.0
        llr = np.clip(np.log(ratio), -LLR_CLIP, LLR_CLIP)
    cdf = np.cumsum(w.w, axis=1)
    breaks = np.sort(cdf.ravel())
    below = np.concatenate([[-np.inf], breaks])  # the largest value <= u
    y = np.column_stack([np.searchsorted(row, below, side="right")
                         for row in cdf])
    return breaks, llr[np.minimum(y, w.output_alphabet_size - 1)].ravel()


def _table_index(breaks: np.ndarray, u: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Positions 2k + x in the sampler's table for uniforms u and sent
    bits x."""
    index = np.searchsorted(breaks, u, side="right")
    index <<= 1
    index += x
    return index


def _mc_batch(info: np.ndarray, breaks: np.ndarray, table: np.ndarray,
              seed: int, first: int, count: int):
    """Messages and channel LLRs of trials first..first+count-1.

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
    messages = np.zeros((count, n), dtype=np.uint8)
    messages[:, info] = halves[:, :m]
    u = uniforms(raw[:, half:])
    del raw, halves  # the raw words would set the batch's peak memory
    index = _table_index(breaks, u, _encode_block(messages))
    del u
    return messages, np.take(table, index)


def monte_carlo_block_error(w: BDMC, n: int, info_set, trials: int,
                            seed: int) -> MonteCarloResult:
    """Estimate the average block error rate over uniform messages.

    ``info_set`` is a bool mask of length n or an array of indices; every
    other bit is frozen to 0. Each trial draws from its own (seed,
    trial_index) stream, so estimates are reproducible and independent of
    batching (passes of ``MC_BATCH`` trials and at most ``MC_BATCH_LLRS``
    LLRs) or execution order.
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
    breaks, table = _output_llr_sampler(w)

    errors, batch = 0, max(1, min(MC_BATCH, MC_BATCH_LLRS // n))
    for first in range(0, trials, batch):
        count = min(batch, trials - first)
        messages, lam = _mc_batch(info, breaks, table, seed, first, count)
        decoded = _sc_decode_block(lam, info)
        del lam
        errors += int(np.sum(np.any(decoded[:, info] != messages[:, info],
                                    axis=1)))
    return MonteCarloResult(trials=trials, errors=errors)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def polarization_rows(pr: PolarizationResult, beta: float):
    """Columns (index, z, set-label) for CSV export: a range, z and byte
    strings selected from z a block at a time, so no n-row array is built."""
    return range(pr.n), pr.z, LabelColumn(
        pr.n, lambda rows: select_sets(pr, beta, rows), (b"bad", b"good"))
