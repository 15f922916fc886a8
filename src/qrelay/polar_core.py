"""Classical polar coding machinery.

Butterfly encoding in place with bit-reversed codeword rows, channel
combining into 'bad' (first input unknown) and 'good'
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

from dataclasses import dataclass
from typing import Callable

import numpy as np

ROW_SUM_TOL = 1e-12
LLR_CLIP = 700.0
ALPHABET_CAP = 4096  # largest post-merge output alphabet polarize tracks
_PAIR_BLOCK = 2 ** 16  # output pairs per block of the last level's sum
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
    pooling exactly-equal likelihood-ratio outputs, up to the last level,
    which is closed form. A post-merge alphabet beyond ``ALPHABET_CAP``
    raises.

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
    """z vector, clipped to [0, 1], from the merged transition tables of
    levels 1..k-1. Each level-(k-1) table (w0, w1) gives Z(W+) = Z(W)^2
    and Z(W-) = 1/2 sum over output pairs (a, b) of sqrt((w0a w0b + w1a w1b)
    (w1a w0b + w0a w1b)), summed in blocks of at most _PAIR_BLOCK pairs."""
    channels = [w]
    for _ in range(k - 1):
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
    z = np.zeros(2 ** k)
    for i, ch in enumerate(channels):
        (w0, w1), rows = ch.w, max(1, _PAIR_BLOCK // ch.output_alphabet_size)
        for lo in range(0, len(w0), rows):
            a0, a1 = w0[lo:lo + rows, None], w1[lo:lo + rows, None]
            z[2 * i] += np.sum(np.sqrt((a0 * w0 + a1 * w1)
                                       * (a1 * w0 + a0 * w1)))
        z[2 * i + 1] = bhattacharyya(ch) ** 2
    z[0::2] *= 0.5
    return np.clip(z, 0.0, 1.0, out=z)


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


# min(|a|, |b|) from which boxplus's smaller log term drops below half an
# ulp of the result, and the most lanes it gathers to evaluate both terms
_ONE_TERM = 20.0
_GATHER = 2 ** 11


def _log1p_exp_neg(t: np.ndarray, mask: np.ndarray,
                   keep=None) -> np.ndarray:
    """log1p(exp(-t)) in place, bit for bit, for every t including +-inf;
    ``mask`` is a bool array of t's shape that this overwrites. Lanes
    where ``keep`` (if given) is zero read +0.0 instead."""
    np.minimum(t, _EXP_ZERO, out=t)  # +inf -> 746: t * mask stays finite
    np.less(t, _EXP_ZERO, out=mask)
    if keep is not None:
        np.logical_and(mask, keep, out=mask)
    np.multiply(t, mask, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    return np.multiply(t, mask, out=t)


def _add_log_terms(a, b, out, tmp, mask):
    """out + log1p(e^-|a+b|) - log1p(e^-|a-b|) into ``out``, in this
    order; ``tmp`` and ``mask`` are float and bool scratch."""
    np.abs(np.add(a, b, out=tmp), out=tmp)
    np.add(out, _log1p_exp_neg(tmp, mask), out=out)
    np.abs(np.subtract(a, b, out=tmp), out=tmp)
    return np.subtract(out, _log1p_exp_neg(tmp, mask), out=out)


def _boxplus(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Exact log-domain combination for the unknown-first-input recursion:
    log((1 + e^(a+b)) / (e^a + e^b)), computed stably as
    (c + log1p(e^-|a+b|)) - log1p(e^-|a-b|) with c = copysign(m, a*b),
    m = min(|a|, |b|) and M = max(|a|, |b|); c differs from the sign
    product only in the sign of a zero, which the terms (>= +0.0) erase.

    One of |a+b| and |a-b| is d = |a - copysign(b, a)| = fl(M - m), the
    other fl(M + m). Write L(t) = log1p(e^-t). Lanes of three kinds give
    the formula's bits with fewer terms:
    - m >= 20: L(fl(M + m)) <= e^-40 (4.3e-18) is below half an ulp of
      m (same signs) and of -m + L(d) (opposite signs, magnitude at
      least 19.3), so the result is c - copysign(L(d), c), which is
      copysign(m - L(d), a*b);
    - m = 0: both terms are L(M) and the formula gives +0.0; with the
      lane's L(d) masked to +0.0, copysign(m - L(d), a*b) is +-0.0 and
      adding +0.0 gives +0.0;
    - 0 < m < 20: both terms, evaluated on these lanes only, gathered
      by one index array when at most 2^11 of them; with more, the whole
      array takes both terms.
    The result array (``out`` if given) and one scratch array of a's
    shape hold the floats, plus one bool mask.
    """
    out = np.abs(a, out=out)
    tmp = np.abs(b)
    np.minimum(out, tmp, out=out)
    mask = np.less(out, _ONE_TERM)
    np.logical_and(mask, out, out=mask)  # 0 < m < 20: both terms count
    both = np.count_nonzero(mask)
    if both > _GATHER:
        np.copysign(out, np.multiply(a, b, out=tmp), out=out)
        return _add_log_terms(a, b, out, tmp, mask)
    lanes = np.flatnonzero(mask)
    m = np.take(out, lanes)
    np.subtract(a, np.copysign(b, a, out=tmp), out=tmp)
    _log1p_exp_neg(np.abs(tmp, out=tmp), mask, keep=out)
    np.subtract(out, tmp, out=out)
    np.copysign(out, np.multiply(a, b, out=tmp), out=out)
    np.add(out, 0.0, out=out)  # -0.0 to +0.0 where m = 0
    if both:
        a, b = np.take(a, lanes), np.take(b, lanes)
        np.put(out, lanes, _add_log_terms(
            a, b, np.copysign(m, a * b, out=m), np.empty(both),
            np.empty(both, dtype=bool)))
    return out


def _encode_in_place(x: np.ndarray) -> np.ndarray:
    """Encode C-contiguous (n, batch) message bits in place by the F^(x)k
    butterflies; row r then holds codeword position rev(r), as the
    generator matrix is B_N F^(x)k (Arikan 2009, section VII)."""
    n, s = x.shape[0], 1
    while s < n:
        v = x.reshape(n // (2 * s), 2, s, -1)
        v[:, 0] ^= v[:, 1]
        s *= 2
    return x


def _signed(lam: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """lam where the codeword bit is 0 and -lam where it is 1, as a new
    array: lam * (1 - 2 bits) negates exactly."""
    out = np.multiply(bits, -2.0)
    np.add(out, 1.0, out=out)
    return np.multiply(lam, out, out=out)


def _code_table(values: np.ndarray):
    """The distinct values of the child LLRs ``values``, clipped to
    +-LLR_CLIP in place and told apart by their bits (so -0.0 and +0.0
    stay apart), and each entry's code in the smallest unsigned type."""
    np.clip(values, -LLR_CLIP, LLR_CLIP, out=values)
    bits, codes = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64), codes.astype(np.min_scalar_type(bits.size))


def _sc_decode_block(codes, table, info):
    """SC decoding of the (n, batch) channel LLRs table[codes], unsigned
    codes with row r at codeword position rev(r), with every bit outside
    the ``info`` mask frozen to 0; returns the (n, batch) uint8 message
    bits.

    Near the root a node holds its LLRs as codes into a table of their
    values, for as long as 8 |T|^2 + 2^12 is at most the lanes of one of
    its halves. The f child's table is the boxplus of every pair
    (T[i], T[j]) and the g child's the g of every (T[i], T[j], u): each
    entry is the lane's LLR bit for bit, as the same kernel makes it. A
    lane's pair code i |T| + j, doubled plus u for g, indexes the
    child's codes. Past the switch a node reads table[codes] as floats.
    A float node's halves are the row blocks lam[:h] and lam[h:] of its
    input, which it clips to +-LLR_CLIP below the root (it reads only
    their sign), and g overwrites lam[h:]. Rows lo..hi-1 of x take the
    codeword of bits lo..hi-1; the butterflies, their own inverse, turn
    it back into bits. An all-frozen subtree takes no LLR work: SC never
    reads its LLRs."""
    n = codes.shape[0]
    x = np.zeros(codes.shape, dtype=np.uint8)
    info_before = [0] + np.cumsum(info).tolist()

    def decode(lam, lo, hi):
        """The codeword of bits lo..hi-1, not all frozen, into x."""
        if hi - lo == 1:
            np.less(lam, 0.0, out=x[lo:hi])  # L >= 1 decides 0
            return
        if hi - lo < n:
            np.clip(lam, -LLR_CLIP, LLR_CLIP, out=lam)
        mid = (lo + hi) // 2
        first, second = lam[:mid - lo], lam[mid - lo:]
        if info_before[mid] > info_before[lo]:
            decode(_boxplus(first, second), lo, mid)
        if info_before[hi] > info_before[mid]:
            np.add(second, _signed(first, x[lo:mid]), out=second)
            decode(second, mid, hi)
            x[lo:mid] ^= x[mid:hi]

    def decode_codes(codes, table, lo, hi):
        """``decode`` of the LLRs table[codes]."""
        t = table.size
        if hi - lo == 1 or 8 * t * t + 2 ** 12 > codes.size // 2:
            return decode(table[codes], lo, hi)
        mid = (lo + hi) // 2
        first, second = np.repeat(table, t), np.tile(table, t)  # T[i], T[j]
        pairs = np.multiply(codes[:mid - lo], t,
                            dtype=np.min_scalar_type(2 * t * t))
        pairs += codes[mid - lo:]
        if info_before[mid] > info_before[lo]:
            f, f_codes = _code_table(_boxplus(first, second))
            decode_codes(f_codes.take(pairs), f, lo, mid)
        if info_before[hi] > info_before[mid]:
            g, g_codes = _code_table(np.add(np.repeat(second, 2), _signed(
                np.repeat(first, 2), np.tile([0, 1], t * t))))
            np.left_shift(pairs, 1, out=pairs)
            decode_codes(g_codes.take(np.add(pairs, x[lo:mid], out=pairs)),
                         g, mid, hi)
            x[lo:mid] ^= x[mid:hi]

    if info_before[n]:
        decode_codes(codes, table, 0, n)
    del decode, decode_codes  # a cycle: it would hold x until a gc pass
    return _encode_in_place(x)


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
_PHILOX_SLICE = 2 ** 14  # counter blocks per numpy pass, whole trials each
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
    """The four output words of Philox4x64-10 at counters (c0, c1, 0, 0),
    for c0 and c1 that broadcast together. A word keeps the shape of what
    it depends on, so for a row of block counters c0 against a column of
    trials c1 the products of the first two rounds work on the row or
    the column alone."""
    x0, x1 = c0, c1
    x2 = x3 = np.zeros(1, dtype=np.uint64)
    k0, k1 = int(key), 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % _U64
            k1 = (k1 + _PHILOX_W[1]) % _U64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 = hi1 ^ x1  # not in place: early words have smaller shapes
        hi1 ^= np.uint64(k0)
        hi0 = hi0 ^ x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return x0, x1, x2, x3


def _trial_slices(seed: int, first: int, count: int, blocks: int):
    """(start, stop) ranges of the trials first, ..., first + count - 1 for
    ``_philox_trials`` passes of ``blocks`` counter blocks a trial: the
    ceil(count * blocks / ``_PHILOX_SLICE``) passes that the counters
    need, each taking an equal share of the trials, give or take one."""
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if first < 0 or count < 0 or first + count > _U64:
        raise ValueError(f"trials [{first}, {first + count}) out of range")
    passes = -(-count * blocks // _PHILOX_SLICE)
    return [(count * p // passes, count * (p + 1) // passes)
            for p in range(passes)]


def _philox_trials(seed: int, first: int, out: np.ndarray) -> np.ndarray:
    """Fill the (trials, blocks, 4) uint64 ``out`` with outputs
    0..4 blocks - 1 of ``trial_rng(seed, t)`` for t = first, first + 1,
    ..., in one numpy pass; returns them as (trials, 4 blocks) rows.

    Stream t is keyed by (seed, 0); ``advance(t << 64)`` puts t in counter
    word 1, and each refill of four outputs first increments word 0, so
    outputs 4(b-1)..4b-1 come from counter (b, t, 0, 0), b = 1, 2, ....
    """
    trials, blocks = out.shape[:2]
    c1 = np.arange(trials, dtype=np.uint64)[:, None]
    c1 += np.uint64(first)
    with np.errstate(over="ignore"):
        outputs = _philox_blocks(
            seed, np.arange(1, blocks + 1, dtype=np.uint64), c1)
    for j, word in enumerate(outputs):
        out[:, :, j] = word
    return out.reshape(trials, 4 * blocks)


def trial_words(seed: int, first: int, count: int, words: int) -> np.ndarray:
    """Raw outputs 0..words-1 of ``trial_rng(seed, t)`` for the trials
    t = first, ..., first + count - 1, as a (count, words) uint64 array,
    evaluated in the bounded passes of ``_trial_slices``."""
    blocks = -(-words // 4)
    out = np.empty((count, blocks, 4), dtype=np.uint64)
    for start, stop in _trial_slices(seed, first, count, blocks):
        _philox_trials(seed, first + start, out[start:stop])
    return out.reshape(count, 4 * blocks)[:, :words]


def uniforms(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words, as ``Generator.random()``. The
    words are shifted in place, so the result is the only new array."""
    np.right_shift(raw, np.uint64(11), out=raw)
    u = raw.astype(np.float64)
    u *= 2.0 ** -53
    return u


def _output_llr_sampler(w: BDMC):
    """Breakpoints, guide table and flat lookup table that turn a raw word
    and a sent bit x into the clipped LLR log(P(y|0)/P(y|1)) of the output
    y they sample; zero-probability outputs, never sampled, get LLR 0. The
    output is y = min(#{j : cdf[x, j] <= u}, m - 1) for the word's
    uniform u, as ``searchsorted(cdf[x], u, side="right")`` gives it. That
    count only changes where u crosses one of the 2m cdf values of either
    row, so k = searchsorted(breaks, u, side="right") over those values,
    sorted, fixes y for both bits: table[2k + x] = llr[y]. The guide table
    (Chen and Asau 1974) holds 2k at the start of each bucket
    [b, b + 1) 2^-16 of u, and an odd value where a breakpoint splits it.
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
    table = llr[np.minimum(y, w.output_alphabet_size - 1)].ravel()
    start = np.arange(2 ** 16) * 2.0 ** -16
    k = np.searchsorted(breaks, start, side="right")
    split = np.searchsorted(breaks, start + 2.0 ** -16) > k
    guide = (2 * k + split).astype(np.min_scalar_type(len(table)))
    return breaks, guide, table


def _guide_index(breaks: np.ndarray, guide: np.ndarray, raw: np.ndarray,
                 x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions 2k + x in the sampler's table for the (n, batch) sent
    bits x, row r at codeword position rows[r] = rev(r), and the
    (batch, n) raw words of those positions, whose last axis is
    contiguous. Lanes outside split buckets read only the top 16 bits,
    floor(u 2^16): the uint16 at offset 3 of a little-endian word."""
    top = raw.astype("<u8", copy=False).view("<u2")[:, 3::4]
    index = guide[top].T[rows]
    lanes = np.flatnonzero((index & 1).astype(bool))
    r, c = np.divmod(lanes, index.shape[1])
    exact = np.searchsorted(breaks, uniforms(raw[c, rows[r]]), side="right")
    index += x
    index.flat[lanes] = 2 * exact + x.flat[lanes]
    return index


def _mc_batch(info: np.ndarray, sampler, seed: int, first: int, count: int):
    """(n, count) uint8 messages and sampler codes 2k + x, row r at
    codeword position rev(r), of trials first..first+count-1; the LLRs
    are table[codes]. Each trial draws its message bits as
    ``Generator.integers(0, 2, m)`` does on Philox (the top bit of each
    32-bit half, low half first), then n raw words for the outputs. Both
    are built one ``_trial_slices`` slice of whole trials at a time, so
    no raw word outlives its slice; each slice's messages are encoded in
    a copy of their own."""
    breaks, guide, _ = sampler
    n, m = len(info), int(np.count_nonzero(info))
    half = -(-m // 2)
    blocks = -(-(half + n) // 4)
    slices = _trial_slices(seed, first, count, blocks)
    buf = np.empty((-(-count // len(slices)), blocks, 4), dtype=np.uint64)
    # rev(r): the reversed axes of the (2,) * k index array
    rows = np.arange(n).reshape((2,) * (n.bit_length() - 1)).T.ravel()
    messages = np.zeros((n, count), dtype=np.uint8)
    codes = np.empty((n, count), dtype=guide.dtype)
    for start, stop in slices:
        raw = _philox_trials(seed, first + start, buf[:stop - start])
        cols = slice(start, stop)
        halves = raw[:, :half].astype("<u8", copy=False).view("<u4")[:, :m]
        messages[info, cols] = (halves >> 31).T
        x = _encode_in_place(messages[:, cols].copy())
        codes[:, cols] = _guide_index(breaks, guide, raw[:, half:half + n],
                                      x, rows)
    return messages, codes


def monte_carlo_block_error(w: BDMC, n: int, info_set, trials: int,
                            seed: int) -> MonteCarloResult:
    """Estimate the average block error rate over uniform messages.

    ``info_set`` is a bool mask of length n or an array of indices; every
    other bit is frozen to 0. Each trial draws from its own (seed,
    trial_index) stream, so estimates are reproducible and independent of
    batching (passes of ``MC_BATCH`` trials and at most ``MC_BATCH_LLRS``
    LLRs) or execution order. A pass holds its trials' messages, sampler
    codes and decoded bits as (n, batch) uint8 arrays; the decoder holds
    small unsigned codes near the root and float LLRs below its switch
    (at most 2n a trial), and raw words exist one slice at a time.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 1 or n & (n - 1):
        raise ValueError(f"block length must be a power of 2, got {n}")
    sel = np.asarray(info_set)
    if sel.dtype == bool and sel.shape != (n,):
        raise ValueError(f"info mask has shape {sel.shape}, block length {n}")
    if sel.dtype != bool and np.any((sel < 0) | (sel >= n)):
        raise ValueError("info set indices out of range")
    info = np.zeros(n, dtype=bool)
    info[sel] = True
    sampler = _output_llr_sampler(w)

    errors, batch = 0, max(1, min(MC_BATCH, MC_BATCH_LLRS // n))
    for first in range(0, trials, batch):
        count = min(batch, trials - first)
        messages, codes = _mc_batch(info, sampler, seed, first, count)
        decoded = _sc_decode_block(codes, sampler[-1], info)
        del codes
        errors += int(np.count_nonzero(np.any(
            decoded[info] != messages[info], axis=0)))
    return MonteCarloResult(trials=trials, errors=errors)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def polarization_rows(pr: PolarizationResult, beta: float):
    """Columns (index, z, set-label) for CSV export: a range, z and byte
    strings selected from z a block at a time, so no n-row array is built."""
    return range(pr.n), pr.z, LabelColumn(
        pr.n, lambda rows: select_sets(pr, beta, rows), (b"bad", b"good"))
