"""Reference code for the polar coding layer: the generator matrix that
the butterfly encoder must equal, the bit-reversal permutation and the
recursive even/odd encoder that the in-place one must match once
bit-reversed, one-block encode and decode
wrappers around the batched runtime kernels, the plain recursive SC
decoder and the float-rooted layout decoder that the runtime decoder, in
code space and in floats, must match bit for bit, the whole-batch
sampler that the streamed one must match, the level-by-level erasure
recursion that the in-place one must match bit for bit, the all-levels
table recursion that the one with a closed-form last level must match,
and the symmetric capacity of a binary-input channel."""

import numpy as np

from qrelay.polar_core import (LLR_CLIP, _boxplus, _encode_in_place,
                               _guide_index, _sc_decode_block, bhattacharyya,
                               combine_bad, combine_good,
                               merge_equal_likelihood_outputs, trial_words)

KERNEL = np.array([[1, 1], [0, 1]], dtype=np.uint8)


def generator_matrix(k):
    """Generator matrix of level k (n = 2^k) by the even/odd-interleaved
    kernel recursion.

    Level 1 is the 2x2 kernel. Each further level encodes the two message
    halves with the half-size matrix, routes the first half-code to even
    positions and the second to odd positions (the even/odd permutation),
    and applies a kernel to every adjacent pair, so the first message half
    always passes through a bad split first.
    """
    if k < 1:
        raise ValueError(f"recursion level must be >= 1, got {k}")
    g = KERNEL.copy()
    for _ in range(2, k + 1):
        m = g.shape[0]
        inner = np.kron(np.eye(2, dtype=np.uint8), g)
        perm = np.zeros((2 * m, 2 * m), dtype=np.uint8)
        for i in range(m):
            perm[2 * i, i] = 1          # first half-code to even positions
            perm[2 * i + 1, m + i] = 1  # second half-code to odd positions
        outer = np.kron(np.eye(m, dtype=np.uint8), KERNEL)
        g = ((outer.astype(np.int64) @ perm @ inner) % 2).astype(np.uint8)
    return g


def bit_reversal(n):
    """rev(r) for r = 0..n-1, n = 2^k: r's k binary digits reversed, the
    codeword position that row r of the runtime (n, batch) layout holds."""
    k = n.bit_length() - 1
    return np.array([int(format(r, f"0{k}b")[::-1] or "0", 2)
                     for r in range(n)], dtype=np.intp)


def encode_block_oracle(u):
    """Butterfly encoding of a (batch, n) bit array by the even/odd
    recursion: the first half-code XOR the second at even positions, the
    second half-code at odd positions."""
    n = u.shape[1]
    if n == 1:
        return u
    half = n // 2
    a = encode_block_oracle(u[:, :half])
    b = encode_block_oracle(u[:, half:])
    x = np.empty_like(u)
    x[:, 0::2] = a ^ b
    x[:, 1::2] = b
    return x


def polar_encode(message, k):
    """One length-2^k binary message through ``_encode_in_place``, with
    the codeword returned in position order."""
    u = np.asarray(message)
    n = 2 ** k
    if u.ndim != 1 or len(u) != n:
        raise ValueError(f"message must have length {n}, got shape {u.shape}")
    if np.any((u != 0) & (u != 1)):
        raise ValueError("message must be binary")
    rows = _encode_in_place(u.astype(np.uint8)[:, None])
    return rows[bit_reversal(n), 0]  # the reversal is its own inverse


def sc_decode(likelihoods, good):
    """SC decoding of likelihood ratios P(y|0)/P(y|1), shape (n,) or
    (batch, n), through ``_sc_decode_block`` on its bit-reversed (n, batch)
    layout: np.inf marks certainty of
    bit 0, 0 certainty of bit 1 and 1 an erasure. The positions outside
    the ``good`` mask are frozen to 0."""
    n = len(good)
    lam = np.asarray(likelihoods, dtype=float)
    single = lam.ndim == 1
    if single:
        lam = lam[None, :]
    if lam.ndim != 2 or lam.shape[1] != n:
        raise ValueError(f"need {n} likelihoods per codeword")
    if np.any(np.isnan(lam)) or np.any(lam < 0.0):
        raise ValueError("likelihood ratios must be nonnegative and not NaN")
    with np.errstate(divide="ignore"):
        log_lam = np.clip(np.log(lam), -LLR_CLIP, LLR_CLIP)
    bits = decode_llrs(log_lam.T[bit_reversal(n)], good).T
    return bits[0] if single else bits


def decode_llrs(lam, info):
    """``_sc_decode_block`` on (n, batch) float LLRs in the bit-reversed
    layout, read through the codes arange(lam.size) of the table
    lam.ravel(): a table as large as its lanes is past the switch to
    floats at the root, so the decoder reads the whole float root array."""
    codes = np.arange(lam.size).reshape(lam.shape)
    return _sc_decode_block(codes, np.ravel(lam), info)


def sc_decode_block_oracle(lam, info):
    """SC decoding of (n, batch) finite LLRs in the bit-reversed layout,
    with every bit outside the ``info`` mask frozen to 0, from a whole
    float root array: every node's boxplus and g are new arrays and the
    root's halves are the row blocks lam[:h] and lam[h:]. Returns the
    (n, batch) uint8 message bits."""
    n = lam.shape[0]
    x = np.zeros(lam.shape, dtype=np.uint8)
    info_before = [0] + np.cumsum(info).tolist()

    def decode(lam, lo, hi):
        if hi - lo == 1:
            np.less(lam, 0.0, out=x[lo:hi])
            return
        if hi - lo < n:
            np.clip(lam, -LLR_CLIP, LLR_CLIP, out=lam)
        mid = (lo + hi) // 2
        first, second = lam[:mid - lo], lam[mid - lo:]
        if info_before[mid] > info_before[lo]:
            decode(_boxplus(first, second), lo, mid)
        if info_before[hi] > info_before[mid]:
            lam_second = np.multiply(x[lo:mid], -2.0,
                                     out=np.empty(first.shape))
            np.add(lam_second, 1.0, out=lam_second)
            np.multiply(first, lam_second, out=lam_second)
            np.add(second, lam_second, out=lam_second)
            decode(lam_second, mid, hi)
            if hi - lo < n:
                x[lo:mid] ^= x[mid:hi]

    if info_before[n]:
        decode(lam, 0, n)
    _encode_in_place(x[:n // 2])
    _encode_in_place(x[n // 2:])
    return x


def mc_batch_oracle(info, sampler, seed, first, count):
    """(n, count) messages and sampler codes of trials first..first+count-1
    from one whole-batch (count, ceil(m/2) + n) array of raw words, the
    message bits encoded in one copy of the whole batch."""
    breaks, guide, _ = sampler
    n, m = len(info), int(np.count_nonzero(info))
    half = -(-m // 2)
    raw = trial_words(seed, first, count, half + n)
    halves = raw[:, :half].astype("<u8", copy=False).view("<u4")[:, :m]
    messages = np.zeros((n, count), dtype=np.uint8)
    messages[info] = (halves >> 31).T
    codes = _guide_index(breaks, guide, raw[:, half:],
                         _encode_in_place(messages.copy()), bit_reversal(n))
    return messages, codes


def boxplus_oracle(a, b):
    """Exact log-domain combination for the unknown-first-input recursion:
    log((1 + e^(a+b)) / (e^a + e^b)), computed stably."""
    base = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return (base + np.log1p(np.exp(-np.abs(a + b)))
            - np.log1p(np.exp(-np.abs(a - b))))


def sc_decode_oracle(lam, info):
    """Recursive SC decoding of (batch, n) LLRs, with the bits outside the
    ``info`` mask frozen to 0, that visits every node and concatenates at
    every level; returns (message bits, re-encoded codeword)."""
    batch, n = lam.shape
    if n == 1:
        if not info[0]:
            u = np.zeros(batch, dtype=np.uint8)
        else:
            u = (lam[:, 0] < 0.0).astype(np.uint8)  # L >= 1 decides bit 0
        col = u[:, None]
        return col, col
    half = n // 2
    lam_even = lam[:, 0::2]
    lam_odd = lam[:, 1::2]
    lam_first = np.clip(boxplus_oracle(lam_even, lam_odd), -LLR_CLIP,
                        LLR_CLIP)
    u_first, x_first = sc_decode_oracle(lam_first, info[:half])
    lam_second = lam_odd + np.where(x_first == 0, lam_even, -lam_even)
    lam_second = np.clip(lam_second, -LLR_CLIP, LLR_CLIP)
    u_second, x_second = sc_decode_oracle(lam_second, info[half:])
    x = np.empty((batch, n), dtype=np.uint8)
    x[:, 0::2] = x_first ^ x_second
    x[:, 1::2] = x_second
    return np.concatenate([u_first, u_second], axis=1), x


def polarize_erasure_oracle(w, k):
    """Closed-form z vector of an erasure-like channel, clipped to [0, 1],
    with a new array for every level: 2z - z^2 at even and z^2 at odd
    positions, by the IEEE operations z * z, 2 * z and their difference."""
    z = np.array([bhattacharyya(w)])
    for _ in range(k):
        nxt = np.empty(2 * len(z))
        bad, good = nxt[0::2], nxt[1::2]
        np.multiply(z, z, out=good)
        np.multiply(2.0, z, out=bad)
        np.subtract(bad, good, out=bad)
        z = nxt
    return np.clip(z, 0.0, 1.0, out=z)


def polarize_tables_oracle(w, k):
    """z vector, clipped to [0, 1], from the merged transition tables of
    every synthesized channel, the last level's included, with no cap on
    the output alphabet."""
    channels = [w]
    for _ in range(k):
        channels = [merge_equal_likelihood_outputs(split) for ch in channels
                    for split in (combine_bad(ch), combine_good(ch))]
    return np.clip([bhattacharyya(ch) for ch in channels], 0.0, 1.0)


def symmetric_capacity(w):
    """Mutual information of a BDMC at uniform input, in bits."""
    table = w.w
    p_y = 0.5 * (table[0] + table[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0.0, table * np.log2(table / p_y), 0.0)
    return float(0.5 * terms.sum())
