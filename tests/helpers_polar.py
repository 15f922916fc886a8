"""Reference code for the polar coding layer: the generator matrix that
the butterfly encoder must equal, one-block encode and decode wrappers
around the batched runtime kernels, the plain recursive SC decoder that
the runtime decoder must match bit for bit, the level-by-level erasure
recursion that the in-place one must match bit for bit, and the
symmetric capacity of a binary-input channel."""

import numpy as np

from qrelay.polar_core import (LLR_CLIP, _encode_block, _sc_decode_block,
                               bhattacharyya)

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


def polar_encode(message, k):
    """One length-2^k binary message through ``_encode_block``."""
    u = np.asarray(message)
    n = 2 ** k
    if u.ndim != 1 or len(u) != n:
        raise ValueError(f"message must have length {n}, got shape {u.shape}")
    if np.any((u != 0) & (u != 1)):
        raise ValueError("message must be binary")
    return _encode_block(u.astype(np.uint8)[None, :])[0]


def sc_decode(likelihoods, good):
    """SC decoding of likelihood ratios P(y|0)/P(y|1), shape (n,) or
    (batch, n), through ``_sc_decode_block``: np.inf marks certainty of
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
    bits = _sc_decode_block(log_lam, good)
    return bits[0] if single else bits


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


def symmetric_capacity(w):
    """Mutual information of a BDMC at uniform input, in bits."""
    table = w.w
    p_y = 0.5 * (table[0] + table[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0.0, table * np.log2(table / p_y), 0.0)
    return float(0.5 * terms.sum())
