"""Tests for encoding, combining, polarization, and SC decoding."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qrelay.polar_core
from helpers_polar import (bit_reversal, boxplus_oracle, decode_llrs,
                           encode_block_oracle, generator_matrix,
                           mc_batch_oracle, polar_encode,
                           polarize_erasure_oracle, polarize_tables_oracle,
                           sc_decode,
                           sc_decode_block_oracle, sc_decode_oracle,
                           symmetric_capacity)
from helpers_quantum import index_mask, random_bdmc
from helpers_rng import merge_oracle, monte_carlo_oracle, table_index_oracle
from qrelay.polar_core import (BDMC, LLR_CLIP, ErasureWalk, PolarizationResult,
                               _boxplus, _encode_in_place, _guide_index,
                               _log1p_exp_neg, _output_llr_sampler,
                               _mc_batch, _polarize_tables, _sc_decode_block,
                               bhattacharyya, combine_bad, combine_good,
                               error_bound, merge_equal_likelihood_outputs,
                               monte_carlo_block_error, polarization_rows,
                               polarize, polarize_walk, select_sets,
                               trial_words)

# Hand-expanded one level of the generator recursion (even/odd interleave
# between half-size codes, kernel pairs on the outside).
G4_EXPECTED = np.array([[1, 1, 1, 1],
                        [0, 0, 1, 1],
                        [0, 1, 0, 1],
                        [0, 0, 0, 1]], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Oracles, independent of the library code
# ---------------------------------------------------------------------------

def gf2_invertible(mat):
    """Gaussian elimination over GF(2)."""
    a = mat.copy().astype(np.uint8)
    n = a.shape[0]
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if a[row, col]:
                pivot = row
                break
        if pivot is None:
            return False
        a[[col, pivot]] = a[[pivot, col]]
        for row in range(n):
            if row != col and a[row, col]:
                a[row] ^= a[col]
    return True


def combine_oracle(table, which):
    """Explicit transition enumeration of one combining level."""
    m = table.shape[1]
    if which == "bad":
        out = np.zeros((2, m * m))
        for u1 in range(2):
            for y1 in range(m):
                for y2 in range(m):
                    out[u1, y1 * m + y2] = 0.5 * sum(
                        table[u1 ^ u2, y1] * table[u2, y2] for u2 in range(2))
        return out
    out = np.zeros((2, 2 * m * m))
    for u2 in range(2):
        for u1 in range(2):
            for y1 in range(m):
                for y2 in range(m):
                    out[u2, (u1 * m + y1) * m + y2] = (
                        0.5 * table[u1 ^ u2, y1] * table[u2, y2])
    return out


def bhattacharyya_oracle(table):
    return float(sum(math.sqrt(p0 * p1) for p0, p1 in zip(table[0], table[1])))


def bec_recursion_oracle(eps, k):
    """Closed-form erasure recursion, written independently."""
    z = [eps]
    for _ in range(k):
        nxt = []
        for val in z:
            nxt.append(2 * val - val * val)
            nxt.append(val * val)
        z = nxt
    return np.array(z)


# ---------------------------------------------------------------------------
# Generator matrix and encoding
# ---------------------------------------------------------------------------

def test_generator_matrix_base_case():
    g = generator_matrix(1)
    assert np.array_equal(g, np.array([[1, 1], [0, 1]], dtype=np.uint8))


def test_generator_matrix_level_two_matches_hand_expansion():
    assert np.array_equal(generator_matrix(2), G4_EXPECTED)


def test_generator_matrix_rejects_bad_level():
    with pytest.raises(ValueError):
        generator_matrix(0)


@pytest.mark.parametrize("k", range(1, 9))
def test_generator_matrix_invertible(k):
    assert gf2_invertible(generator_matrix(k))


def test_polar_encode_pair():
    assert np.array_equal(polar_encode([1, 0], 1), [1, 0])
    assert np.array_equal(polar_encode([1, 1], 1), [0, 1])
    assert np.array_equal(polar_encode([0, 1], 1), [1, 1])


def test_polar_encode_zero_message():
    assert not polar_encode(np.zeros(16, dtype=int), 4).any()


def test_polar_encode_matches_matrix_product():
    rng = np.random.default_rng(41)
    g = generator_matrix(3)
    for _ in range(25):
        msg = rng.integers(0, 2, size=8)
        want = (g @ msg) % 2
        assert np.array_equal(polar_encode(msg, 3), want)


@pytest.mark.parametrize("k", range(1, 9))
def test_polar_encode_is_involution(k):
    rng = np.random.default_rng(43 + k)
    msg = rng.integers(0, 2, size=2 ** k)
    assert np.array_equal(polar_encode(polar_encode(msg, k), k), msg)


def test_polar_encode_validates_input():
    with pytest.raises(ValueError, match="length"):
        polar_encode([0, 1, 0], 2)
    with pytest.raises(ValueError, match="binary"):
        polar_encode([0, 2], 1)


def test_encode_in_place_matches_recursive_oracle():
    # row r of the in-place (n, batch) encoding holds codeword position
    # rev(r), the k-bit reversal of r, of the even/odd recursion's codeword
    rng = np.random.default_rng(53)
    for k in range(13):
        n = 2 ** k
        rev = bit_reversal(n)
        for batch in (1, 7, 2048):
            u = rng.integers(0, 2, size=(batch, n), dtype=np.uint8)
            x = _encode_in_place(u.T.copy())
            assert x.shape == (n, batch)
            assert np.array_equal(x, encode_block_oracle(u).T[rev])


def gf2_rank(mat):
    """Rank over GF(2) of a 0/1 matrix, its rows read as binary numbers:
    the largest clears its leading bit from every row until none is
    left."""
    rows = [int("".join(map(str, row)) or "0", 2) for row in mat.tolist()]
    rank = 0
    while any(rows):
        pivot = max(rows)
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if r >> top & 1 else r for r in rows]
        rank += 1
    return rank


def erasure_loss(m, order, eps):
    """Each message bit's probability of being lost when the codeword
    x = m u (mod 2) goes through BEC(eps) and the bits are decoded in
    ``order``, the bits before each one known: over every erasure
    pattern, with unerased rows U, bit j is lost when column j of m[U]
    lies in the span of the columns of the bits still to come."""
    n = m.shape[0]
    loss = np.zeros(n)
    for pattern in range(2 ** n):
        kept = [r for r in range(n) if not pattern >> r & 1]
        weight = eps ** (n - len(kept)) * (1.0 - eps) ** len(kept)
        for step, j in enumerate(order):
            later = list(order[step + 1:])
            if (gf2_rank(m[np.ix_(kept, [j] + later)])
                    == gf2_rank(m[np.ix_(kept, later)])):
                loss[j] += weight
    return loss


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("eps", [0.3, 0.45])
def test_phase_order_reverses_the_erasure_polarization(k, eps):
    # ROADMAP item 1's algebra, by enumeration. Amplitude bits x = G u
    # decoded in order 0..n-1 lose bit j with probability z[j]. Phase
    # errors reach the message through G^T, whose SC order is n-1..0, so
    # message i is lost with probability z[n-1-i]: the same-index mask
    # good_phase is the wrong one wherever z[i] != z[n-1-i].
    n, g = 2 ** k, generator_matrix(k)
    z = polarize(BDMC.bec(eps), k).z
    amplitude = erasure_loss(g, range(n), eps)
    assert np.max(np.abs(amplitude - z)) <= 1e-12
    phase = erasure_loss(g.T.copy(), range(n - 1, -1, -1), eps)
    assert np.max(np.abs(phase - z[::-1])) <= 1e-12
    differs = np.abs(z - z[::-1]) > 1e-12
    assert differs.any()
    assert np.all(np.abs(phase - z)[differs] > 1e-12)


# ---------------------------------------------------------------------------
# Combining and channel parameters
# ---------------------------------------------------------------------------

def test_combine_matches_enumeration_oracle():
    rng = np.random.default_rng(47)
    for _ in range(20):
        w = random_bdmc(int(rng.integers(2, 6)), rng)
        assert np.allclose(combine_bad(w).w, combine_oracle(w.w, "bad"),
                           atol=1e-14)
        assert np.allclose(combine_good(w).w, combine_oracle(w.w, "good"),
                           atol=1e-14)


def test_combine_bec_split_parameters():
    for eps in (0.1, 0.3, 0.5, 0.9):
        w = BDMC.bec(eps)
        z_bad = bhattacharyya_oracle(combine_oracle(w.w, "bad"))
        z_good = bhattacharyya_oracle(combine_oracle(w.w, "good"))
        assert abs(z_bad - (2 * eps - eps * eps)) < 1e-12
        assert abs(z_good - eps * eps) < 1e-12
        assert abs(bhattacharyya(combine_bad(w)) - z_bad) < 1e-12
        assert abs(bhattacharyya(combine_good(w)) - z_good) < 1e-12


def test_combine_noiseless_stays_noiseless():
    w = BDMC([[1.0, 0.0], [0.0, 1.0]])
    assert bhattacharyya(combine_bad(w)) == 0.0
    assert bhattacharyya(combine_good(w)) == 0.0


def test_capacity_conservation_and_ordering():
    rng = np.random.default_rng(53)
    for _ in range(100):
        w = random_bdmc(int(rng.integers(2, 9)), rng)
        i_w = symmetric_capacity(w)
        i_bad = symmetric_capacity(combine_bad(w))
        i_good = symmetric_capacity(combine_good(w))
        assert abs(i_bad + i_good - 2.0 * i_w) < 1e-10
        assert i_bad <= i_w + 1e-12
        assert i_w <= i_good + 1e-12


def test_bhattacharyya_limits():
    assert bhattacharyya(BDMC([[1.0, 0.0], [0.0, 1.0]])) == 0.0
    assert abs(bhattacharyya(BDMC([[0.4, 0.6], [0.4, 0.6]])) - 1.0) < 1e-12
    for eps in (0.0, 0.25, 0.8):
        assert abs(bhattacharyya(BDMC.bec(eps)) - eps) < 1e-12


def test_bdmc_validation():
    with pytest.raises(ValueError, match="sum"):
        BDMC([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError, match="negative"):
        BDMC([[1.1, -0.1], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bdmc_rejects_non_finite_entries(bad):
    # NaN passes both the sign and the row-sum checks on its own
    for table in ([[bad, 1.0], [0.5, 0.5]], [[1.0, 0.0], [0.5, bad]]):
        with pytest.raises(ValueError, match="finite"):
            BDMC(table)


def test_merge_pools_equal_ratios():
    # two outputs with ratio 1 and two fully revealing outputs
    w = BDMC([[0.2, 0.3, 0.5, 0.0], [0.2, 0.3, 0.0, 0.5]])
    merged = merge_equal_likelihood_outputs(w)
    assert merged.output_alphabet_size == 3
    assert abs(bhattacharyya(merged) - bhattacharyya(w)) < 1e-15
    assert abs(symmetric_capacity(merged) - symmetric_capacity(w)) < 1e-12


def test_ratios_past_float64_pool_with_infinity_without_a_warning():
    # 0.5 / 1e-320 overflows: that output pools with the one that rules
    # out input 1, and the sampler clips both to LLR_CLIP (warnings raise)
    w = BDMC([[0.5, 0.5, 0.0], [1e-320, 0.0, 1.0 - 1e-320]])
    merged = merge_equal_likelihood_outputs(w)
    assert merged.output_alphabet_size == 2
    assert abs(bhattacharyya(merged) - bhattacharyya(w)) < 1e-154
    table = _output_llr_sampler(w)[-1]
    assert set(table.tolist()) == {LLR_CLIP, -LLR_CLIP}


def _sparse_table(m, rng):
    """Random 2 x m table with repeated columns (equal ratios), revealing
    outputs and outputs of probability zero."""
    base = rng.random((2, 3)) + 0.05
    table = base[:, rng.integers(0, 3, size=m)]
    table[rng.random((2, m)) < 0.25] = 0.0
    table[:, 0] = (0.3, 0.0)
    table[:, 1] = (0.0, 0.4)
    table[:, -1] = 0.0
    return BDMC(table / table.sum(axis=1, keepdims=True))


MERGE_CASES = ((BDMC.bsc(0.11), 5), (BDMC.bsc(0.3), 3), (BDMC.bec(0.3), 3),
               (BDMC([[0.6, 0.0, 0.2, 0.2], [0.0, 0.6, 0.2, 0.2]]), 3),
               (BDMC([[0.2, 0.3, 0.5, 0.0], [0.2, 0.3, 0.0, 0.5]]), 3))


def test_merge_matches_dict_oracle(monkeypatch):
    # one level on BSC, erasure-like and random sparse tables, then whole
    # table recursions: the Bhattacharyya values agree exactly
    rng = np.random.default_rng(61)
    cases = list(MERGE_CASES) + [(_sparse_table(int(rng.integers(3, 9)), rng),
                                  int(rng.integers(1, 4))) for _ in range(12)]
    for w, _ in cases:
        for table in (w, combine_bad(w), combine_good(w)):
            assert np.array_equal(merge_equal_likelihood_outputs(table).w,
                                  merge_oracle(table).w)
    fast = [_polarize_tables(w, k) for w, k in cases]
    monkeypatch.setattr(qrelay.polar_core, "merge_equal_likelihood_outputs",
                        merge_oracle)
    for (w, k), z in zip(cases, fast):
        assert np.array_equal(z, _polarize_tables(w, k))


# ---------------------------------------------------------------------------
# Polarization
# ---------------------------------------------------------------------------

def test_polarize_bec_one_level():
    pr = polarize(BDMC.bec(0.5), 1)
    assert np.allclose(pr.z, [0.75, 0.25], atol=1e-15)


def test_polarize_bec_conservation():
    pr = polarize(BDMC.bec(0.5), 10)
    assert abs(np.sum(1.0 - pr.z) - 512.0) < 1e-9


def test_polarize_bec_matches_recursion_oracle():
    pr = polarize(BDMC.bec(0.5), 10)
    assert np.max(np.abs(pr.z - bec_recursion_oracle(0.5, 10))) <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.03, 1 / 3, 0.5, 0.77, 0.999, 1.0])
def test_polarize_bec_bits_match_recursion_oracle(eps):
    # the closed form writes each level in place, by the same IEEE
    # operations in the same order as the oracle's 2z - z^2 and z^2
    for k in range(1, 13):
        want = np.clip(bec_recursion_oracle(eps, k), 0.0, 1.0)
        assert np.array_equal(polarize(BDMC.bec(eps), k).z.view(np.int64),
                              want.view(np.int64))


def _walk_blocks(walk):
    """Each block of an ``ErasureWalk`` in row order, copied out of the
    buffer that the next block reuses, with the rows it was asked for."""
    return [(rows, walk[rows].copy()) for rows in
            (slice(s, s + walk.rows) for s in range(0, walk.n, walk.rows))]


def _assert_walk_matches_oracle(w, k, rows):
    # the blocks cover range(2^k) in order, each of min(rows, 2^k) rows,
    # and concatenated they are the per-level oracle's z bit for bit
    blocks = _walk_blocks(ErasureWalk(w, k, rows))
    size = min(rows, 2 ** k)
    assert [(r.start, r.stop, len(z)) for r, z in blocks] == [
        (s, s + size, size) for s in range(0, 2 ** k, size)]
    want = polarize_erasure_oracle(w, k)
    got = np.concatenate([z for _, z in blocks])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# block sizes of 2^0 .. 2^15 rows: levels below, at and above k = 1..16
WALK_ROWS = (1, 2, 2 ** 5, 2 ** 8, 2 ** 11, 2 ** 15)


@pytest.mark.parametrize("eps", [0.0, 0.11, 0.3, 0.4, 0.5, 1.0])
def test_polarize_erasure_in_place_matches_per_level_oracle(eps):
    # polarize(), which grows the walk's blocks into one vector, for every
    # k to 20, and the walk's own blocks up to k = 16, against a new array
    # per level, bit for bit
    w = BDMC.bec(eps)
    for k in range(1, 21):
        for rows in WALK_ROWS:
            if k <= 16 and 2 ** k // rows <= 2 ** 12:   # <= 4096 blocks
                _assert_walk_matches_oracle(w, k, rows)
        want = polarize_erasure_oracle(w, k)
        assert np.array_equal(polarize(w, k).z.view(np.int64),
                              want.view(np.int64))


def test_erasure_walk_k20_matches_per_level_oracle():
    w = BDMC.bec(0.3)
    _assert_walk_matches_oracle(w, 20, 2 ** 15)
    assert np.array_equal(polarize(w, 20).z.view(np.int64),
                          polarize_erasure_oracle(w, 20).view(np.int64))


@pytest.mark.parametrize("w", [
    BDMC([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]]), BDMC.bsc(0.0), BDMC.bsc(0.5)],
    ids=["table", "bsc0", "bsc0.5"])
def test_erasure_like_tables_take_the_walk(w):
    # tables that only reveal the input or erase it take the closed form
    for k in (1, 3, 9, 16):
        assert isinstance(polarize_walk(w, k, 2 ** 4).z, ErasureWalk)
        for rows in (1, 2 ** 4, 2 ** 15):
            if 2 ** k // rows <= 2 ** 12:
                _assert_walk_matches_oracle(w, k, rows)
        assert np.array_equal(polarize(w, k).z.view(np.int64),
                              polarize_erasure_oracle(w, k).view(np.int64))


def test_polarize_walk_slices_the_table_vector_of_other_channels():
    w = BDMC.bsc(0.11)
    z = polarize_walk(w, 5, 2 ** 3).z
    assert isinstance(z, np.ndarray)
    assert np.array_equal(z, _polarize_tables(w, 5))
    assert np.array_equal(polarize(w, 5).z, z)
    with pytest.raises(ValueError, match="recursion level"):
        polarize_walk(w, 0, 2 ** 3)


def test_erasure_walk_grows_each_block_once(monkeypatch):
    # the roots are grown once; asking for a block's rows again (as the
    # label column does after the z column) reads the block without
    # growing it again, and any block can be asked for next
    grown = []
    grow = qrelay.polar_core._grow
    monkeypatch.setattr(qrelay.polar_core, "_grow", lambda root, at, levels: (
        grown.append(len(levels)) or grow(root, at, levels)))
    w = BDMC.bec(0.4)
    walk = ErasureWalk(w, 10, 2 ** 7)
    assert grown == [3]
    want = polarize_erasure_oracle(w, 10)
    for j in (0, 0, 1, 1, 7, 2, 2):
        rows = slice(j * 128, (j + 1) * 128)
        assert np.array_equal(walk[rows], want[rows])
    assert grown == [3] + [7] * 4


@pytest.mark.parametrize("rows", [slice(0, 64), slice(1, 129), slice(0, 256),
                                  slice(0, 128, 2), slice(None)])
def test_erasure_walk_rejects_rows_that_are_not_one_block(rows):
    walk = ErasureWalk(BDMC.bec(0.4), 10, 2 ** 7)
    with pytest.raises(IndexError, match="not one block of 128"):
        walk[rows]


@pytest.mark.parametrize("rows", [0, 3, 96, -4])
def test_erasure_walk_rejects_a_block_size_that_is_not_a_power_of_two(rows):
    with pytest.raises(ValueError, match="power of two"):
        ErasureWalk(BDMC.bec(0.4), 10, rows)


def test_polarize_k20_holds_one_buffer():
    # the z vector itself (8 MB) and no second level or bool temporaries
    tracemalloc.start()
    try:
        pr = polarize(BDMC.bec(0.3), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pr.z.nbytes == 8 * 2 ** 20
    assert peak <= pr.z.nbytes + 2 ** 16


@pytest.mark.parametrize("k", range(1, 7))
def test_polarize_tables_match_closed_form(k):
    w = BDMC.bec(0.35)
    closed = polarize(w, k).z
    tables = _polarize_tables(w, k)
    assert np.max(np.abs(closed - tables)) < 1e-12


def test_polarize_detects_relabeled_erasure_channel():
    # erasure symbol split into two outputs: still erasure-like, and the
    # closed form must agree with the full-table recursion
    w = BDMC([[0.7, 0.0, 0.2, 0.1], [0.0, 0.7, 0.2, 0.1]])
    auto = polarize(w, 4)
    tables = _polarize_tables(w, 4)
    assert np.max(np.abs(auto.z - tables)) < 1e-12
    oracle = bec_recursion_oracle(0.3, 4)
    assert np.max(np.abs(auto.z - oracle)) < 1e-12


def _table_cases():
    rng = np.random.default_rng(67)
    return (list(MERGE_CASES)
            + [(BDMC.bsc(0.11), k) for k in range(1, 6)]
            + [(BDMC.bsc(0.05), 5), (BDMC.bsc(0.3), 5)]
            + [(random_bdmc(int(rng.integers(2, 6)), rng),
                int(rng.integers(1, 4))) for _ in range(50)])


def test_polarize_tables_match_all_levels_oracle():
    # the closed-form last level against merged tables at every level,
    # down to the CSV digits and the good mask
    for w, k in _table_cases():
        z, want = _polarize_tables(w, k), polarize_tables_oracle(w, k)
        assert np.max(np.abs(z - want)) < 1e-12
        assert ["%.12g" % v for v in z] == ["%.12g" % v for v in want]
        assert np.array_equal(
            select_sets(PolarizationResult(z), 0.35),
            select_sets(PolarizationResult(want), 0.35))


@pytest.mark.parametrize("k", range(1, 6))
def test_polarize_tables_merge_no_last_level(monkeypatch, k):
    # levels 1..k-1 hold 2 + 4 + ... + 2^(k-1) merged tables
    calls = []

    def spy(w):
        calls.append(w.output_alphabet_size)
        return merge_equal_likelihood_outputs(w)

    monkeypatch.setattr(qrelay.polar_core, "merge_equal_likelihood_outputs",
                        spy)
    polarize(BDMC.bsc(0.11), k)
    assert len(calls) == 2 ** k - 2


def test_polarize_bsc_k6_pair_sum_is_blocked():
    # BSC(0.11) level-5 alphabets reach 3058: one 3058^2 pair grid holds
    # 75 MB per float array, the blocked sum stays near 5 MB (traced)
    tracemalloc.start()
    try:
        polarize(BDMC.bsc(0.11), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_polarize_bsc_k6_extends_k5():
    # Arikan 2009, Prop. 4 and 5: Z(W+) = Z(W)^2 and
    # Z(W) <= Z(W-) <= 2 Z(W) - Z(W)^2
    w = BDMC.bsc(0.11)
    z5, z6 = polarize(w, 5).z, polarize(w, 6).z
    assert np.max(np.abs(z6[1::2] - z5 ** 2)) <= 1e-15
    assert np.all(z6[0::2] >= z5 - 1e-12)
    assert np.all(z6[0::2] <= 2 * z5 - z5 ** 2 + 1e-12)


def test_polarize_one_level_ordering_random_channels():
    rng = np.random.default_rng(59)
    for _ in range(50):
        w = random_bdmc(int(rng.integers(2, 6)), rng)
        pr = polarize(w, 1)
        z = bhattacharyya(w)
        assert pr.z[0] >= z - 1e-12  # bad split first
        assert pr.z[1] <= z + 1e-12


def test_polarize_alphabet_cap(monkeypatch):
    # merging pools the first good split's 128 outputs to 94, still past 64
    rng = np.random.default_rng(61)
    w = random_bdmc(8, rng)
    monkeypatch.setattr(qrelay.polar_core, "ALPHABET_CAP", 64)
    with pytest.raises(ValueError, match="alphabet 94 exceeds cap 64"):
        polarize(w, 3)


def test_bdmc_factory_validation():
    with pytest.raises(ValueError):
        BDMC.bec(1.5)
    with pytest.raises(ValueError):
        BDMC.bsc(-0.2)


def test_polarization_result_validation():
    with pytest.raises(ValueError):
        PolarizationResult(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        PolarizationResult(np.array([-0.5, 0.5]))


def test_polarization_result_n_is_the_length_of_z():
    for z in (np.zeros(1), np.full(8, 0.5), polarize(BDMC.bsc(0.1), 3).z):
        assert PolarizationResult(z).n == len(z)


# ---------------------------------------------------------------------------
# Set selection
# ---------------------------------------------------------------------------

def test_select_sets_extremes():
    all_zero = PolarizationResult(np.zeros(8))
    good = select_sets(all_zero, 0.4)
    assert good.dtype == bool and good.shape == (8,)
    assert good.all()
    all_one = PolarizationResult(np.ones(8))
    assert not select_sets(all_one, 0.4).any()


def test_select_sets_beta_validation():
    pr = PolarizationResult(np.zeros(2))
    for beta in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError, match="beta"):
            select_sets(pr, beta)


def test_select_sets_tie_goes_to_bad():
    threshold = 0.5 * 2.0 ** (-(2 ** 0.4))
    pr = PolarizationResult(np.array([threshold, threshold / 2]))
    assert select_sets(pr, 0.4).tolist() == [False, True]


def test_select_sets_bec_half_large_block():
    pr = polarize(BDMC.bec(0.5), 12)
    good = select_sets(pr, 0.45)
    # independent recursion oracle
    z = bec_recursion_oracle(0.5, 12)
    threshold = (1.0 / 4096) * 2.0 ** (-(4096 ** 0.45))
    assert np.array_equal(good, z < threshold)
    assert np.count_nonzero(good) / 4096 <= 0.5  # capacity ceiling


# ---------------------------------------------------------------------------
# Error bound
# ---------------------------------------------------------------------------

def test_error_bound_values():
    assert abs(error_bound(1, 0.3) - 0.5) < 1e-15
    want = 1024.0 * 2.0 ** -32
    assert abs(error_bound(1024, 0.5) - want) / want < 1e-15


def test_error_bound_decreasing_for_large_blocks():
    values = [error_bound(n, 0.45) for n in (16, 64, 256, 1024, 4096, 65536)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_error_bound_validation():
    with pytest.raises(ValueError):
        error_bound(0, 0.4)
    with pytest.raises(ValueError):
        error_bound(16, 1.2)


# ---------------------------------------------------------------------------
# SC decoding
# ---------------------------------------------------------------------------

def _noiseless_likelihoods(codeword):
    return np.where(np.asarray(codeword) == 0, np.inf, 0.0)


def test_sc_decode_noiseless_recovery():
    rng = np.random.default_rng(67)
    k = 6
    n = 2 ** k
    good = index_mask(n, range(n))
    for _ in range(20):
        msg = rng.integers(0, 2, size=n)
        decoded = sc_decode(_noiseless_likelihoods(polar_encode(msg, k)), good)
        assert np.array_equal(decoded, msg)


def test_sc_decode_with_frozen_positions():
    rng = np.random.default_rng(71)
    k = 5
    n = 2 ** k
    info = sorted(rng.choice(n, size=12, replace=False))
    good = index_mask(n, info)
    msg = np.zeros(n, dtype=np.uint8)
    msg[info] = rng.integers(0, 2, size=len(info))
    decoded = sc_decode(_noiseless_likelihoods(polar_encode(msg, k)), good)
    assert np.array_equal(decoded, msg)


def test_sc_decode_bec_without_erasures():
    rng = np.random.default_rng(73)
    k = 4
    n = 2 ** k
    good = index_mask(n, range(n))
    msg = rng.integers(0, 2, size=n)
    # erasure-free BEC observation carries full certainty
    decoded = sc_decode(_noiseless_likelihoods(polar_encode(msg, k)), good)
    assert np.array_equal(decoded, msg)


def test_sc_decode_rate_zero_returns_frozen_vector():
    rng = np.random.default_rng(79)
    n = 16
    good = index_mask(n, [])
    # all erasures, and LLRs that would decide 1 at every leaf
    for lam in (np.ones(n), rng.random((3, n)) * 1e-3):
        decoded = sc_decode(lam, good)
        assert decoded.dtype == np.uint8 and decoded.shape == lam.shape
        assert not decoded.any()


def test_sc_decode_rejects_nan_and_negative():
    good = index_mask(2, [0, 1])
    with pytest.raises(ValueError):
        sc_decode(np.array([np.nan, 1.0]), good)
    with pytest.raises(ValueError):
        sc_decode(np.array([-1.0, 1.0]), good)


def test_sc_decode_batched_matches_single():
    rng = np.random.default_rng(83)
    k = 4
    n = 2 ** k
    good = index_mask(n, range(0, n, 2))
    lam = rng.random((5, n)) * 4.0
    batch = sc_decode(lam, good)
    for row in range(5):
        assert np.array_equal(batch[row], sc_decode(lam[row], good))


# LLRs at which exp(-|a +- b|) crosses into underflow (745.13 to 745.14),
# the subnormals and both zeros
EDGE_LLRS = np.array([745.0, 745.13, 745.1332, 745.14, 745.5, 746.0, 372.57,
                      372.6, 700.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                      0.0])
EDGE_LLRS = np.concatenate([EDGE_LLRS, -EDGE_LLRS])


def _random_llrs(rng, kind, shape):
    if kind == "bec":
        return rng.choice([700.0, -700.0, 0.0, -0.0], size=shape)
    if kind == "gauss":
        return rng.normal(2.0, 40.0, size=shape)
    if kind == "edge":
        return rng.choice(EDGE_LLRS, size=shape)
    picks = rng.integers(0, 3, size=shape)  # every kind in one array
    return np.choose(picks, [_random_llrs(rng, k, shape)
                             for k in ("bec", "gauss", "edge")])


def _random_frozen_mask(rng, n):
    """Each subtree is all frozen, all information or split further."""
    roll = rng.random()
    if n == 1 or roll < 0.3:
        return np.full(n, roll < 0.15)
    return np.concatenate([_random_frozen_mask(rng, n // 2)
                           for _ in range(2)])


def _frozen_masks(rng, n):
    """All frozen, all information, four random masks, then an all-frozen
    first and last block at every depth."""
    masks = [np.ones(n, dtype=bool), np.zeros(n, dtype=bool)]
    masks += [_random_frozen_mask(rng, n) for _ in range(3)]
    masks.append(rng.random(n) < 0.5)
    size = n
    while size > 1:
        size //= 2
        for block in (slice(0, size), slice(n - size, n)):
            mask = rng.random(n) < 0.5
            mask[block] = True
            masks.append(mask)
    return masks


def test_sc_decode_block_matches_recursive_oracle():
    # message bits equal the recursive decoder's bit for bit for
    # n = 1..256 and batches of 1, 7 and 2048, the LLRs given in the
    # bit-reversed (n, batch) layout, with frozen subtrees at
    # every depth and LLRs that reach the underflow edge of exp,
    # subnormals and both zeros
    rng = np.random.default_rng(131)
    checked = 0
    for k in range(9):
        n = 2 ** k
        for i, mask in enumerate(_frozen_masks(rng, n)):
            cases = [(1, kind) for kind in ("bec", "gauss", "edge")]
            cases.append((7, "mixed"))
            if i < 6:  # all frozen, all information and the random masks
                cases.append((2048, "mixed"))
            for batch, kind in cases:
                lam = _random_llrs(rng, kind, (batch, n))
                u = decode_llrs(lam.T[bit_reversal(n)], ~mask)
                u_want, _ = sc_decode_oracle(lam, ~mask)
                assert u.dtype == np.uint8 and u.shape == (n, batch)
                assert np.array_equal(u.T, u_want)
                checked += 1
    assert checked > 400


def test_sc_decode_block_matches_float_rooted_oracle():
    # a table as large as its lanes, as ``decode_llrs`` gives, puts the
    # root past the switch to floats: the (n, batch) float root array then
    # decodes bit for bit as the oracle's, for n = 1..256 and batches of
    # 1, 7 and 2048, with frozen subtrees at every depth, LLRs at the
    # underflow edge of exp, subnormals and both zeros
    rng = np.random.default_rng(139)
    checked = 0
    for k in range(9):
        n = 2 ** k
        for i, mask in enumerate(_frozen_masks(rng, n)):
            for batch in (1, 7, 2048) if i < 3 else (7,):
                lam = _random_llrs(rng, "mixed", (n, batch))
                want = sc_decode_block_oracle(lam, ~mask)
                assert np.array_equal(decode_llrs(lam, ~mask), want)
                checked += 1
    assert checked > 150


# small LLR tables for codes: erasure-like, BSC(0.11)-like, and every kind
# of edge value, both zeros, subnormals, +-700 and values near 746
BSC_LLR = math.log(0.89 / 0.11)
CODE_TABLES = {
    "bec": np.array([700.0, -700.0, 0.0, -0.0, 700.0, 0.0]),
    "bsc": np.array([BSC_LLR, -BSC_LLR, 0.0]),
    "mixed": np.concatenate([EDGE_LLRS, [BSC_LLR, -BSC_LLR, -0.0]]),
}


def _code_case(rng, kind, shape):
    """uint8 codes of the given shape into a table of the kind: one of
    ``CODE_TABLES``, 2 to 8 of the mixed values ("subset"), or 40
    Gaussian LLRs ("gauss"), whose children's tables outgrow code space
    at once."""
    if kind == "subset":
        table = rng.choice(CODE_TABLES["mixed"], int(rng.integers(2, 9)),
                           replace=False)
    elif kind == "gauss":
        table = rng.normal(2.0, 40.0, 40)
    else:
        table = CODE_TABLES[kind]
    codes = rng.integers(0, table.size, size=shape).astype(np.uint8)
    return codes, table


def test_sc_decode_block_code_space_matches_float_rooted_oracle():
    # LLRs given as codes into a small table decode bit for bit as the
    # oracle on table[codes], for n = 1..256 and batches of 1, 7, 2048
    # and (n <= 8) 2^13, with frozen subtrees at every depth. The tables
    # grow at different speeds down the tree, so the switch from codes to
    # floats comes at every depth, at the leaves of 2^13-trial blocks too
    rng = np.random.default_rng(149)
    kinds = ("mixed", "bec", "bsc", "subset", "gauss")
    checked = 0
    for k in range(9):
        n = 2 ** k
        for i, mask in enumerate(_frozen_masks(rng, n)):
            large = kinds if i < 3 else [kinds[1 + i % 4]]
            cases = [(1, kinds[i % 5]), (7, kinds[(i + 1) % 5])]
            cases += [(2048, kind) for kind in large]
            if n <= 8:
                cases += [(2 ** 13, kind) for kind in large]
            for batch, kind in cases:
                codes, table = _code_case(rng, kind, (n, batch))
                got = _sc_decode_block(codes, table, ~mask)
                want = sc_decode_block_oracle(table[codes], ~mask)
                assert got.dtype == np.uint8 and got.shape == (n, batch)
                assert np.array_equal(got, want)
                checked += 1
    assert checked > 400


_BOXPLUS_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.sampled_from(EDGE_LLRS.tolist() + [-0.0]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4),
                                        st.integers(1, 40)),
                  elements=_BOXPLUS_FLOATS),
       st.data())
def test_boxplus_is_bit_identical_to_formula(a, data):
    b = data.draw(hnp.arrays(np.float64, a.shape, elements=_BOXPLUS_FLOATS))
    with np.errstate(all="ignore"):  # a + b or a * b may overflow
        want = boxplus_oracle(a, b)
        got = _boxplus(a, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(
    st.floats(allow_nan=False), st.floats(740.0, 750.0))))
def test_log1p_exp_neg_is_bit_identical_to_formula(t):
    # every t, +-inf included: the underflowing lanes skip exp
    with np.errstate(all="ignore"):
        want = np.log1p(np.exp(-t))
        got = _log1p_exp_neg(t.copy(), np.empty(t.shape, dtype=bool))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _two_term_count(a, b):
    """Lanes with 0 < min(|a|, |b|) < 20, where boxplus needs both terms."""
    m = np.minimum(np.abs(a), np.abs(b))
    return np.count_nonzero((m > 0.0) & (m < 20.0))


def _plant_two_term_lanes(rng, a, b, count):
    """Overwrite ``count`` lanes of a and b with nonzero LLRs below 20."""
    lanes = rng.choice(a.size, count, replace=False)
    for x in (a, b):
        x.flat[lanes] = (rng.uniform(0.5, 19.5, count)
                         * rng.choice([-1.0, 1.0], count))


def _adversarial_boxplus_pairs():
    """(a, b) lanes at the edges of the one-term cuts, in both orders and
    all four sign pairings: m = +-0 against M from 0 to 1e308, m at 20
    and one ulp either side, subnormal m, and a + b or a - b overflowing."""
    below, above = np.nextafter(20.0, 0.0), np.nextafter(20.0, np.inf)
    pairs = [(0.0, big) for big in (0.0, 5e-324, 745.99, 746.0, 1e308)]
    pairs += [(m, big) for m in (below, 20.0, above)
              for big in (m, 20.5, 40.0, 745.99, 746.0, 1e308)]
    pairs += [(m, big) for m in (5e-324, 1e-310, 2.2250738585072014e-308)
              for big in (m, 1.0, below, 746.0, 1e308)]
    pairs += [(1e308, 1e308), (1.7976931348623157e308, 1e308)]
    a, b = [], []
    for m, big in pairs:
        for sm in (1.0, -1.0):
            for sbig in (1.0, -1.0):
                a += [sm * m, sbig * big]
                b += [sbig * big, sm * m]
    return np.array(a), np.array(b)


@pytest.mark.parametrize("two_term", [2 ** 11, 2 ** 12 + 1])
def test_boxplus_is_bit_identical_to_formula_on_large_arrays(two_term):
    # one gather of the largest size, and more two-term lanes than it
    # takes; the one-term lanes are saturated BEC LLRs, |x| >= 20 and the
    # adversarial lanes, all shuffled into one array
    rng = np.random.default_rng(two_term)
    edge_a, edge_b = _adversarial_boxplus_pairs()
    a, b = _random_llrs(rng, "bec", (2, 2 ** 15 - edge_a.size))
    a[:2 ** 13] = rng.uniform(20.0, 1e3, 2 ** 13) * rng.choice([-1.0, 1.0],
                                                               2 ** 13)
    a, b = np.concatenate([a, edge_a]), np.concatenate([b, edge_b])
    extra = two_term - _two_term_count(edge_a, edge_b)
    _plant_two_term_lanes(rng, a[:2 ** 15 - edge_a.size],
                          b[:2 ** 15 - edge_b.size], extra)
    order = rng.permutation(a.size)
    a, b = a[order].reshape(64, -1), b[order].reshape(64, -1)
    assert _two_term_count(a, b) == two_term
    with np.errstate(all="ignore"):  # a + b, a - b or a * b may overflow
        want = boxplus_oracle(a, b)
        got = _boxplus(a, b)
        into = np.full((66, a.shape[1]), np.nan)
        _boxplus(a, b, out=into[1:-1])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(into[1:-1].view(np.int64), want.view(np.int64))


def test_boxplus_scratch_is_two_floats_and_a_mask():
    # mixed LLRs, saturated BEC LLRs, and BEC LLRs with the most two-term
    # lanes one gather takes and with one more
    rng = np.random.default_rng(137)
    shape = (2, 2048, 128)
    pairs = [_random_llrs(rng, "mixed", shape), _random_llrs(rng, "bec", shape)]
    for count in (2 ** 11, 2 ** 11 + 1):
        a, b = _random_llrs(rng, "bec", shape)
        _plant_two_term_lanes(rng, a, b, count)
        assert _two_term_count(a, b) == count
        pairs.append((a, b))
    for a, b in pairs:
        tracemalloc.start()
        try:
            _boxplus(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, one scratch array, the mask and numpy's 64 kB cast
        # buffer for the float-by-mask products
        assert peak <= 2 * a.nbytes + a.size + 2 ** 17


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_noiseless_channel():
    w = BDMC([[1.0, 0.0], [0.0, 1.0]])
    res = monte_carlo_block_error(w, 64, np.ones(64, dtype=bool), trials=200,
                                  seed=1)
    assert res.errors == 0 and res.block_error_rate == 0.0


def test_monte_carlo_single_message():
    res = monte_carlo_block_error(BDMC.bec(0.9), 16, np.zeros(16, dtype=bool),
                                  trials=100, seed=2)
    assert res.errors == 0


def test_monte_carlo_is_deterministic():
    w = BDMC.bec(0.3)
    pr = polarize(w, 6)
    info = index_mask(64, np.argsort(pr.z)[:20])
    a = monte_carlo_block_error(w, 64, info, trials=500, seed=99)
    b = monte_carlo_block_error(w, 64, info, trials=500, seed=99)
    assert a == b


# Pinned from the frozenset implementation of the index sets: the SHA-256
# of every decoded block below (all frozen bits 0), and the error count of
# the MC run.
SC_DECODE_DIGEST = (
    "2781ac4c8d8d1d3998240b675db44a123d717f71312b46c4caa3fb105780343c")
MC_ERRORS_PINNED = 11


def test_sc_decode_masks_reproduce_frozenset_results():
    rng = np.random.default_rng(97)
    n = 64
    digest = hashlib.sha256()
    for _ in range(10):
        info = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        good = index_mask(n, info)
        lam = rng.random((8, n)) * 3.0
        digest.update(sc_decode(lam, good).tobytes())
    assert digest.hexdigest() == SC_DECODE_DIGEST


def test_monte_carlo_mask_matches_index_array():
    # the information set as a mask or as an index array of the same
    # positions, in any order, gives the pinned error count
    w = BDMC.bec(0.4)
    pr = polarize(w, 7)
    order = np.argsort(pr.z, kind="stable")[:48]
    for info in (index_mask(128, order), order, sorted(order.tolist())):
        res = monte_carlo_block_error(w, 128, info, trials=400, seed=31)
        assert res.errors == MC_ERRORS_PINNED
    with pytest.raises(ValueError, match="out of range"):
        monte_carlo_block_error(w, 128, [-1, 3], trials=1, seed=0)
    short = index_mask(64, order[order < 64])
    with pytest.raises(ValueError, match=r"shape \(64,\), block length 128"):
        monte_carlo_block_error(w, 128, short, trials=1, seed=0)
    for n in (0, 96):
        with pytest.raises(ValueError, match=f"power of 2, got {n}$"):
            monte_carlo_block_error(w, n, [], trials=1, seed=0)


def test_monte_carlo_bench_op_count_and_peak():
    # the benchmark's op: BEC(0.4), n = 256, the 128 lowest-Z indices,
    # 2048 trials at seed 31337. Its traced peak was 13.8 MB when each
    # node decoded through temporaries and the uniforms overlapped the
    # raw words, 9.75 MB with an n-wide float uniforms array and a
    # separate array of decoded bits, 9.38 MB with a whole-batch
    # raw-word array and a float root array, 5.77 MB with an (n/2, batch)
    # float root array, and 4.33 MB with codes near the root.
    w = BDMC.bec(0.4)
    pr = polarize(w, 8)
    info = np.argsort(pr.z, kind="stable")[:128]
    tracemalloc.start()
    try:
        res = monte_carlo_block_error(w, 256, info, trials=2048, seed=31337)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.errors == 721
    assert peak <= 6.3 * 2 ** 20


def test_monte_carlo_bench_op_combines_codes_near_the_root(monkeypatch):
    # with float LLRs all the way down, the benchmark's op passed 1.44M
    # lanes through boxplus; with codes near the root fewer than half,
    # the tables' lanes included, and the same error count
    lanes = []

    def counted(a, b, out=None):
        lanes.append(a.size)
        return _boxplus(a, b, out=out)

    monkeypatch.setattr(qrelay.polar_core, "_boxplus", counted)
    w = BDMC.bec(0.4)
    info = np.argsort(polarize(w, 8).z, kind="stable")[:128]
    res = monte_carlo_block_error(w, 256, info, trials=2048, seed=31337)
    assert res.errors == 721
    assert sum(lanes) < 1441792 // 2


def test_monte_carlo_independent_of_batching(monkeypatch):
    # passes bounded by the trial count, then by the LLR count (5 trials)
    w = BDMC.bec(0.4)
    pr = polarize(w, 5)
    info = index_mask(32, np.argsort(pr.z)[:8])
    results = []
    for batch, llrs in ((7, 2 ** 21), (256, 2 ** 21), (2048, 5 * 32 + 31)):
        monkeypatch.setattr(qrelay.polar_core, "MC_BATCH", batch)
        monkeypatch.setattr(qrelay.polar_core, "MC_BATCH_LLRS", llrs)
        results.append(monte_carlo_block_error(w, 32, info, trials=300,
                                               seed=4))
    assert results[0] == results[1] == results[2]


def test_monte_carlo_llr_bound_keeps_large_blocks_small(monkeypatch):
    # n = 2^12: 512-trial passes of 2^21 LLRs, where 2048-trial passes
    # traced about 150 MB, and the same errors as those. The peak was
    # 39.2 MB with a whole-batch raw-word array and a float root array per
    # pass, 24.8 MB with an (n/2, batch) float root array, and 19.2 MB
    # with codes near the root.
    w = BDMC.bec(0.5)
    pr = polarize(w, 12)
    info = np.argsort(pr.z, kind="stable")[:1700]
    tracemalloc.start()
    try:
        res = monte_carlo_block_error(w, 4096, info, trials=2048, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 27 * 2 ** 20
    monkeypatch.setattr(qrelay.polar_core, "MC_BATCH_LLRS", 2048 * 4096)
    assert monte_carlo_block_error(w, 4096, info, trials=2048,
                                   seed=12) == res
    assert res.errors == 454


def test_monte_carlo_respects_union_bound():
    w = BDMC.bec(0.3)
    n = 256
    pr = polarize(w, 8)
    order = np.argsort(pr.z)
    cumulative = np.cumsum(pr.z[order])
    info = [int(i) for i in order[:int(np.searchsorted(cumulative, 0.01))]]
    budget = float(pr.z[info].sum())
    assert budget <= 0.01
    res = monte_carlo_block_error(w, n, info, trials=2000, seed=7)
    sigma = math.sqrt(budget * (1 - budget) / 2000)
    assert res.block_error_rate <= budget + 3 * sigma + 1e-9


def test_monte_carlo_bsc_end_to_end():
    # exercises table-tracked polarization plus decoding on a non-erasure
    # channel; exact tables keep general channels to shallow recursions
    w = BDMC.bsc(0.02)
    n = 16
    pr = polarize(w, 4)
    order = np.argsort(pr.z)
    cumulative = np.cumsum(pr.z[order])
    info = [int(i) for i in order[:int(np.searchsorted(cumulative, 0.01))]]
    assert len(info) >= 4
    res = monte_carlo_block_error(w, n, info, trials=2000, seed=17)
    assert res.block_error_rate <= 0.02



def test_trial_words_match_philox_raw():
    # rows equal np.random.Philox(key=seed) advanced by t << 64, including
    # seed 0, seed 2^64 - 1, trials past 2^63 and word counts that are not
    # a multiple of 4
    rng = np.random.default_rng(2024)
    top = 2 ** 64 - 1
    pairs = [(0, 0), (0, 2 ** 63), (top, 0), (top, top), (top, 2 ** 63 + 5)]
    pairs += [(int(s), int(t)) for s, t in
              rng.integers(0, 2 ** 64, size=(100, 2), dtype=np.uint64)]
    pairs += [(int(s), int(t)) for s, t in rng.integers(0, 1000, (100, 2))]
    for i, (seed, t) in enumerate(pairs):
        words = 1 + i % 11
        ref = np.random.Philox(key=seed)
        ref.advance(t << 64)
        assert np.array_equal(trial_words(seed, t, 1, words)[0],
                              ref.random_raw(words))


def test_trial_words_batch_rows_are_trial_streams():
    # 5000 trials x 4 blocks spans two evaluation slices of 2^14 counters
    first = 2 ** 63 - 2500
    batch = trial_words(9, first, 5000, 14)
    assert batch.shape == (5000, 14) and batch.dtype == np.uint64
    for j in range(5000):
        ref = np.random.Philox(key=9)
        ref.advance((first + j) << 64)
        assert np.array_equal(batch[j], ref.random_raw(14))
    assert trial_words(9, 0, 0, 3).shape == (0, 3)
    with pytest.raises(ValueError, match="seed"):
        trial_words(-1, 0, 1, 1)
    with pytest.raises(ValueError, match="seed"):
        trial_words(2 ** 64, 0, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        trial_words(0, 2 ** 64 - 1, 2, 1)


# the last channel's 2400 breakpoints split about 3.6% of the guide's
# buckets, so many lanes take the exact searchsorted path
MC_ORACLE_CHANNELS = (BDMC.bec(0.4), BDMC.bsc(0.08),
                      BDMC([[0.5, 0.3, 0.0, 0.2], [0.1, 0.3, 0.0, 0.6]]),
                      random_bdmc(9, np.random.default_rng(3)),
                      random_bdmc(1200, np.random.default_rng(4)))


def _words_at(u, rng):
    """Raw words whose uniform is u rounded down and up to a multiple of
    2^-53, at most 1 - 2^-53, with random low 11 bits."""
    top = np.concatenate([np.floor(u * 2.0 ** 53), np.ceil(u * 2.0 ** 53)])
    top = np.minimum(top, 2.0 ** 53 - 1).astype(np.uint64) << np.uint64(11)
    return top | rng.integers(0, 2 ** 11, size=top.shape, dtype=np.uint64)


def test_output_llr_sampler_matches_searchsorted():
    # at, just below and just above every cdf value, at 0 and at the
    # largest uniform, with any low 11 bits: the guide lookup gives the
    # index that searchsorted over the breakpoints gives, and that index
    # the LLR of the output that searchsorted(cdf[x], u, side="right")
    # samples. The words sit in a Monte Carlo batch of 7 trials, behind 3
    # other words, lane (r, c) at trial c's position rev(r).
    rng = np.random.default_rng(59)
    for w in MC_ORACLE_CHANNELS + (BDMC.bec(0.0), BDMC.bsc(1.0)):
        cdf = np.cumsum(w.w, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = w.w[0] / w.w[1]
        ratio[np.isnan(ratio)] = 1.0
        with np.errstate(divide="ignore"):
            llr = np.clip(np.log(ratio), -LLR_CLIP, LLR_CLIP)
        u = np.concatenate([cdf.ravel(), np.nextafter(cdf.ravel(), 0.0),
                            np.nextafter(cdf.ravel(), 2.0),
                            [0.0, 1.0 - 2.0 ** -53]])
        words = rng.permutation(_words_at(u[u < 1.0], rng))
        n = 1 << (-(-len(words) // 7) - 1).bit_length()
        raw = np.zeros((7, 3 + n), dtype=np.uint64)
        raw[:, 3:] = np.resize(words, (7, n))
        lanes = raw[:, 3:][:, bit_reversal(n)].T
        breaks, guide, table = _output_llr_sampler(w)
        for x in (np.zeros((n, 7), dtype=np.uint8),
                  np.ones((n, 7), dtype=np.uint8),
                  rng.integers(0, 2, size=(n, 7), dtype=np.uint8)):
            index = _guide_index(breaks, guide, raw[:, 3:], x,
                                 bit_reversal(n))
            assert index.shape == x.shape
            assert np.array_equal(index, table_index_oracle(breaks, lanes, x))
            u_lane = (lanes >> np.uint64(11)) * 2.0 ** -53
            y = np.where(x == 0, np.searchsorted(cdf[0], u_lane, "right"),
                         np.searchsorted(cdf[1], u_lane, "right"))
            y = np.minimum(y, w.output_alphabet_size - 1)
            assert np.array_equal(table[index], llr[y])


def test_mc_batch_matches_whole_batch_oracle(monkeypatch):
    # messages and codes built one slice of whole trials at a time equal
    # those of one whole-batch raw-word array, for m of 1, odd, even and
    # n (so output words start at every offset in a counter block),
    # counts that no slice divides and first trials past 0; slices of
    # whole trials take as many Philox passes as the counters need
    rng = np.random.default_rng(149)
    passes = []
    philox = qrelay.polar_core._philox_blocks

    def counted(key, c0, c1):
        passes.append(np.broadcast(c0, c1).size)  # counters in the pass
        return philox(key, c0, c1)

    monkeypatch.setattr(qrelay.polar_core, "_philox_blocks", counted)
    n = 32
    for c, w in enumerate(MC_ORACLE_CHANNELS):
        sampler = _output_llr_sampler(w)
        for m in (1, 7, 12, n):
            info = index_mask(n, rng.choice(n, size=m, replace=False))
            blocks = -(-(-(-m // 2) + n) // 4)
            for slice_counters, count, first in ((2 ** 14, 300, 0),
                                                 (50, 101, 7),
                                                 (37, 13, 2 ** 63 + 5)):
                monkeypatch.setattr(qrelay.polar_core, "_PHILOX_SLICE",
                                    slice_counters)
                want = mc_batch_oracle(info, sampler, 50 + c, first, count)
                del passes[:]
                got = _mc_batch(info, sampler, 50 + c, first, count)
                assert len(passes) == -(-count * blocks // slice_counters)
                assert max(passes) <= slice_counters + blocks
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
    # the benchmark's op: 2048 trials of 80 blocks in 10 passes
    monkeypatch.undo()
    w = BDMC.bec(0.4)
    info = index_mask(256, np.argsort(polarize(w, 8).z, kind="stable")[:128])
    sampler = _output_llr_sampler(w)
    for a, b in zip(_mc_batch(info, sampler, 31337, 0, 2048),
                    mc_batch_oracle(info, sampler, 31337, 0, 2048)):
        assert np.array_equal(a, b)


def test_monte_carlo_matches_per_trial_oracle(monkeypatch):
    # the batched streams reproduce one Generator per trial: message bits
    # from integers(0, 2), then uniforms, for |info| of 1, odd, even and n
    rng = np.random.default_rng(5)
    n, trials = 32, 60
    rates = set()
    for c, w in enumerate(MC_ORACLE_CHANNELS):
        for m in (1, 7, 12, n):
            info = rng.choice(n, size=m, replace=False)
            want = monte_carlo_oracle(w, n, info, trials, seed=40 + c)
            for batch in (1, 7, 2048):
                monkeypatch.setattr(qrelay.polar_core, "MC_BATCH", batch)
                assert monte_carlo_block_error(
                    w, n, info, trials, seed=40 + c) == want
            rates.add(want.block_error_rate)
    assert any(0.0 < r < 1.0 for r in rates)



# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

def test_polarization_rows_labels():
    # the labels are selected from z one slice at a time
    pr = polarize(BDMC.bec(0.5), 2)
    good = select_sets(pr, 0.4)
    index, z, labels = polarization_rows(pr, 0.4)
    assert list(index) == list(range(4))
    assert np.array_equal(z, pr.z)
    assert len(labels) == 4 and labels[:].dtype == "S4"
    assert labels[:].tolist() == [b"good" if g else b"bad" for g in good]
    assert set(labels[:].tolist()) == {b"good", b"bad"}
    assert labels[1:3].tolist() == labels[:].tolist()[1:3]
