"""Tests for generator matrices, combining, polarization, and SC decoding."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import qrelay.polar_core
from helpers_quantum import index_mask, random_bdmc
from helpers_rng import merge_oracle, monte_carlo_oracle
from qrelay.polar_core import (BDMC, GoodBadSets, PolarizationResult,
                               beta_from_partial_distances, bhattacharyya,
                               combine_bad, combine_good, error_bound,
                               generator_matrix, merge_equal_likelihood_outputs,
                               monte_carlo_block_error, polar_encode,
                               polarization_rows, polarize, sc_decode,
                               select_sets, symmetric_capacity, trial_words)

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


def partial_distance_oracle(bits):
    """Span enumeration over all subsets of the later rows."""
    n = bits.shape[0]
    d = []
    for i in range(n):
        later = [bits[j] for j in range(i + 1, n)]
        best = int(bits[i].sum())
        for r in range(1, len(later) + 1):
            for combo in itertools.combinations(later, r):
                v = bits[i].copy()
                for row in combo:
                    v = v ^ row
                best = min(best, int(v.sum()))
        d.append(best)
    return d


# ---------------------------------------------------------------------------
# Generator matrix and encoding
# ---------------------------------------------------------------------------

def test_generator_matrix_base_case():
    g = generator_matrix(1)
    assert np.array_equal(g.bits, np.array([[1, 1], [0, 1]], dtype=np.uint8))


def test_generator_matrix_level_two_matches_hand_expansion():
    assert np.array_equal(generator_matrix(2).bits, G4_EXPECTED)


def test_generator_matrix_rejects_bad_level():
    with pytest.raises(ValueError):
        generator_matrix(0)


@pytest.mark.parametrize("k", range(1, 9))
def test_generator_matrix_invertible(k):
    assert gf2_invertible(generator_matrix(k).bits)


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
        want = (g.bits @ msg) % 2
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
    fast = [polarize(w, k, method="tables").z for w, k in cases]
    monkeypatch.setattr(qrelay.polar_core, "merge_equal_likelihood_outputs",
                        merge_oracle)
    for (w, k), z in zip(cases, fast):
        assert np.array_equal(z, polarize(w, k, method="tables").z)


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


@pytest.mark.parametrize("k", range(1, 7))
def test_polarize_tables_match_closed_form(k):
    w = BDMC.bec(0.35)
    closed = polarize(w, k, method="bec")
    tables = polarize(w, k, method="tables")
    assert np.max(np.abs(closed.z - tables.z)) < 1e-12


def test_polarize_detects_relabeled_erasure_channel():
    # erasure symbol split into two outputs: still erasure-like, and the
    # closed form must agree with the full-table recursion
    w = BDMC([[0.7, 0.0, 0.2, 0.1], [0.0, 0.7, 0.2, 0.1]])
    auto = polarize(w, 4)
    tables = polarize(w, 4, method="tables")
    assert np.max(np.abs(auto.z - tables.z)) < 1e-12
    oracle = bec_recursion_oracle(0.3, 4)
    assert np.max(np.abs(auto.z - oracle)) < 1e-12


def test_polarize_one_level_ordering_random_channels():
    rng = np.random.default_rng(59)
    for _ in range(50):
        w = random_bdmc(int(rng.integers(2, 6)), rng)
        pr = polarize(w, 1)
        z = bhattacharyya(w)
        assert pr.z[0] >= z - 1e-12  # bad split first
        assert pr.z[1] <= z + 1e-12


def test_polarize_alphabet_cap():
    rng = np.random.default_rng(61)
    w = random_bdmc(8, rng)
    with pytest.raises(ValueError, match="alphabet"):
        polarize(w, 3, alphabet_cap=64, merge=False)


def test_polarize_method_validation():
    rng = np.random.default_rng(63)
    with pytest.raises(ValueError, match="erasure-like"):
        polarize(random_bdmc(3, rng), 2, method="bec")
    with pytest.raises(ValueError, match="method"):
        polarize(BDMC.bec(0.5), 2, method="fast")


def test_bdmc_factory_validation():
    with pytest.raises(ValueError):
        BDMC.bec(1.5)
    with pytest.raises(ValueError):
        BDMC.bsc(-0.2)


def test_polarization_result_validation():
    with pytest.raises(ValueError):
        PolarizationResult(n=2, z=np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        PolarizationResult(n=3, z=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Set selection
# ---------------------------------------------------------------------------

def test_select_sets_extremes():
    all_zero = PolarizationResult(n=8, z=np.zeros(8))
    sets = select_sets(all_zero, 0.4)
    assert sets.good.dtype == bool and sets.good.shape == (8,)
    assert sets.good.all() and not sets.bad.any()
    all_one = PolarizationResult(n=8, z=np.ones(8))
    sets = select_sets(all_one, 0.4)
    assert sets.bad.all() and not sets.good.any()


def test_select_sets_beta_validation():
    pr = PolarizationResult(n=2, z=np.zeros(2))
    for beta in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError, match="beta"):
            select_sets(pr, beta)


def test_select_sets_tie_goes_to_bad():
    threshold = 0.5 * 2.0 ** (-(2 ** 0.4))
    pr = PolarizationResult(n=2, z=np.array([threshold, threshold / 2]))
    sets = select_sets(pr, 0.4)
    assert sets.bad.tolist() == [True, False]
    assert sets.good.tolist() == [False, True]


def test_select_sets_bec_half_large_block():
    pr = polarize(BDMC.bec(0.5), 12)
    sets = select_sets(pr, 0.45)
    # independent recursion oracle
    z = bec_recursion_oracle(0.5, 12)
    threshold = (1.0 / 4096) * 2.0 ** (-(4096 ** 0.45))
    assert np.array_equal(sets.good, z < threshold)
    assert np.count_nonzero(sets.good) / 4096 <= 0.5  # capacity ceiling


def test_good_bad_sets_partition_enforced():
    with pytest.raises(ValueError):  # overlap
        GoodBadSets(good=index_mask(2, {0}), bad=index_mask(2, {0, 1}),
                    beta=0.4, threshold=0.1, n=2)
    with pytest.raises(ValueError):  # gap
        GoodBadSets(good=index_mask(2, {0}), bad=index_mask(2, ()),
                    beta=0.4, threshold=0.1, n=2)
    with pytest.raises(ValueError):  # wrong length
        GoodBadSets(good=index_mask(3, {0}), bad=index_mask(3, {1, 2}),
                    beta=0.4, threshold=0.1, n=2)
    with pytest.raises(ValueError):  # not bool masks
        GoodBadSets(good=np.array([1, 0]), bad=np.array([0, 1]),
                    beta=0.4, threshold=0.1, n=2)


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


def _sets_from_info(n, info):
    good = index_mask(n, info)
    return GoodBadSets(good=good, bad=~good, beta=0.25, threshold=0.0, n=n)


def test_sc_decode_noiseless_recovery():
    rng = np.random.default_rng(67)
    k = 6
    n = 2 ** k
    sets = _sets_from_info(n, range(n))
    for _ in range(20):
        msg = rng.integers(0, 2, size=n)
        decoded = sc_decode(_noiseless_likelihoods(polar_encode(msg, k)), sets)
        assert np.array_equal(decoded, msg)


def test_sc_decode_with_frozen_positions():
    rng = np.random.default_rng(71)
    k = 5
    n = 2 ** k
    info = sorted(rng.choice(n, size=12, replace=False))
    sets = _sets_from_info(n, info)
    msg = np.zeros(n, dtype=np.uint8)
    msg[info] = rng.integers(0, 2, size=len(info))
    decoded = sc_decode(_noiseless_likelihoods(polar_encode(msg, k)), sets)
    assert np.array_equal(decoded, msg)


def test_sc_decode_bec_without_erasures():
    rng = np.random.default_rng(73)
    k = 4
    n = 2 ** k
    sets = _sets_from_info(n, range(n))
    msg = rng.integers(0, 2, size=n)
    # erasure-free BEC observation carries full certainty
    decoded = sc_decode(_noiseless_likelihoods(polar_encode(msg, k)), sets)
    assert np.array_equal(decoded, msg)


def test_sc_decode_rate_zero_returns_frozen_vector():
    rng = np.random.default_rng(79)
    n = 16
    sets = _sets_from_info(n, [])
    frozen = rng.integers(0, 2, size=n)
    lam = np.ones(n)  # all erasures: no information at all
    decoded = sc_decode(lam, sets, frozen_values=frozen)
    assert np.array_equal(decoded, frozen)


def test_sc_decode_missing_frozen_values():
    sets = _sets_from_info(4, [0, 1])
    with pytest.raises(ValueError, match="missing frozen"):
        sc_decode(np.ones(4), sets, frozen_values={2: 0})


def test_sc_decode_rejects_nan_and_negative():
    sets = _sets_from_info(2, [0, 1])
    with pytest.raises(ValueError):
        sc_decode(np.array([np.nan, 1.0]), sets)
    with pytest.raises(ValueError):
        sc_decode(np.array([-1.0, 1.0]), sets)


def test_sc_decode_batched_matches_single():
    rng = np.random.default_rng(83)
    k = 4
    n = 2 ** k
    sets = _sets_from_info(n, range(0, n, 2))
    lam = rng.random((5, n)) * 4.0
    batch = sc_decode(lam, sets)
    for row in range(5):
        assert np.array_equal(batch[row], sc_decode(lam[row], sets))


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
# of every decoded block below, and the error count of the MC run.
SC_DECODE_DIGEST = (
    "b15a7a26eed9bea6f5a40ce72a37fd80fa49206962af7f20cb9e37eeb390961c")
MC_ERRORS_PINNED = 11


def test_sc_decode_masks_reproduce_frozenset_results():
    rng = np.random.default_rng(97)
    n = 64
    digest = hashlib.sha256()
    for _ in range(10):
        info = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        sets = _sets_from_info(n, info)
        frozen = rng.integers(0, 2, size=n)
        lam = rng.random((8, n)) * 3.0
        as_dict = {int(i): int(frozen[i]) for i in np.flatnonzero(sets.bad)}
        for values in (None, frozen, as_dict):
            digest.update(sc_decode(lam, sets, frozen_values=values).tobytes())
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
    with pytest.raises(IndexError):
        monte_carlo_block_error(w, 128, index_mask(64, order[:4]), trials=1,
                                seed=0)


def test_monte_carlo_independent_of_batching():
    w = BDMC.bec(0.4)
    pr = polarize(w, 5)
    info = index_mask(32, np.argsort(pr.z)[:8])
    small = monte_carlo_block_error(w, 32, info, trials=300, seed=4,
                                    batch_size=7)
    large = monte_carlo_block_error(w, 32, info, trials=300, seed=4,
                                    batch_size=256)
    assert small == large


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


MC_ORACLE_CHANNELS = (BDMC.bec(0.4), BDMC.bsc(0.08),
                      BDMC([[0.5, 0.3, 0.0, 0.2], [0.1, 0.3, 0.0, 0.6]]))


def test_monte_carlo_matches_per_trial_oracle():
    # the batched streams reproduce one Generator per trial: message bits
    # from integers(0, 2), then uniforms, for |info| of 1, odd, even and n
    rng = np.random.default_rng(5)
    n, trials = 32, 60
    rates = set()
    for c, w in enumerate(MC_ORACLE_CHANNELS):
        for m in (1, 7, 12, n):
            info = rng.choice(n, size=m, replace=False)
            frozen = rng.integers(0, 2, size=n) if m == 7 else None
            want = monte_carlo_oracle(w, n, info, trials, seed=40 + c,
                                      frozen_values=frozen)
            for batch_size in (1, 7, 2048):
                assert monte_carlo_block_error(
                    w, n, info, trials, seed=40 + c, frozen_values=frozen,
                    batch_size=batch_size) == want
            rates.add(want.block_error_rate)
    assert any(0.0 < r < 1.0 for r in rates)


# ---------------------------------------------------------------------------
# Partial distances
# ---------------------------------------------------------------------------

def test_partial_distances_level_one():
    report = beta_from_partial_distances(1)
    assert report.d == (1, 1)
    assert report.beta_hat == 0.0


@pytest.mark.parametrize("k", [2, 3])
def test_partial_distances_match_span_oracle(k):
    report = beta_from_partial_distances(k)
    assert list(report.d) == partial_distance_oracle(generator_matrix(k).bits)


def test_partial_distances_last_row_weight():
    for k in (1, 2, 3, 4):
        g = generator_matrix(k)
        report = beta_from_partial_distances(k)
        assert report.d[-1] == int(g.bits[-1].sum())
        assert all(d >= 1 for d in report.d)


def test_partial_distances_level_cap():
    with pytest.raises(ValueError, match="k <= 5"):
        beta_from_partial_distances(6)


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

def test_polarization_rows_labels():
    pr = polarize(BDMC.bec(0.5), 2)
    sets = select_sets(pr, 0.4)
    index, z, labels = polarization_rows(pr, sets)
    assert index.tolist() == list(range(4))
    assert np.array_equal(z, pr.z)
    assert labels.tolist() == ["good" if g else "bad" for g in sets.good]
    assert set(labels.tolist()) == {"good", "bad"}
