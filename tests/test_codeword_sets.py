"""Tests for the dual-polarization index-set algebra and rate fractions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_quantum import capacity_row_oracle, index_mask, make_partition
from qrelay.codeword_sets import (IndexSetPartition, build_partition,
                                  class_sizes, from_polarizations,
                                  partition_rows, pauli_induced_channels,
                                  rate_report, set_size)
from qrelay.polar_core import BDMC, polarize


def subset_pair(n=16):
    indices = st.sets(st.integers(min_value=0, max_value=n - 1))
    return st.tuples(st.just(n), indices, indices)


def indices(mask):
    return set(np.flatnonzero(mask).tolist())


def partition_oracle(n, good_amp, good_phase):
    """Frozenset set algebra for the four classes."""
    amp, phase, full = frozenset(good_amp), frozenset(good_phase), \
        frozenset(range(n))
    return {"s_in": amp & phase, "p1": amp - phase, "p2": phase - amp,
            "b": full - (amp | phase)}


# ---------------------------------------------------------------------------
# Partition construction
# ---------------------------------------------------------------------------

def test_partition_all_good():
    part = make_partition(8, range(8), range(8))
    assert indices(part.s_in) == set(range(8))
    assert not (part.p1.any() or part.p2.any() or part.b.any())


def test_partition_disjoint_goods():
    part = make_partition(8, {0, 1, 2}, {5, 6})
    assert not part.s_in.any()
    assert indices(part.p1) == {0, 1, 2}
    assert indices(part.p2) == {5, 6}
    assert indices(part.b) == {3, 4, 7}


def test_build_partition_matches_frozenset_oracle():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(1, 300))
        amp = np.flatnonzero(rng.random(n) < rng.random()).tolist()
        phase = np.flatnonzero(rng.random(n) < rng.random()).tolist()
        part = make_partition(n, amp, phase)
        for name, want in partition_oracle(n, amp, phase).items():
            got = getattr(part, name)
            assert got.dtype == bool and got.shape == (n,)
            assert indices(got) == want
            assert set_size(got) == len(want)


@settings(max_examples=300)
@given(subset_pair())
def test_partition_invariants_random(args):
    n, good_amp, good_phase = args
    part = make_partition(n, good_amp, good_phase)
    classes = [part.s_in, part.p1, part.p2, part.b]
    assert sum(set_size(c) for c in classes) == n
    assert np.logical_or.reduce(classes).all()
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            assert not (a & b).any()
    # reconstruction of the originating splits
    assert indices(part.good_amp) == good_amp
    assert indices(part.good_phase) == good_phase
    assert np.array_equal(part.good_phase, part.p2 | part.s_in)
    assert not (part.p2 & part.s_in).any()


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
@settings(max_examples=200)
@given(subset_pair())
def test_rate_identities_random(args):
    n, good_amp, good_phase = args
    part = make_partition(n, good_amp, good_phase)
    row = rate_report(part)
    # inclusion-exclusion form agrees exactly
    direct = row["size_s_in"] - row["size_b"]
    assert direct == len(good_amp) + len(good_phase) - n
    assert row["p_sym_nondegraded"] == direct / n
    # the four-term rate and the relay-hop difference form always
    # collapse to the private fraction
    assert row["r_sym"] == row["relay_private_capacity"] == len(
        set(good_amp) & set(good_phase)) / n
    assert row == capacity_row_oracle(part)


@settings(max_examples=200)
@given(subset_pair(), st.sets(st.integers(min_value=0, max_value=15)))
def test_monotonicity_in_good_amp(args, extra):
    n, good_amp, good_phase = args
    small = make_partition(n, good_amp, good_phase)
    large = make_partition(n, set(good_amp) | set(extra), good_phase)
    assert not (small.s_in & ~large.s_in).any()


def test_partition_validation():
    # the classes are derived from the two good masks, so overlapping or
    # gapped classes cannot be built; only the masks themselves are checked
    with pytest.raises(ValueError):  # wrong length
        IndexSetPartition(n=4, good_amp=index_mask(8, {7}),
                          good_phase=index_mask(4, ()))
    with pytest.raises(ValueError):  # the pair disagrees on n
        build_partition((index_mask(4, {1}), index_mask(3, ())))
    with pytest.raises(ValueError):  # not a bool mask
        IndexSetPartition(n=2, good_amp=np.array([1, 0]),
                          good_phase=index_mask(2, ()))
    with pytest.raises(ValueError):
        IndexSetPartition(n=4, good_amp=frozenset({1}),
                          good_phase=index_mask(4, ()))
    with pytest.raises(ValueError):  # empty block
        build_partition((index_mask(0, ()), index_mask(0, ())))


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

def private_rates(part):
    row = rate_report(part)
    return row["p_sym_degraded"], row["p_sym_nondegraded"]


def test_p_sym_degraded_extremes():
    assert private_rates(make_partition(8, range(8), range(8)))[0] == 1.0
    assert private_rates(make_partition(8, (), range(8)))[0] == 0.0


def test_p_sym_nondegraded_cases():
    # empty b: equals the degraded rate
    assert private_rates(make_partition(8, range(4), range(4, 8))) == (0.0, 0.0)
    assert private_rates(make_partition(8, range(8), range(6))) == (0.75, 0.75)
    # all-useless block reports -1
    with pytest.warns(UserWarning, match="p_sym_nondegraded is negative"):
        assert private_rates(make_partition(8, (), ()))[1] == -1.0


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
def test_dual_bec_partition_matches_recursion_oracle():
    def bec_z(eps, k):
        z = [eps]
        for _ in range(k):
            z = [v for val in z for v in (2 * val - val * val, val * val)]
        return np.array(z)

    k, beta, n = 10, 0.45, 1024
    pr_amp = polarize(BDMC.bec(0.3), k)
    pr_phase = polarize(BDMC.bec(0.4), k)
    part = build_partition(from_polarizations(pr_amp, pr_phase, beta))
    threshold = (1.0 / n) * 2.0 ** (-(n ** beta))
    good_amp = set(np.flatnonzero(bec_z(0.3, k) < threshold))
    good_phase = set(np.flatnonzero(bec_z(0.4, k) < threshold))
    assert rate_report(part)["p_sym_degraded"] == len(good_amp & good_phase) / n
    assert indices(part.s_in) == good_amp & good_phase


def test_rate_report_bounds():
    part = make_partition(16, range(10), range(4, 16))
    row = rate_report(part)
    assert list(row)[:5] == list(class_sizes(part))
    for value in list(row.values())[5:]:
        assert type(value) is float and -1.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# Eavesdropper capacities
# ---------------------------------------------------------------------------

def test_eve_capacity_no_partial_sets():
    row = rate_report(make_partition(8, range(8), range(8)))
    assert row["c_eve_total"] == 0.0
    assert row["c_bob"] == 1.0


def test_eve_capacity_all_p1():
    row = rate_report(make_partition(8, range(8), ()))
    assert row["c_eve_p1"] == 1.0
    assert row["c_bob"] == 0.0


def test_eve_capacity_forms_agree_iff_b_empty():
    # c_bob = 1 - |p1|/n exceeds the direct form |s_in u p2|/n by |b|/n
    for part in (make_partition(8, range(6), range(4, 8)),    # b empty
                 make_partition(8, range(4), range(2, 6))):   # |b| = 2
        direct = set_size(part.s_in | part.p2) / 8
        assert rate_report(part)["c_bob"] - direct == set_size(part.b) / 8


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
def test_eve_capacity_exhaustive_small_blocks():
    # every good-set pair on small blocks, checked against bitmask popcounts
    for n in (1, 2, 3, 4, 6):
        for amp_mask in range(2 ** n):
            for phase_mask in range(2 ** n):
                amp = {i for i in range(n) if amp_mask >> i & 1}
                phase = {i for i in range(n) if phase_mask >> i & 1}
                part = make_partition(n, amp, phase)
                inter = bin(amp_mask & phase_mask).count("1")
                union = bin(amp_mask | phase_mask).count("1")
                assert set_size(part.s_in) == inter
                assert set_size(part.b) == n - union
                row = rate_report(part)
                assert row["eve_section_e2d"] == inter / n
                assert row["eve_section_e1e2"] == bin(phase_mask).count("1") / n


# ---------------------------------------------------------------------------
# Dual polarization, induced channels and CSV rows
# ---------------------------------------------------------------------------

def test_from_polarizations_requires_matching_blocks():
    from qrelay.polar_core import PolarizationResult
    pr_a = PolarizationResult(n=2, z=np.zeros(2))
    pr_b = PolarizationResult(n=4, z=np.zeros(4))
    with pytest.raises(ValueError, match="disagree"):
        from_polarizations(pr_a, pr_b, 0.3)


def test_pauli_induced_channels():
    amp, phase = pauli_induced_channels(0.05, 0.02, 0.1)
    assert np.allclose(amp.w, BDMC.bsc(0.07).w)
    assert np.allclose(phase.w, BDMC.bsc(0.12).w)
    with pytest.raises(ValueError):
        pauli_induced_channels(0.5, 0.5, 0.5)


def test_partition_rows_cover_block():
    part = make_partition(6, {0, 1}, {1, 2})
    index, labels = partition_rows(part)
    assert list(index) == list(range(6))
    # the labels are taken from the two masks one slice at a time
    assert len(labels) == 6 and labels[:].dtype == "S4"
    assert labels[:].tolist() == [b"P1", b"S_in", b"P2", b"B", b"B", b"B"]
    assert labels[1:4].tolist() == [b"S_in", b"P2", b"B"]
