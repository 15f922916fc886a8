"""Tests for density matrices, Kraus channels, and entropic quantities,
and for the dense reference routes they are checked against."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from helpers_polar import generator_matrix
from helpers_quantum import (apply_kraus, bell_vector_oracle,
                             coherent_info_oracle, compose_kraus_oracle,
                             erasure_kraus_oracle, isometric_extension,
                             random_density_matrix, random_kraus_channel)
from qrelay.density_ops import (DensityMatrix, KrausChannel, _entropy_bits,
                                bell_pair, bit_flip_channel,
                                coherent_information, compose_channels,
                                dephasing_channel, depolarizing_channel,
                                erasure_channel, identity_channel,
                                tensor_channels, trace_out)

# Frozen oracle value, computed by direct eigendecomposition.
ENTROPY_QUARTER_THREE_QUARTER = 0.8112781244591328

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def maximally_mixed(dim):
    return DensityMatrix(np.eye(dim) / dim)


# ---------------------------------------------------------------------------
# Type validation
# ---------------------------------------------------------------------------

def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix([[0.5, 0.5], [0.0, 0.5]])


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix([[1.5, 0.0], [0.0, -0.5]])


def test_kraus_rejects_incomplete_set():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel([0.5 * np.eye(2)])


def test_kraus_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="shape"):
        KrausChannel([np.eye(2), np.eye(3)])


def test_constructors_reject_non_finite_and_malformed_input():
    # NaN fails every comparison, so the completeness and state checks
    # alone pass a NaN entry, and an inf one that turns them into NaN
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            KrausChannel([[[bad, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix([[bad, 0.0], [0.0, 1.0]])
    # ragged, empty, and a single 2-D operator without its Kraus axis
    for ops in ([np.eye(2), np.eye(2)[:1]], [], np.eye(2)):
        with pytest.raises(ValueError):
            KrausChannel(ops)


# ---------------------------------------------------------------------------
# apply_kraus, the reference channel action
# ---------------------------------------------------------------------------

def test_apply_kraus_identity_returns_state():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(3, rng)
    out = apply_kraus(identity_channel(3), rho)
    assert np.allclose(out.entries, rho.entries, atol=1e-12)


def test_apply_kraus_complete_dephasing_kills_off_diagonals():
    projectors = KrausChannel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    out = apply_kraus(projectors, DensityMatrix.from_pure(PLUS))
    assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-12)


def test_apply_kraus_erasure_half_on_zero():
    out = apply_kraus(erasure_channel(0.5),
                      DensityMatrix(np.diag([1.0, 0.0])))
    assert np.allclose(out.entries, np.diag([0.5, 0.0, 0.5]), atol=1e-12)


def test_apply_kraus_dimension_mismatch():
    with pytest.raises(ValueError, match="dim"):
        apply_kraus(identity_channel(2), maximally_mixed(3))


def test_apply_kraus_outputs_valid_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ch = random_kraus_channel(3, 3, 2, rng)
        out = apply_kraus(ch, random_density_matrix(3, rng))
        assert abs(np.trace(out.entries) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(out.entries)[0] > -1e-9


# ---------------------------------------------------------------------------
# Isometric extension, the dilation of the coherent information oracle
# ---------------------------------------------------------------------------

def test_isometric_extension_identity_channel():
    u = isometric_extension(identity_channel(2).kraus_ops)
    assert np.allclose(u, np.eye(2), atol=1e-15)  # a one-state environment


def test_isometric_extension_dephasing():
    u = isometric_extension(dephasing_channel(0.3).kraus_ops)
    assert u.shape == (4, 2)
    gram = u.conj().T @ u  # direct matrix multiply oracle
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_isometric_consistency_random_channels():
    rng = np.random.default_rng(23)
    for _ in range(100):
        in_dim = int(rng.integers(2, 4))
        out_dim = int(rng.integers(2, 4))
        ch = random_kraus_channel(in_dim, out_dim, 2, rng)
        rho = random_density_matrix(in_dim, rng)
        u = isometric_extension(ch.kraus_ops)
        joint = u @ rho.entries @ u.conj().T
        via_u = trace_out(DensityMatrix(joint), [out_dim, 2], keep={0})
        via_kraus = apply_kraus(ch, rho)
        assert np.max(np.abs(via_u.entries - via_kraus.entries)) < 1e-9


# ---------------------------------------------------------------------------
# Partial trace
# ---------------------------------------------------------------------------

def _partial_trace_oracle(m, d_a, d_b, keep_first):
    """Direct index-summation partial trace, independent of the library."""
    if keep_first:
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                out[i, j] = sum(m[i * d_b + y, j * d_b + y] for y in range(d_b))
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                out[i, j] = sum(m[x * d_b + i, x * d_b + j] for x in range(d_a))
    return out


def test_trace_out_product_state():
    rng = np.random.default_rng(3)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(3, rng)
    joint = DensityMatrix(np.kron(rho_a.entries, rho_b.entries))
    kept = trace_out(joint, [2, 3], keep={0})
    assert np.allclose(kept.entries, rho_a.entries, atol=1e-12)
    kept_b = trace_out(joint, [2, 3], keep={1})
    assert np.allclose(kept_b.entries, rho_b.entries, atol=1e-12)


def test_trace_out_bell_marginals():
    bell = bell_pair(2)
    for side in (0, 1):
        marg = trace_out(bell, [2, 2], keep={side})
        assert np.allclose(marg.entries, np.eye(2) / 2, atol=1e-12)


def test_trace_out_matches_summation_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        for keep_first in (True, False):
            got = trace_out(rho, [2, 2], keep={0 if keep_first else 1})
            want = _partial_trace_oracle(rho.entries, 2, 2, keep_first)
            assert np.max(np.abs(got.entries - want)) < 1e-12
            assert abs(np.trace(got.entries) - 1.0) < 1e-12


def test_trace_out_rejects_bad_factorization():
    with pytest.raises(ValueError, match="factor"):
        trace_out(maximally_mixed(6), [4, 2], keep={0})


# ---------------------------------------------------------------------------
# Entropy and coherent information
# ---------------------------------------------------------------------------

def test_entropy_pure_state_is_zero():
    assert _entropy_bits(DensityMatrix.from_pure(PLUS).entries) == 0.0


def test_entropy_maximally_mixed_qubit():
    assert abs(_entropy_bits(np.eye(2) / 2) - 1.0) < 1e-12


def test_entropy_quarter_three_quarter():
    rho = np.diag([0.25, 0.75])
    assert abs(_entropy_bits(rho) - ENTROPY_QUARTER_THREE_QUARTER) < 1e-12


def test_entropy_bounds_random_states():
    rng = np.random.default_rng(13)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        s = _entropy_bits(random_density_matrix(dim, rng).entries)
        assert -1e-12 <= s <= math.log2(dim) + 1e-12


def test_coherent_information_identity_on_mixed():
    val = coherent_information(identity_channel(2),
                               maximally_mixed(2))
    assert abs(val - 1.0) < 1e-12


def test_coherent_information_half_erasure_is_zero():
    val = coherent_information(erasure_channel(0.5),
                               maximally_mixed(2))
    assert abs(val) < 1e-9


def test_coherent_information_degenerate_dephasing():
    val = coherent_information(dephasing_channel(0.0),
                               maximally_mixed(2))
    assert abs(val - 1.0) < 1e-12


def test_coherent_information_identity_equals_entropy():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = random_density_matrix(3, rng)
        got = coherent_information(identity_channel(3), rho)
        assert abs(got - _entropy_bits(rho.entries)) < 1e-10


def test_coherent_information_matches_dilation_oracle():
    rng = np.random.default_rng(20240607)
    cases = rank_deficient = more_ops_than_out = 0
    while cases < 50:
        in_dim = int(rng.integers(1, 5))
        out_dim = int(rng.integers(1, 5))
        n_ops = int(rng.integers(1, 7))
        if out_dim * n_ops < in_dim:  # no channel has this Kraus shape
            continue
        rank = int(rng.integers(1, in_dim + 1))
        ch = random_kraus_channel(in_dim, out_dim, n_ops, rng)
        rho = random_density_matrix(in_dim, rng, rank=rank)
        got = coherent_information(ch, rho)
        want = coherent_info_oracle(ch.kraus_ops, rho.entries)
        assert abs(got - want) < 1e-10, (in_dim, out_dim, n_ops, rank)
        cases += 1
        rank_deficient += rank < in_dim
        more_ops_than_out += n_ops > out_dim
    assert rank_deficient >= 10 and more_ops_than_out >= 10


# ---------------------------------------------------------------------------
# Channel constructors and serialization
# ---------------------------------------------------------------------------

def test_compose_channels_dims():
    composed = compose_channels(bit_flip_channel(0.1), dephasing_channel(0.2))
    assert composed.in_dim == 2 and composed.out_dim == 2
    with pytest.raises(ValueError, match="compose"):
        compose_channels(erasure_channel(0.5), dephasing_channel(0.2))


def test_tensor_channels_dims():
    joint = tensor_channels(erasure_channel(0.5), identity_channel(2))
    assert joint.in_dim == 4 and joint.out_dim == 6


def test_stacked_constructors_match_operator_lists():
    for epsilon in (0.0, 0.3, 1.0):
        for in_dim in (1, 2, 4):
            np.testing.assert_array_equal(
                erasure_channel(epsilon, in_dim).kraus_ops,
                erasure_kraus_oracle(epsilon, in_dim))
    rng = np.random.default_rng(13)
    pairs = [(bit_flip_channel(0.1), depolarizing_channel(0.3)),
             (random_kraus_channel(2, 3, 3, rng),
              random_kraus_channel(3, 4, 2, rng)),
             (erasure_channel(0.5), random_kraus_channel(3, 2, 5, rng))]
    for first, second in pairs:
        np.testing.assert_array_equal(
            compose_channels(first, second).kraus_ops,
            compose_kraus_oracle(first, second))
    for dim in (1, 2, 3, 4):
        np.testing.assert_array_equal(
            bell_pair(dim).entries,
            DensityMatrix.from_pure(bell_vector_oracle(dim)).entries)


def test_tensor_channels_matches_kron_list():
    rng = np.random.default_rng(5)
    pairs = [(erasure_channel(0.5), depolarizing_channel(0.3)),
             (random_kraus_channel(2, 3, 3, rng),
              random_kraus_channel(3, 2, 4, rng)),
             (random_kraus_channel(4, 1, 5, rng), identity_channel(3))]
    for a, b in pairs:
        want = [np.kron(x, y) for x in a.kraus_ops for y in b.kraus_ops]
        np.testing.assert_array_equal(tensor_channels(a, b).kraus_ops, want)


def test_tensor_channels_holds_the_stack_it_builds():
    # the two-qubit sweep main joined with itself: 900 operators of
    # 36 x 16, an 8.3 MB stack that KrausChannel keeps without a copy
    main = compose_channels(erasure_channel(0.1, in_dim=4),
                            erasure_channel(0.2, in_dim=5))
    tracemalloc.start()
    try:
        joint = tensor_channels(main, main)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stack, its conjugate for the completeness check and the (900,
    # 16, 16) products (0.44 stacks); a copy of the stack would add one
    assert joint.kraus_ops.shape == (900, 36, 16)
    assert peak <= 2.5 * joint.kraus_ops.nbytes


def test_depolarizing_channel_action():
    rng = np.random.default_rng(41)
    rho = random_density_matrix(2, rng)
    fully = apply_kraus(depolarizing_channel(1.0), rho)
    assert np.allclose(fully.entries, np.eye(2) / 2, atol=1e-12)
    partial = apply_kraus(depolarizing_channel(0.4), rho)
    want = 0.6 * rho.entries + 0.4 * np.eye(2) / 2
    assert np.allclose(partial.entries, want, atol=1e-12)


def test_channel_parameter_validation():
    for builder in (dephasing_channel, bit_flip_channel, depolarizing_channel):
        with pytest.raises(ValueError):
            builder(1.5)
    with pytest.raises(ValueError):
        erasure_channel(-0.1)



# ---------------------------------------------------------------------------
# Phase order of the dual polar code
# ---------------------------------------------------------------------------

def _polar_unitary(k):
    """The permutation unitary |u> -> |G u mod 2> of generator_matrix(k),
    qubit 0 the most significant bit of a basis index."""
    g = generator_matrix(k).astype(np.int64)
    n = len(g)
    weights = 1 << np.arange(n - 1, -1, -1)
    bits = (np.arange(2 ** n)[:, None] & weights) != 0
    u = np.zeros((2 ** n, 2 ** n))
    u[bits @ g.T % 2 @ weights, np.arange(2 ** n)] = 1.0
    return u


@pytest.mark.parametrize("epsilon", [0.2, 0.3, 0.45])
def test_message_qubit_phase_sees_the_reversed_erasure_channel(epsilon):
    # the n = 4 encoder, then four erasures. Message qubit i is maximally
    # entangled with a reference, the qubits decoded before it are in |0>
    # (known amplitude) and those after it in |+> (known phase). Its
    # amplitude sees synthetic channel i and its phase channel n - 1 - i,
    # as G^T = J G J with J the reversal, so on the BEC the coherent
    # information is 1 - z_i - z_(n-1-i), not the same-index 1 - 2 z_i
    n = 4
    erasures = functools.reduce(tensor_channels, [erasure_channel(epsilon)] * n)
    channel = compose_channels(KrausChannel(_polar_unitary(2)[None]), erasures)
    bad, good = 2 * epsilon - epsilon ** 2, epsilon ** 2   # z at level 1
    z = [2 * bad - bad ** 2, bad ** 2, 2 * good - good ** 2, good ** 2]
    ket = np.eye(2)
    for i in range(n):
        psi = sum(functools.reduce(np.kron, [ket[b], *[ket[0]] * i, ket[b],
                                             *[PLUS] * (n - 1 - i)])
                  for b in (0, 1))
        rho = trace_out(DensityMatrix.from_pure(psi), [2] * (n + 1),
                        range(1, n + 1))
        assert coherent_information(channel, rho) == pytest.approx(
            1.0 - z[i] - z[n - 1 - i], rel=0.0, abs=1e-12)
