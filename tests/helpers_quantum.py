"""Seeded random states, channels, and tables, index-mask builders, and
the dense reference routes (channel action, dilation, joint channel) that
the Kraus-form runtime is checked against, shared across test modules."""

import numpy as np

from qrelay.codeword_sets import DualPolarization, build_partition
from qrelay.density_ops import (DensityMatrix, KrausChannel,
                                coherent_information, tensor_channels)
from qrelay.polar_core import BDMC
from qrelay.superactivation import (branch_terms, build_switch_channel,
                                    joint_coherent_info)


def index_mask(n, indices):
    """Bool mask of length n with the given indices set."""
    mask = np.zeros(n, dtype=bool)
    mask[list(indices)] = True
    return mask


def make_partition(n, good_amp, good_phase):
    """Partition of range(n) from two iterables of good indices."""
    return build_partition(DualPolarization(
        n=n, good_amp=index_mask(n, good_amp),
        good_phase=index_mask(n, good_phase)))


def random_density_matrix(dim, rng, rank=None):
    """Random state of the given rank (full rank by default)."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def random_kraus_channel(in_dim, out_dim, n_ops, rng):
    """Haar-style random channel: QR of a Gaussian block gives an isometry
    whose out_dim-row slices are the Kraus operators."""
    g = (rng.normal(size=(out_dim * n_ops, in_dim))
         + 1j * rng.normal(size=(out_dim * n_ops, in_dim)))
    q, _ = np.linalg.qr(g)
    ops = [q[i * out_dim:(i + 1) * out_dim, :] for i in range(n_ops)]
    return KrausChannel(ops)


def random_bdmc(m, rng):
    table = rng.random((2, m)) + 1e-3
    table /= table.sum(axis=1, keepdims=True)
    return BDMC(table)


def apply_kraus(channel, rho):
    """The channel's output state sum_i K_i rho K_i^dag, validated."""
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dim {rho.dim} does not match channel input {channel.in_dim}")
    return DensityMatrix(sum(k @ rho.entries @ k.conj().T
                             for k in channel.kraus_ops))


def isometric_extension(kraus_ops):
    """Dilation U = sum_e K_e (x) |e>_E, stacked by hand: row b * env + e
    holds output b with environment state |e>."""
    out_dim = kraus_ops[0].shape[0]
    env = len(kraus_ops)
    u = np.zeros((out_dim * env, kraus_ops[0].shape[1]), dtype=complex)
    for e, op in enumerate(kraus_ops):
        for b in range(out_dim):
            u[b * env + e, :] = op[b, :]
    return u


def coherent_info_oracle(kraus_ops, rho):
    """Independent dilation-based computation: entropies of the two
    marginals of the dense (out * env)^2 state U rho U^dag."""
    out_dim = kraus_ops[0].shape[0]
    env = len(kraus_ops)
    u = isometric_extension(kraus_ops)
    joint = u @ rho @ u.conj().T
    t = joint.reshape(out_dim, env, out_dim, env)
    s_out = np.linalg.eigvalsh(np.trace(t, axis1=1, axis2=3))
    s_env = np.linalg.eigvalsh(np.trace(t, axis1=0, axis2=2))

    def ent(e):
        e = e[e > 1e-15]
        return float(-np.sum(e * np.log2(e)))

    return ent(s_out) - ent(s_env)


def joint_coherent_info_oracle(sc, rho):
    """Direct joint coherent information of two switch copies: the
    assembled r^2-operator channel sc (x) sc evaluated as one channel, the
    runtime route before the four-branch decomposition replaced it."""
    return coherent_information(tensor_channels(sc.channel, sc.channel), rho)


def joint_report(p, main, state):
    """The runtime report at one p: branch terms, then their weighted sum."""
    return joint_coherent_info(build_switch_channel(p, main),
                               branch_terms(main, state))
