"""Seeded random states, channels, and tables, index-mask builders, the
capacity row in the paper's literal set forms, the dense reference routes
(channel action, dilation, joint channel) that the Kraus-form runtime is
checked against, and the one-operator-at-a-time Kraus lists that the
stacked channel constructors are checked against, shared across test
modules."""

import math

import numpy as np

from qrelay.codeword_sets import build_partition, set_size
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
    return build_partition((index_mask(n, good_amp),
                            index_mask(n, good_phase)))


def capacity_row_oracle(part):
    """The capacity row with every rate in the paper's literal set form,
    each set counted from its own mask: the formulas ``rate_report``
    replaced, kept so its reductions are checked, not assumed."""
    n = part.n
    s_in, p1, p2, b = (set_size(m) for m in (part.s_in, part.p1, part.p2,
                                              part.b))
    bad_amp = set_size(~part.good_amp)
    good_phase = set_size(part.good_phase)
    c_12 = good_phase / n                       # source to relay
    c_1d = p2 / n                               # source to receiver
    c_2d = (good_phase - p2) / n                # relay to receiver, private
    return {"n": n, "size_s_in": s_in, "size_p1": p1, "size_p2": p2,
            "size_b": b,
            "p_sym_degraded": s_in / n,
            "p_sym_nondegraded": (s_in - b) / n,
            "r_sym": (s_in + b - bad_amp + p2) / n,
            "c_bob": 1.0 - p1 / n,
            "c_eve_total": (p1 + p2) / n,
            "c_eve_p1": p1 / n,
            "eve_section_e1e2": set_size(part.p2 | part.s_in) / n,
            "eve_section_e2d": s_in / n,
            "relay_private_capacity": c_2d,
            "relay_capacity_min": min(c_12, c_1d + c_2d)}


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


# ---------------------------------------------------------------------------
# Kraus lists built one operator at a time
# ---------------------------------------------------------------------------

def erasure_kraus_oracle(epsilon, in_dim):
    """sqrt(1-eps) times the embedding of the input, then sqrt(eps) |e><k|
    for each input basis vector k, each operator filled on its own."""
    out_dim = in_dim + 1
    embed = np.zeros((out_dim, in_dim), dtype=complex)
    embed[:in_dim, :] = np.eye(in_dim)
    ops = [math.sqrt(1.0 - epsilon) * embed]
    for k in range(in_dim):
        flag = np.zeros((out_dim, in_dim), dtype=complex)
        flag[in_dim, k] = math.sqrt(epsilon)
        ops.append(flag)
    return ops


def _embed(out_dim, target_dim):
    e = np.zeros((target_dim, out_dim), dtype=complex)
    e[:out_dim, :] = np.eye(out_dim)
    return e


def switch_kraus_oracle(p, main):
    """The switch channel's Kraus list: each operator of ``main`` and of the
    50% erasure channel embedded into a common output space, weighted by
    sqrt(p) or sqrt(1-p), then tensored with its flag vector by np.kron."""
    erasure_ops = erasure_kraus_oracle(0.5, main.in_dim)
    branch_dim = max(main.out_dim, main.in_dim + 1)
    flag0 = np.array([[1.0], [0.0]], dtype=complex)
    flag1 = np.array([[0.0], [1.0]], dtype=complex)
    embed_main = _embed(main.out_dim, branch_dim)
    embed_er = _embed(main.in_dim + 1, branch_dim)
    ops = [np.kron(math.sqrt(p) * (embed_main @ k), flag0)
           for k in main.kraus_ops]
    ops += [np.kron(math.sqrt(1.0 - p) * (embed_er @ k), flag1)
            for k in erasure_ops]
    return ops


def compose_kraus_oracle(first, second):
    """Kraus list of ``first`` then ``second``, b-major."""
    return [b @ a for b in second.kraus_ops for a in first.kraus_ops]


def bell_vector_oracle(dim):
    """The unnormalized vector sum_i |ii>, one entry at a time."""
    v = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        v[i * dim + i] = 1.0
    return v
