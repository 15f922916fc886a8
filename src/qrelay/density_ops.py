"""Finite-dimensional quantum states, channels, and information quantities.

States are dense complex density matrices, a channel is one complex
(r, out, in) array of its r Kraus operators, and every entropic quantity
is computed from exact eigendecompositions. All logarithms are base 2, so
entropies and coherent information are in bits. Coherent information
works from the Kraus operators alone: the output state is
sum_i K_i rho K_i^dag and the environment state is the complementary-
channel output [tr(K_i rho K_j^dag)]_ij, so no dilation of size
(out * env)^2 is ever formed.

Numerical conventions: structural validation (Hermiticity, unit trace,
positivity, Kraus completeness) uses an absolute tolerance of 1e-9;
eigenvalues in [-1e-9, 0) are clipped to zero before entropies and
anything more negative is rejected as an invalid state.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

VALIDATION_TOL = 1e-9


class DensityMatrix:
    """A dim x dim complex matrix that is Hermitian, PSD, and unit trace.

    Parameters
    ----------
    entries : array-like
        Square complex matrix. Validated on construction; eigenvalues may
        dip to -1e-9 below zero to absorb diagonalization jitter.
    """

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > VALIDATION_TOL:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(m)) - 1.0)
        if trace_dev > VALIDATION_TOL:
            raise ValueError(f"trace must be 1, got {complex(np.trace(m)):.12g}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -VALIDATION_TOL:
            raise ValueError(f"not PSD: eigenvalue {min_eig:.3e}")
        self.entries = m
        self.dim = int(m.shape[0])

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        """Rank-one state |psi><psi| from a (normalized on entry) vector."""
        v = np.asarray(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector has no associated state")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class KrausChannel:
    """A CPTP map given by Kraus operators {N_i}, held as one complex
    (r, out_dim, in_dim) array ``kraus_ops``.

    Finite entries and completeness (sum_i N_i^dag N_i = I on the input
    space, to 1e-9) are enforced at construction. A complex array is held
    as given, not copied, so it must not change afterwards; every
    constructor here passes a stack it has just built and does not touch
    it again.
    """

    def __init__(self, kraus_ops):
        k = np.asarray(kraus_ops, dtype=complex)
        if k.ndim != 3 or 0 in k.shape:
            raise ValueError(f"need a nonempty (r, out, in) Kraus array, got shape {k.shape}")
        if not np.isfinite(k).all():
            raise ValueError("Kraus operators must be finite")
        total = (k.conj().transpose(0, 2, 1) @ k).sum(axis=0)
        dev = float(np.max(np.abs(total - np.eye(k.shape[2]))))
        if dev > VALIDATION_TOL:
            raise ValueError(f"Kraus completeness violated: deviation {dev:.3e}")
        self.kraus_ops = k
        _, self.out_dim, self.in_dim = k.shape

    def __repr__(self):
        return (f"KrausChannel(in={self.in_dim}, out={self.out_dim}, "
                f"n_ops={len(self.kraus_ops)})")


# ---------------------------------------------------------------------------
# Channel constructors
# ---------------------------------------------------------------------------

def identity_channel(dim: int = 2) -> KrausChannel:
    return KrausChannel(np.eye(dim)[None])


# The Pauli matrices I, X, Y, Z.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _pauli_channel(q: float, keep: float, flip: float, paulis) -> KrausChannel:
    """Kraus set sqrt(keep) I, then sqrt(flip) _PAULIS[paulis] if q > 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ops = math.sqrt(keep) * _PAULIS[:1]
    if q > 0.0:
        ops = np.concatenate((ops, math.sqrt(flip) * _PAULIS[paulis]))
    return KrausChannel(ops)


def dephasing_channel(q: float) -> KrausChannel:
    """Qubit dephasing: rho -> (1-q) rho + q Z rho Z."""
    return _pauli_channel(q, 1.0 - q, q, slice(3, 4))


def bit_flip_channel(q: float) -> KrausChannel:
    """Qubit bit flip: rho -> (1-q) rho + q X rho X."""
    return _pauli_channel(q, 1.0 - q, q, slice(1, 2))


def depolarizing_channel(q: float) -> KrausChannel:
    """Qubit depolarizing: rho -> (1-q) rho + q I/2."""
    return _pauli_channel(q, 1.0 - 0.75 * q, q / 4.0, slice(1, 4))


def erasure_channel(epsilon: float, in_dim: int = 2) -> KrausChannel:
    """Erasure channel: keep the input with probability 1-epsilon, otherwise
    replace it with an orthogonal erasure flag.

    Output dimension is in_dim + 1 with the flag on the last basis vector.
    Kraus set: sqrt(1-eps) * embed, then sqrt(eps) |e><k| for each input
    basis vector k.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    ops = np.zeros((in_dim + 1, in_dim + 1, in_dim), dtype=complex)
    ops[0, :in_dim] = math.sqrt(1.0 - epsilon) * np.eye(in_dim)
    ops[1:, in_dim] = math.sqrt(epsilon) * np.eye(in_dim)
    return KrausChannel(ops)


def compose_channels(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Serial composition: apply ``first``, then ``second``."""
    if second.in_dim != first.out_dim:
        raise ValueError(
            f"cannot compose: first yields dim {first.out_dim}, "
            f"second expects dim {second.in_dim}")
    ops = second.kraus_ops[:, None] @ first.kraus_ops[None]  # b-major
    return KrausChannel(ops.reshape(-1, second.out_dim, first.in_dim))


def tensor_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Parallel composition a (x) b acting on in_a (x) in_b.

    Operator a_i (x) b_j sits at index i * len(b.kraus_ops) + j, the order
    of ``[np.kron(x, y) for x in a.kraus_ops for y in b.kraus_ops]``.
    """
    ka = a.kraus_ops[:, None, :, None, :, None]
    kb = b.kraus_ops[None, :, None, :, None, :]
    return KrausChannel((ka * kb).reshape(-1, a.out_dim * b.out_dim,
                                          a.in_dim * b.in_dim))


def bell_pair(dim: int = 2) -> DensityMatrix:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> on dim (x) dim."""
    return DensityMatrix.from_pure(np.eye(dim).ravel())


# ---------------------------------------------------------------------------
# Channel and state arithmetic
# ---------------------------------------------------------------------------

def trace_out(rho: DensityMatrix, subsystem_dims: Sequence[int],
              keep) -> DensityMatrix:
    """Partial trace keeping the listed subsystem indices.

    Parameters
    ----------
    rho : DensityMatrix
        State on the tensor product of ``subsystem_dims``.
    subsystem_dims : sequence of int
        Dimension of each tensor factor; the product must equal rho.dim.
    keep : iterable of int
        Indices of factors to keep, in their original order.
    """
    dims = [int(d) for d in subsystem_dims]
    if math.prod(dims) != rho.dim:
        raise ValueError(
            f"subsystem dims {dims} do not factor dimension {rho.dim}")
    keep_set = set(int(i) for i in keep)
    if not keep_set or not keep_set.issubset(range(len(dims))):
        raise ValueError(f"keep indices {sorted(keep_set)} invalid for {len(dims)} factors")
    t = rho.entries.reshape(dims + dims)
    n_sys = len(dims)
    for idx in sorted(set(range(len(dims))) - keep_set, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + n_sys)
        n_sys -= 1
    kept = math.prod(dims[i] for i in sorted(keep_set))
    return DensityMatrix(t.reshape(kept, kept))


def permute_systems(matrix: np.ndarray, dims: Sequence[int],
                    perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of a square matrix: new factor i is old factor perm[i]."""
    dims = [int(d) for d in dims]
    k = len(dims)
    t = matrix.reshape(dims + dims)
    axes = list(perm) + [p + k for p in perm]
    d = math.prod(dims)
    return t.transpose(axes).reshape(d, d)


def _entropy_bits(matrix: np.ndarray) -> float:
    """Von Neumann entropy of a raw Hermitian matrix, in bits."""
    eigs = np.linalg.eigvalsh(matrix)
    low = float(eigs.min()) if eigs.size else 0.0
    if low < -VALIDATION_TOL:
        raise ValueError(f"eigenvalue {low:.3e} below clipping tolerance")
    eigs = np.clip(eigs.real, 0.0, None)
    pos = eigs[eigs > 0.0]
    s = float(-np.sum(pos * np.log2(pos)))
    return 0.0 if -1e-12 < s < 0.0 else s


def coherent_information(channel: KrausChannel, rho: DensityMatrix) -> float:
    """I_coh = S(B) - S(E) from the Kraus operators {K_i}.

    With A_i = K_i rho, the output state is sum_i A_i K_i^dag and the
    environment state is the complementary-channel output, the Gram matrix
    G_ij = tr(K_i rho K_j^dag). Each is one matrix product.
    """
    if rho.dim != channel.in_dim:
        raise ValueError(
            f"state dim {rho.dim} does not match channel input {channel.in_dim}")
    k = channel.kraus_ops
    r, out_dim, in_dim = k.shape
    a = k @ rho.entries
    # [A_0 ... A_{r-1}] (out x r*in) times [K_0^dag; ...; K_{r-1}^dag]
    out_state = (a.transpose(1, 0, 2).reshape(out_dim, r * in_dim)
                 @ k.conj().transpose(0, 2, 1).reshape(r * in_dim, out_dim))
    env_state = a.reshape(r, -1) @ k.reshape(r, -1).conj().T
    return _entropy_bits(out_state) - _entropy_bits(env_state)
