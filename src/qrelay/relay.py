"""Relay channel composition, capacity formulas, and encoder simulation.

The relay topology has three hops: sender to relay (e1e2), relay to
receiver (e2d), and the direct sender-to-receiver path (e1d). The relay
encoder adds the amplitude layer to a phase-encoded block only with
success probability p_e2; on failure the receiver cannot decode the block.
Each trial draws from its own counter-based stream keyed by (seed, trial
index), so a simulation depends only on its seed and trial count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .codeword_sets import IndexSetPartition, set_size
from .density_ops import (KrausChannel, compose_channels, cq_from_kraus,
                          symmetric_cq_capacity)
from .polar_core import BDMC, symmetric_capacity, trial_words, uniforms
from .polar_core import trial_rng  # noqa: F401  the stream contract, re-exported

ChannelLike = Union[KrausChannel, BDMC]

RELAY_CHUNK = 2 ** 15  # trials per vectorized pass of simulate_relay


@dataclass
class RelayChannelSpec:
    """Relay topology: three hop channels, the relay success probability,
    and the codeword partition the encoders draw from."""
    n_e1e2: ChannelLike
    n_e2d: ChannelLike
    n_e1d: ChannelLike
    p_e2: float
    partition: IndexSetPartition

    def __post_init__(self):
        if not 0.0 < self.p_e2 < 1.0:
            raise ValueError(
                f"relay success probability must lie in (0, 1), got {self.p_e2}")
        if (isinstance(self.n_e1e2, KrausChannel)
                and isinstance(self.n_e2d, KrausChannel)
                and self.n_e2d.in_dim != self.n_e1e2.out_dim):
            raise ValueError(
                f"hops not composable: first yields dim {self.n_e1e2.out_dim},"
                f" second expects dim {self.n_e2d.in_dim}")


@dataclass(frozen=True)
class RelayTrialResult:
    """Aggregated outcome of simulated relay transmissions."""
    trials: int
    successes: int
    empirical_success_rate: float
    mean_codeword_size_b: float

    def __post_init__(self):
        if self.successes > self.trials:
            raise ValueError("successes cannot exceed trials")


@dataclass(frozen=True)
class JointDistribution:
    """Joint input distribution p(a, a') for sender and relay symbols."""
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 2:
            raise ValueError("joint distribution must be a 2-D table")
        if np.any(arr < 0.0) or abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError("entries must be nonnegative and sum to 1")
        object.__setattr__(self, "p", arr)


@dataclass(frozen=True)
class ClassicalRelayModel:
    """Conditional law p(b, b' | a, a') of the receiver symbol b and relay
    observation b', as an array indexed [a, a', b, b']."""
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 4:
            raise ValueError("model must be indexed [a, a_relay, b, b_relay]")
        if np.any(arr < 0.0):
            raise ValueError("negative conditional probability")
        sums = arr.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("conditional laws must sum to 1")
        object.__setattr__(self, "p", arr)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _is_canonical_bec(w: BDMC) -> bool:
    return (w.output_alphabet_size == 3
            and w.w[0][1] == 0.0 and w.w[1][0] == 0.0
            and w.w[0][2] == w.w[1][2])


def compose_bdmc(first: BDMC, second: BDMC) -> BDMC:
    """Serial composition of classical channels.

    Defined when the first stage has a binary output alphabet (transition
    matrix product) or when both stages are canonical erasure channels
    (erasures propagate: eps = a + b - ab).
    """
    if first.output_alphabet_size == 2:
        return BDMC(first.w @ second.w)
    if _is_canonical_bec(first) and _is_canonical_bec(second):
        a = float(first.w[0][2])
        b = float(second.w[0][2])
        return BDMC.bec(a + b - a * b)
    raise ValueError(
        "classical composition needs a binary-output first stage or two "
        "canonical erasure channels")


def compose_relay(spec: RelayChannelSpec) -> ChannelLike:
    """Two-hop channel through the relay: e1e2 followed by e2d."""
    first, second = spec.n_e1e2, spec.n_e2d
    if isinstance(first, KrausChannel) and isinstance(second, KrausChannel):
        return compose_channels(first, second)
    if isinstance(first, BDMC) and isinstance(second, BDMC):
        return compose_bdmc(first, second)
    raise ValueError("hop channels must both be quantum or both classical")


def channel_symmetric_capacity(channel: ChannelLike) -> float:
    """Uniform-input capacity of a hop channel, in bits.

    Classical channels use the transition-table mutual information; qubit
    quantum channels are scored through computational-basis use.
    """
    if isinstance(channel, BDMC):
        return symmetric_capacity(channel)
    return symmetric_cq_capacity(cq_from_kraus(channel))


def degraded_diagnostic(spec: RelayChannelSpec) -> bool:
    """True when the direct path is no better than the relayed path,
    compared by uniform-input capacity. Informational only."""
    direct = channel_symmetric_capacity(spec.n_e1d)
    relayed = channel_symmetric_capacity(compose_relay(spec))
    return direct <= relayed + 1e-12


# ---------------------------------------------------------------------------
# Capacity formulas
# ---------------------------------------------------------------------------

def relay_capacity_min(c_12: float, c_1d: float, c_2d: float) -> float:
    """Cut-set form min{c_12, c_1d + c_2d}."""
    if min(c_12, c_1d, c_2d) < 0.0:
        raise ValueError("capacities must be nonnegative")
    return min(c_12, c_1d + c_2d)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def relay_mutual_info(jd: JointDistribution,
                      model: ClassicalRelayModel) -> Tuple[float, float]:
    """Evaluate (I(A,A' : B), I(A : B' | A')) for one input distribution.

    Exact enumeration over the finite alphabets; input alphabets are
    limited to 4 symbols each.
    """
    na, na2 = jd.p.shape
    if model.p.shape[0] != na or model.p.shape[1] != na2:
        raise ValueError("joint distribution and model alphabets disagree")
    if na > 4 or na2 > 4:
        raise ValueError("exact evaluation supports input alphabets <= 4")
    # p(a, a', b, b')
    joint = jd.p[:, :, None, None] * model.p
    p_aab = joint.sum(axis=3)                      # p(a, a', b)
    p_b = p_aab.sum(axis=(0, 1))
    i_joint = (_entropy(jd.p.ravel()) + _entropy(p_b)
               - _entropy(p_aab.ravel()))
    # I(A : B' | A') = H(A|A') + H(B'|A') - H(A, B'|A')
    p_aabp = joint.sum(axis=2)                     # p(a, a', b')
    p_a2 = jd.p.sum(axis=0)
    h_a_given = _entropy(jd.p.ravel()) - _entropy(p_a2)
    p_a2bp = p_aabp.sum(axis=0)                    # p(a', b')
    h_bp_given = _entropy(p_a2bp.ravel()) - _entropy(p_a2)
    h_abp_given = _entropy(p_aabp.ravel()) - _entropy(p_a2)
    i_cond = h_a_given + h_bp_given - h_abp_given
    return i_joint, i_cond


def _lattice_points(cells: int, resolution: int):
    """All probability vectors with entries in multiples of 1/resolution."""
    for cut in itertools.combinations(range(resolution + cells - 1), cells - 1):
        parts = []
        prev = -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + cells - 2 - prev)
        yield np.array(parts, dtype=float) / resolution


def maximize_relay_min_rate(model: ClassicalRelayModel, resolution: int = 32):
    """Best min{I(A,A':B), I(A:B'|A')} found on the probability lattice.

    For up to 4 input cells the lattice is enumerated exhaustively;
    larger alphabets use greedy single-step mass moves from the uniform
    point. Either way the result is a valid lower bound on the max-min.
    """
    na, na2 = model.p.shape[0], model.p.shape[1]
    cells = na * na2

    def score(vec: np.ndarray) -> float:
        jd = JointDistribution(vec.reshape(na, na2))
        return min(relay_mutual_info(jd, model))

    if cells <= 4:
        best_vec, best_val = None, -1.0
        for vec in _lattice_points(cells, resolution):
            val = score(vec)
            if val > best_val:
                best_vec, best_val = vec, val
        return JointDistribution(best_vec.reshape(na, na2)), best_val

    units = np.full(cells, resolution // cells, dtype=int)
    units[:resolution - units.sum()] += 1
    current = units / resolution
    best_val = score(current)
    improved = True
    while improved:
        improved = False
        for src in range(cells):
            if current[src] < 1.0 / resolution - 1e-15:
                continue
            for dst in range(cells):
                if dst == src:
                    continue
                cand = current.copy()
                cand[src] -= 1.0 / resolution
                cand[dst] += 1.0 / resolution
                val = score(cand)
                if val > best_val + 1e-12:
                    current, best_val = cand, val
                    improved = True
    return JointDistribution(current.reshape(na, na2)), best_val


def relay_private_capacity(part: IndexSetPartition) -> float:
    """Private rate of the relay-to-receiver hop: (|good_phase| - |p2|)/n.

    Because good_phase is the disjoint union of p2 and s_in, this always
    equals |s_in|/n; both forms are evaluated and must agree exactly.
    """
    via_phase = set_size(part.good_phase) - set_size(part.p2)
    if via_phase != set_size(part.s_in):
        raise AssertionError("good_phase decomposition violated")
    return via_phase / part.n


# ---------------------------------------------------------------------------
# Relay encoder simulation
# ---------------------------------------------------------------------------

def simulate_relay(spec: RelayChannelSpec, trials: int,
                   seed: int) -> RelayTrialResult:
    """Monte Carlo run of the probabilistic relay encoder.

    Each trial succeeds with probability p_e2, delivering the private
    index set s_in; a failed trial delivers the undecodable phase-only
    block and contributes nothing. Trial t succeeds when the first
    uniform of ``trial_rng(seed, t)`` falls below p_e2. Trials are
    evaluated ``RELAY_CHUNK`` at a time, so memory does not grow with
    their number.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    successes = 0
    for first in range(0, trials, RELAY_CHUNK):
        count = min(RELAY_CHUNK, trials - first)
        draws = uniforms(trial_words(seed, first, count, 1)[:, 0])
        successes += int(np.count_nonzero(draws < spec.p_e2))
    size = float(set_size(spec.partition.s_in))
    return RelayTrialResult(
        trials=trials,
        successes=successes,
        empirical_success_rate=successes / trials,
        mean_codeword_size_b=size if successes else 0.0,
    )


def expected_throughput(spec: RelayChannelSpec) -> float:
    """Expected decodable private indices per block: p_e2 * |s_in|."""
    return spec.p_e2 * set_size(spec.partition.s_in)


def simulation_rows(spec: RelayChannelSpec, result: RelayTrialResult):
    """Single CSV row matching the simulation export schema."""
    s_in = set_size(spec.partition.s_in)
    return [(spec.p_e2, result.trials, result.successes,
             result.empirical_success_rate, expected_throughput(spec),
             0.5 * s_in)]
