"""Relay capacity formulas and encoder simulation.

The capacity formulas take each hop's rate as an exact set fraction of
the codeword partition. The relay encoder adds the amplitude layer to a
phase-encoded block only with success probability p_e2; on failure the
receiver cannot decode the block. Each trial draws from its own
counter-based stream keyed by (seed, trial index), so a simulation
depends only on its seed and trial count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codeword_sets import IndexSetPartition, set_size
from .polar_core import trial_words, uniforms
from .polar_core import trial_rng  # noqa: F401  the stream contract, re-exported

RELAY_CHUNK = 2 ** 15  # trials per vectorized pass of simulate_relay


@dataclass
class RelayChannelSpec:
    """The relay success probability and the codeword partition the
    encoders draw from."""
    p_e2: float
    partition: IndexSetPartition

    def __post_init__(self):
        if not 0.0 < self.p_e2 < 1.0:
            raise ValueError(
                f"relay success probability must lie in (0, 1), got {self.p_e2}")


@dataclass(frozen=True)
class RelayTrialResult:
    """Aggregated outcome of simulated relay transmissions."""
    trials: int
    successes: int
    empirical_success_rate: float

    def __post_init__(self):
        if self.successes > self.trials:
            raise ValueError("successes cannot exceed trials")


# ---------------------------------------------------------------------------
# Capacity formulas
# ---------------------------------------------------------------------------

def relay_capacity_min(c_12: float, c_1d: float, c_2d: float) -> float:
    """Cut-set form min{c_12, c_1d + c_2d}."""
    if min(c_12, c_1d, c_2d) < 0.0:
        raise ValueError("capacities must be nonnegative")
    return min(c_12, c_1d + c_2d)


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
    return RelayTrialResult(trials=trials, successes=successes,
                            empirical_success_rate=successes / trials)


def expected_throughput(spec: RelayChannelSpec) -> float:
    """Expected decodable private indices per block: p_e2 * |s_in|."""
    return spec.p_e2 * set_size(spec.partition.s_in)


def simulation_rows(spec: RelayChannelSpec, result: RelayTrialResult):
    """Single CSV row matching the simulation export schema."""
    s_in = set_size(spec.partition.s_in)
    return [(spec.p_e2, result.trials, result.successes,
             result.empirical_success_rate, expected_throughput(spec),
             0.5 * s_in)]
