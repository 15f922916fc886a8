"""Relay encoder simulation.

The relay encoder adds the amplitude layer to a phase-encoded block only
with success probability p_e2; on failure the receiver cannot decode the
block. Each trial draws from its own
counter-based stream keyed by (seed, trial index), so a simulation
depends only on its seed and trial count. The expected throughput
p_e2 * |s_in| and the assisted |s_in| / 2 that the successes are set
against come from ``superactivation.compare_assisted``.
"""

from __future__ import annotations

import numpy as np

from .polar_core import trial_words, uniforms
from .polar_core import trial_rng  # noqa: F401  the stream contract, re-exported

RELAY_CHUNK = 2 ** 15  # trials per vectorized pass of simulate_relay


def simulate_relay(p_e2: float, trials: int, seed: int) -> int:
    """Successes in a Monte Carlo run of the probabilistic relay encoder.

    Each trial succeeds with probability p_e2, delivering the private
    index set s_in; a failed trial delivers the undecodable phase-only
    block and contributes nothing. Trial t succeeds when the first
    uniform of ``trial_rng(seed, t)`` falls below p_e2. Trials are
    evaluated ``RELAY_CHUNK`` at a time, so memory does not grow with
    their number.
    """
    if not 0.0 < p_e2 < 1.0:
        raise ValueError(
            f"relay success probability must lie in (0, 1), got {p_e2}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    successes = 0
    for first in range(0, trials, RELAY_CHUNK):
        count = min(RELAY_CHUNK, trials - first)
        draws = uniforms(trial_words(seed, first, count, 1)[:, 0])
        successes += int(np.count_nonzero(draws < p_e2))
    return successes
