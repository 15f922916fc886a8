"""Per-trial reference implementations: the oracles for the batched
Philox evaluation of the relay simulation, the output sampler's table
lookup and the Monte Carlo block error estimate, and the dict-based output
merge."""

import math

import numpy as np

from helpers_polar import encode_block_oracle, sc_decode_oracle
from qrelay.polar_core import BDMC, LLR_CLIP, MonteCarloResult, trial_rng


def relay_success_flags(p_e2, trials, seed):
    """Trial t succeeds when the first uniform of its stream is below p_e2."""
    return np.array([trial_rng(seed, t).random() < p_e2
                     for t in range(trials)])


def sample_outputs(w, codeword, rng):
    """Sample one output symbol per codeword bit from the transition table."""
    cdf = np.cumsum(w.w, axis=1)
    r = rng.random(len(codeword))
    y = np.empty(len(codeword), dtype=np.int64)
    for bit in (0, 1):
        mask = codeword == bit
        if np.any(mask):
            y[mask] = np.searchsorted(cdf[bit], r[mask], side="right")
    return np.minimum(y, w.output_alphabet_size - 1)


def table_index_oracle(breaks, raw, x):
    """Positions 2k + x in the sampler's table for raw words and sent bits
    x, with k = searchsorted(breaks, u, side="right") over each word's
    uniform u, as ``Generator.random()`` makes it."""
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return 2 * np.searchsorted(breaks, u, side="right") + x


def monte_carlo_oracle(w, n, info_set, trials, seed, batch_size=2048):
    """Block error estimate with one Generator per trial: message bits from
    ``integers(0, 2, size=|info|)``, then n uniforms for the outputs, and
    the recursive oracle decoder; every other bit is frozen to 0."""
    info = np.zeros(n, dtype=bool)
    info[np.asarray(info_set)] = True
    info_size = np.count_nonzero(info)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = w.w[0] / w.w[1]
    ratio[np.isnan(ratio)] = 1.0
    errors = 0
    done = 0
    while done < trials:
        count = min(batch_size, trials - done)
        messages = np.zeros((count, n), dtype=np.uint8)
        lam = np.empty((count, n))
        for j in range(count):
            rng = trial_rng(seed, done + j)
            messages[j, info] = rng.integers(0, 2, size=info_size)
            y = sample_outputs(w, encode_block_oracle(messages[j][None, :])[0],
                               rng)
            lam[j] = ratio[y]
        log_lam = np.clip(np.log(lam, where=lam > 0,
                                 out=np.full_like(lam, -np.inf)),
                          -LLR_CLIP, LLR_CLIP)
        decoded, _ = sc_decode_oracle(log_lam, info)
        errors += int(np.sum(np.any(decoded[:, info] != messages[:, info],
                                    axis=1)))
        done += count
    return MonteCarloResult(trials=trials, errors=errors)


def merge_oracle(w):
    """Pool outputs with equal likelihood ratios through a dict keyed by
    the ratio, in output order; columns sorted by ratio."""
    w0, w1 = w.w[0], w.w[1]
    groups = {}
    for y in range(w.output_alphabet_size):
        p0, p1 = w0[y], w1[y]
        if p0 == 0.0 and p1 == 0.0:
            continue
        ratio = math.inf if p1 == 0.0 else p0 / p1
        if ratio in groups:
            groups[ratio] = groups[ratio] + np.array([p0, p1])
        else:
            groups[ratio] = np.array([p0, p1])
    table = np.stack([groups[r] for r in sorted(groups)], axis=1)
    table /= table.sum(axis=1, keepdims=True)
    return BDMC(table)
