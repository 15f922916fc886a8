"""Tests for relay channel composition, capacities, and encoder simulation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers_quantum import make_partition
from helpers_rng import relay_success_flags
from qrelay.codeword_sets import set_size
from qrelay.density_ops import dephasing_channel, identity_channel
from qrelay.polar_core import BDMC, bhattacharyya, trial_rng
from qrelay.relay import (RELAY_CHUNK, ClassicalRelayModel, JointDistribution,
                          RelayChannelSpec, RelayTrialResult,
                          channel_symmetric_capacity, compose_bdmc,
                          compose_relay, degraded_diagnostic,
                          expected_throughput, maximize_relay_min_rate,
                          relay_capacity_min, relay_mutual_info,
                          relay_private_capacity, simulate_relay,
                          simulation_rows)


def make_spec(p_e2=0.3, n=16, amp=range(8), phase=range(4, 12)):
    part = make_partition(n, amp, phase)
    return RelayChannelSpec(n_e1e2=BDMC.bec(0.2), n_e2d=BDMC.bec(0.3),
                            n_e1d=BDMC.bec(0.6), p_e2=p_e2, partition=part)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_compose_identity_channels():
    spec = RelayChannelSpec(n_e1e2=identity_channel(2),
                            n_e2d=identity_channel(2),
                            n_e1d=identity_channel(2),
                            p_e2=0.5, partition=make_partition(4, {0}, {0}))
    composed = compose_relay(spec)
    assert len(composed.kraus_ops) == 1
    assert np.allclose(composed.kraus_ops[0], np.eye(2))


def test_compose_bec_erasure_propagation():
    for a, b in ((0.2, 0.3), (0.5, 0.5), (0.1, 0.9)):
        composed = compose_bdmc(BDMC.bec(a), BDMC.bec(b))
        assert abs(bhattacharyya(composed) - (a + b - a * b)) < 1e-12
        # transition-matrix product oracle on the non-erased part
        assert abs(composed.w[0][0] - (1 - a) * (1 - b)) < 1e-12
        assert composed.w[0][1] == 0.0


def test_compose_binary_output_first_stage():
    first = BDMC.bsc(0.1)
    second = BDMC.bec(0.2)
    composed = compose_bdmc(first, second)
    want = first.w @ second.w  # independent product oracle
    assert np.allclose(composed.w, want, atol=1e-15)


def test_compose_undefined_combination():
    with pytest.raises(ValueError, match="composition"):
        compose_bdmc(BDMC([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]), BDMC.bsc(0.1))


def test_compose_quantum_completeness():
    spec = RelayChannelSpec(n_e1e2=dephasing_channel(0.3),
                            n_e2d=dephasing_channel(0.4),
                            n_e1d=dephasing_channel(0.8),
                            p_e2=0.4, partition=make_partition(4, {0}, {0}))
    composed = compose_relay(spec)
    total = sum(k.conj().T @ k for k in composed.kraus_ops)
    assert np.max(np.abs(total - np.eye(2))) < 1e-9


def test_compose_mixed_kinds_rejected():
    spec = RelayChannelSpec(n_e1e2=dephasing_channel(0.3),
                            n_e2d=BDMC.bec(0.2), n_e1d=BDMC.bec(0.2),
                            p_e2=0.4, partition=make_partition(4, {0}, {0}))
    with pytest.raises(ValueError, match="both"):
        compose_relay(spec)


def test_degraded_diagnostic():
    # direct path much noisier than the relayed path
    assert degraded_diagnostic(make_spec())
    helped = RelayChannelSpec(n_e1e2=BDMC.bec(0.4), n_e2d=BDMC.bec(0.4),
                              n_e1d=BDMC.bec(0.01), p_e2=0.3,
                              partition=make_partition(4, {0}, {0}))
    assert not degraded_diagnostic(helped)


def test_channel_symmetric_capacity_kinds():
    assert abs(channel_symmetric_capacity(BDMC.bec(0.25)) - 0.75) < 1e-12
    assert abs(channel_symmetric_capacity(identity_channel(2)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Capacity formulas
# ---------------------------------------------------------------------------

def test_relay_capacity_min_cases():
    assert relay_capacity_min(1.0, 0.2, 0.3) == 0.5
    assert relay_capacity_min(0.0, 0.2, 0.3) == 0.0
    with pytest.raises(ValueError):
        relay_capacity_min(-0.1, 0.2, 0.3)


def test_relay_capacity_min_monotone():
    rng = np.random.default_rng(97)
    for _ in range(50):
        args = rng.random(3)
        base = relay_capacity_min(*args)
        for i in range(3):
            bumped = args.copy()
            bumped[i] += 0.1
            assert relay_capacity_min(*bumped) >= base


def test_relay_capacity_min_from_set_fractions():
    part = make_partition(16, range(10), range(6, 16))
    n = part.n
    c_12 = set_size(part.good_phase) / n
    c_1d = set_size(part.p2) / n
    c_2d = relay_private_capacity(part)
    assert relay_capacity_min(c_12, c_1d, c_2d) == min(c_12, c_1d + c_2d)
    assert c_1d + c_2d == c_12  # p2 and s_in tile good_phase


def test_relay_private_capacity_forms():
    assert relay_private_capacity(make_partition(8, (), range(8))) == 0.0
    part = make_partition(8, range(8), range(3))
    assert relay_private_capacity(part) == set_size(part.good_phase) / 8
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = 12
        amp = {int(i) for i in np.flatnonzero(rng.random(n) < 0.5)}
        phase = {int(i) for i in np.flatnonzero(rng.random(n) < 0.5)}
        part = make_partition(n, amp, phase)
        assert relay_private_capacity(part) == set_size(part.s_in) / n


# ---------------------------------------------------------------------------
# Mutual information over the relay model
# ---------------------------------------------------------------------------

def _noiseless_pair_model():
    # receiver sees the sender symbol, relay observes it too
    p = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for a2 in range(2):
            p[a, a2, a, a] = 1.0
    return ClassicalRelayModel(p)


def test_relay_mutual_info_noiseless():
    jd = JointDistribution(np.full((2, 2), 0.25))
    i_joint, i_cond = relay_mutual_info(jd, _noiseless_pair_model())
    assert abs(i_joint - 1.0) < 1e-12
    assert abs(i_cond - 1.0) < 1e-12
    assert min(i_joint, i_cond) == pytest.approx(1.0, abs=1e-12)


def test_relay_mutual_info_independent_relay_observation():
    # relay observation pinned to 0 regardless of the sender symbol
    p = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for a2 in range(2):
            p[a, a2, a, 0] = 1.0
    jd = JointDistribution(np.full((2, 2), 0.25))
    _, i_cond = relay_mutual_info(jd, ClassicalRelayModel(p))
    assert abs(i_cond) < 1e-12


def test_grid_maximizer_beats_uniform():
    # binary symmetric hops with different noise levels
    flip_b, flip_bp = 0.1, 0.25
    p = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for a2 in range(2):
            for b in range(2):
                for bp in range(2):
                    pb = (1 - flip_b) if b == (a ^ a2) else flip_b
                    pbp = (1 - flip_bp) if bp == a else flip_bp
                    p[a, a2, b, bp] = pb * pbp
    model = ClassicalRelayModel(p)
    uniform = min(relay_mutual_info(JointDistribution(np.full((2, 2), 0.25)),
                                    model))
    jd_best, best = maximize_relay_min_rate(model, resolution=16)
    assert best >= uniform - 1e-12
    # brute-force lattice enumeration oracle at the same resolution
    res = 16
    oracle = -1.0
    for units in itertools.product(range(res + 1), repeat=3):
        if sum(units) > res:
            continue
        vec = np.array(list(units) + [res - sum(units)], dtype=float) / res
        oracle = max(oracle, min(relay_mutual_info(
            JointDistribution(vec.reshape(2, 2)), model)))
    assert abs(best - oracle) < 1e-12


def test_grid_maximizer_greedy_branch():
    # six probability cells: falls back to greedy lattice ascent
    p = np.zeros((2, 3, 2, 2))
    for a in range(2):
        for a2 in range(3):
            p[a, a2, a, a] = 1.0
    model = ClassicalRelayModel(p)
    jd_best, best = maximize_relay_min_rate(model, resolution=8)
    assert abs(best - min(relay_mutual_info(jd_best, model))) < 1e-12
    assert best >= 0.9  # noiseless observations support nearly one bit


def test_relay_mutual_info_alphabet_cap():
    jd = JointDistribution(np.full((5, 2), 0.1))
    p = np.zeros((5, 2, 2, 2))
    p[..., 0, 0] = 1.0
    with pytest.raises(ValueError, match="alphabets"):
        relay_mutual_info(jd, ClassicalRelayModel(p))


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(np.array([[0.5, 0.6], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        JointDistribution(np.array([[-0.1, 0.6], [0.25, 0.25]]))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_relay_near_certain_success():
    spec = make_spec(p_e2=1.0 - 1e-15)
    result = simulate_relay(spec, trials=500, seed=3)
    assert result.successes == 500
    assert result.mean_codeword_size_b == set_size(spec.partition.s_in)


def test_simulate_relay_near_certain_failure():
    result = simulate_relay(make_spec(p_e2=1e-15), trials=500, seed=3)
    assert result.successes == 0
    assert result.mean_codeword_size_b == 0.0


def test_simulate_relay_binomial_confidence():
    spec = make_spec(p_e2=0.3)
    trials = 100000
    result = simulate_relay(spec, trials=trials, seed=11)
    sigma = math.sqrt(0.3 * 0.7 / trials)
    assert abs(result.empirical_success_rate - 0.3) <= 3 * sigma


def test_simulate_relay_reproducible():
    spec = make_spec(p_e2=0.42)
    a = simulate_relay(spec, trials=2000, seed=77)
    b = simulate_relay(spec, trials=2000, seed=77)
    assert a == b
    c = simulate_relay(spec, trials=2000, seed=78)
    assert a != c


def test_simulate_relay_counter_stream_contract():
    # trial t succeeds iff the first uniform of stream (seed, t) is below
    # p_e2, and stream (seed, t) is Philox keyed by seed, advanced t << 64
    spec = make_spec(p_e2=0.42)
    trials, seed = 5000, 5
    expected = sum(trial_rng(seed, t).random() < spec.p_e2
                   for t in range(trials))
    assert simulate_relay(spec, trials, seed).successes == expected
    for key, t in ((5, 0), (5, 1), (5, 4999), (2 ** 64 - 1, 2 ** 40)):
        ref = np.random.Philox(key=key)
        ref.advance(t << 64)
        want = np.random.Generator(ref).random(8)
        assert np.array_equal(trial_rng(key, t).random(8), want)


def test_simulate_relay_matches_oracle_around_chunk():
    # trial counts one below, at and one above the chunk size equal the
    # per-trial stream count
    spec = make_spec(p_e2=0.42)
    flags = relay_success_flags(spec.p_e2, RELAY_CHUNK + 1, seed=12)
    for trials in (RELAY_CHUNK - 1, RELAY_CHUNK, RELAY_CHUNK + 1):
        result = simulate_relay(spec, trials, seed=12)
        assert result.successes == int(np.count_nonzero(flags[:trials]))


def test_simulate_relay_memory_is_flat():
    # one float64 per trial would take 32 MB at 4e6 trials
    spec = make_spec(p_e2=0.3)
    tracemalloc.start()
    try:
        result = simulate_relay(spec, trials=4_000_000, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert abs(result.empirical_success_rate - 0.3) < 5 * math.sqrt(
        0.3 * 0.7 / 4_000_000)


def test_simulate_relay_convergence_trend():
    spec = make_spec(p_e2=0.3)
    medians = []
    for trials in (1000, 10000, 100000):
        gaps = []
        for batch in range(20):
            res = simulate_relay(spec, trials=trials, seed=1000 + batch)
            gaps.append(abs(res.empirical_success_rate - 0.3))
        medians.append(float(np.median(gaps)))
    assert medians[0] >= medians[1] >= medians[2]


def test_expected_throughput():
    part = make_partition(1024, range(640), range(128, 768))
    assert set_size(part.s_in) == 512
    spec = RelayChannelSpec(n_e1e2=BDMC.bec(0.2), n_e2d=BDMC.bec(0.3),
                            n_e1d=BDMC.bec(0.6), p_e2=0.4, partition=part)
    assert expected_throughput(spec) == pytest.approx(204.8)
    empty = make_spec(amp=range(8), phase=range(8, 16))
    assert expected_throughput(empty) == 0.0


def test_expected_throughput_matches_monte_carlo():
    spec = make_spec(p_e2=0.4, n=16, amp=range(10), phase=range(4, 14))
    s_in = set_size(spec.partition.s_in)
    trials = 20000
    result = simulate_relay(spec, trials=trials, seed=21)
    empirical = result.empirical_success_rate * s_in
    sigma = math.sqrt(0.4 * 0.6 / trials) * s_in
    assert abs(empirical - expected_throughput(spec)) <= 3 * sigma


def test_relay_spec_validation():
    with pytest.raises(ValueError, match="probability"):
        make_spec(p_e2=0.0)
    with pytest.raises(ValueError, match="probability"):
        make_spec(p_e2=1.0)
    with pytest.raises(ValueError):
        RelayTrialResult(trials=10, successes=11,
                         empirical_success_rate=1.1, mean_codeword_size_b=0.0)
    from qrelay.density_ops import erasure_channel
    with pytest.raises(ValueError, match="composable"):
        RelayChannelSpec(n_e1e2=erasure_channel(0.5), n_e2d=identity_channel(2),
                         n_e1d=identity_channel(2), p_e2=0.5,
                         partition=make_partition(4, {0}, {0}))


def test_simulation_rows_schema():
    spec = make_spec(p_e2=0.25)
    result = simulate_relay(spec, trials=100, seed=1)
    ((p_e2, trials, successes, rate, throughput, b_star),) = simulation_rows(
        spec, result)
    assert p_e2 == 0.25 and trials == 100
    assert successes == result.successes and rate == result.empirical_success_rate
    assert throughput == expected_throughput(spec)
    assert b_star == 0.5 * set_size(spec.partition.s_in)
