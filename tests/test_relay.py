"""Tests for relay capacities and encoder simulation."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers_quantum import make_partition
from helpers_rng import relay_success_flags
from qrelay.codeword_sets import set_size
from qrelay.polar_core import trial_rng
from qrelay.relay import (RELAY_CHUNK, RelayChannelSpec, RelayTrialResult,
                          expected_throughput, relay_capacity_min,
                          relay_private_capacity, simulate_relay,
                          simulation_rows)


def make_spec(p_e2=0.3, n=16, amp=range(8), phase=range(4, 12)):
    part = make_partition(n, amp, phase)
    return RelayChannelSpec(p_e2=p_e2, partition=part)


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
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_relay_near_certain_success():
    spec = make_spec(p_e2=1.0 - 1e-15)
    result = simulate_relay(spec, trials=500, seed=3)
    assert result.successes == 500


def test_simulate_relay_near_certain_failure():
    result = simulate_relay(make_spec(p_e2=1e-15), trials=500, seed=3)
    assert result.successes == 0


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
    spec = RelayChannelSpec(p_e2=0.4, partition=part)
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
        RelayTrialResult(trials=10, successes=11, empirical_success_rate=1.1)


def test_simulation_rows_schema():
    spec = make_spec(p_e2=0.25)
    result = simulate_relay(spec, trials=100, seed=1)
    ((p_e2, trials, successes, rate, throughput, b_star),) = simulation_rows(
        spec, result)
    assert p_e2 == 0.25 and trials == 100
    assert successes == result.successes and rate == result.empirical_success_rate
    assert throughput == expected_throughput(spec)
    assert b_star == 0.5 * set_size(spec.partition.s_in)
