"""Tests for relay capacities and encoder simulation."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers_quantum import make_partition
from helpers_rng import relay_success_flags
from qrelay.cli import load_config, run
from qrelay.codeword_sets import rate_report, set_size
from qrelay.polar_core import trial_rng
from qrelay.relay import RELAY_CHUNK, simulate_relay
from qrelay.superactivation import compare_assisted


# ---------------------------------------------------------------------------
# Capacity columns of the rate report
# ---------------------------------------------------------------------------

def relay_rates(n, amp, phase):
    row = rate_report(make_partition(n, amp, phase))
    return row["relay_capacity_min"], row["relay_private_capacity"]


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
def test_relay_capacity_min_cases():
    assert relay_rates(8, range(8), range(8))[0] == 1.0
    assert relay_rates(8, range(8), ())[0] == 0.0
    assert relay_rates(8, (), range(8))[0] == 1.0   # all through p2
    assert relay_rates(16, range(6), range(2, 10))[0] == 0.5


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
def test_relay_capacity_min_monotone():
    # growing either good set never lowers the cut-set bound
    rng = np.random.default_rng(97)
    for _ in range(50):
        amp, phase, extra = (set(np.flatnonzero(rng.random(16) < 0.4))
                             for _ in range(3))
        base = relay_rates(16, amp, phase)[0]
        assert relay_rates(16, amp | extra, phase)[0] >= base
        assert relay_rates(16, amp, phase | extra)[0] >= base


def test_relay_capacity_min_from_set_fractions():
    part = make_partition(16, range(10), range(6, 16))
    n = part.n
    c_12 = set_size(part.good_phase) / n
    c_1d = set_size(part.p2) / n
    c_2d = set_size(part.s_in) / n
    row = rate_report(part)
    assert row["relay_capacity_min"] == min(c_12, c_1d + c_2d)
    assert row["relay_private_capacity"] == c_2d
    assert c_1d + c_2d == c_12  # p2 and s_in tile good_phase


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
def test_relay_private_capacity_forms():
    assert relay_rates(8, (), range(8))[1] == 0.0
    part = make_partition(8, range(8), range(3))
    assert rate_report(part)["relay_private_capacity"] == set_size(
        part.good_phase) / 8
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = 12
        amp = {int(i) for i in np.flatnonzero(rng.random(n) < 0.5)}
        phase = {int(i) for i in np.flatnonzero(rng.random(n) < 0.5)}
        part = make_partition(n, amp, phase)
        assert rate_report(part)["relay_private_capacity"] == (
            set_size(part.good_phase) - set_size(part.p2)) / n


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_relay_near_certain_success():
    assert simulate_relay(1.0 - 1e-15, trials=500, seed=3) == 500


def test_simulate_relay_near_certain_failure():
    assert simulate_relay(1e-15, trials=500, seed=3) == 0


def test_simulate_relay_binomial_confidence():
    trials = 100000
    rate = simulate_relay(0.3, trials=trials, seed=11) / trials
    sigma = math.sqrt(0.3 * 0.7 / trials)
    assert abs(rate - 0.3) <= 3 * sigma


def test_simulate_relay_reproducible():
    a = simulate_relay(0.42, trials=2000, seed=77)
    assert simulate_relay(0.42, trials=2000, seed=77) == a
    assert simulate_relay(0.42, trials=2000, seed=78) != a


def test_simulate_relay_counter_stream_contract():
    # trial t succeeds iff the first uniform of stream (seed, t) is below
    # p_e2, and stream (seed, t) is Philox keyed by seed, advanced t << 64
    trials, seed = 5000, 5
    expected = sum(trial_rng(seed, t).random() < 0.42 for t in range(trials))
    assert simulate_relay(0.42, trials, seed) == expected
    for key, t in ((5, 0), (5, 1), (5, 4999), (2 ** 64 - 1, 2 ** 40)):
        ref = np.random.Philox(key=key)
        ref.advance(t << 64)
        want = np.random.Generator(ref).random(8)
        assert np.array_equal(trial_rng(key, t).random(8), want)


def test_simulate_relay_matches_oracle_around_chunk():
    # trial counts one below, at and one above the chunk size equal the
    # per-trial stream count
    flags = relay_success_flags(0.42, RELAY_CHUNK + 1, seed=12)
    for trials in (RELAY_CHUNK - 1, RELAY_CHUNK, RELAY_CHUNK + 1):
        assert simulate_relay(0.42, trials, seed=12) == int(
            np.count_nonzero(flags[:trials]))


def test_simulate_relay_memory_is_flat():
    # one float64 per trial would take 32 MB at 4e6 trials
    tracemalloc.start()
    try:
        successes = simulate_relay(0.3, trials=4_000_000, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert abs(successes / 4_000_000 - 0.3) < 5 * math.sqrt(
        0.3 * 0.7 / 4_000_000)


def test_simulate_relay_convergence_trend():
    medians = []
    for trials in (1000, 10000, 100000):
        gaps = [abs(simulate_relay(0.3, trials=trials, seed=1000 + batch)
                    / trials - 0.3) for batch in range(20)]
        medians.append(float(np.median(gaps)))
    assert medians[0] >= medians[1] >= medians[2]


def test_expected_throughput():
    part = make_partition(1024, range(640), range(128, 768))
    assert set_size(part.s_in) == 512
    assert compare_assisted(0.4, part).b == pytest.approx(204.8)
    empty = make_partition(16, range(8), range(8, 16))
    assert compare_assisted(0.4, empty).b == 0.0


def test_expected_throughput_matches_monte_carlo():
    part = make_partition(16, range(10), range(4, 14))
    s_in = set_size(part.s_in)
    trials = 20000
    empirical = simulate_relay(0.4, trials=trials, seed=21) / trials * s_in
    sigma = math.sqrt(0.4 * 0.6 / trials) * s_in
    assert abs(empirical - compare_assisted(0.4, part).b) <= 3 * sigma


def test_simulate_relay_validation():
    for p_e2 in (0.0, 1.0):
        with pytest.raises(ValueError, match="probability"):
            simulate_relay(p_e2, trials=10, seed=1)
    with pytest.raises(ValueError, match="trials"):
        simulate_relay(0.3, trials=0, seed=1)


def test_simulation_rows_schema(tmp_path):
    # relay_sim.csv is (p_e2, trials, successes, rate) from simulate_relay
    # and the two throughputs of compare_assisted; the counters hold it
    payload = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
               "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 6,
               "beta": 0.3, "p_e2": 0.25, "trials": 100, "seed": 1}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    manifest = run(load_config(path, command="relay-sim",
                               output_dir=str(tmp_path / "o")))
    with open(manifest.outputs[0]["path"], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    size = manifest.counters["size_s_in"]
    successes = simulate_relay(0.25, trials=100, seed=1)
    row = {"p_e2": 0.25, "trials": 100, "successes": successes,
           "rate": successes / 100, "expected_throughput": 0.25 * size,
           "b_star_throughput": 0.5 * size}
    assert header == list(row)
    assert {key: manifest.counters[key] for key in header} == row
