"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from helpers_polar import symmetric_capacity
from helpers_quantum import capacity_row_oracle, coherent_info_oracle, \
    joint_coherent_info_oracle, make_partition, random_bdmc, \
    random_density_matrix, random_kraus_channel
from qrelay.cli import CAPACITY_HEADER, load_config, run
from qrelay.codeword_sets import rate_report, set_size
from qrelay.density_ops import (DensityMatrix, bit_flip_channel,
                                coherent_information, compose_channels,
                                dephasing_channel, erasure_channel,
                                identity_channel)
from qrelay.polar_core import (BDMC, combine_bad, combine_good, error_bound,
                               monte_carlo_block_error, polarize)
from qrelay.relay import simulate_relay
from qrelay.superactivation import (P_GRID, branch_terms,
                                    build_switch_channel, compare_assisted,
                                    make_rho_ac, switch_report)


def report(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def test_c01_bec_conservation_and_recursion_oracle():
    pr = polarize(BDMC.bec(0.5), 10)
    conserved = float(np.sum(1.0 - pr.z))
    assert abs(conserved - 512.0) <= 1e-9

    # independent closed-form recursion script
    z = [0.5]
    for _ in range(10):
        nxt = []
        for val in z:
            nxt.append(2 * val - val * val)
            nxt.append(val * val)
        z = nxt
    assert np.max(np.abs(pr.z - np.array(z))) <= 1e-12
    report(1, f"sum(1-z) = {conserved!r}, oracle max dev <= 1e-12")


def test_c02_combining_identities_random_channels():
    rng = np.random.default_rng(2024)
    worst_conservation = 0.0
    for _ in range(100):
        w = random_bdmc(int(rng.integers(2, 9)), rng)
        i_w = symmetric_capacity(w)
        i_bad = symmetric_capacity(combine_bad(w))
        i_good = symmetric_capacity(combine_good(w))
        worst_conservation = max(worst_conservation,
                                 abs(i_bad + i_good - 2.0 * i_w))
        assert abs(i_bad + i_good - 2.0 * i_w) <= 1e-10
        assert i_bad <= i_w <= i_good
    report(2, f"100 channels, worst conservation dev {worst_conservation:.2e}")


def test_c03_sc_decoder_block_error_bound():
    w = BDMC.bec(0.3)
    n, k = 256, 8
    pr = polarize(w, k)
    order = np.argsort(pr.z, kind="stable")
    cumulative = np.cumsum(pr.z[order])
    cut = int(np.searchsorted(cumulative, 0.01, side="right"))
    info = [int(i) for i in order[:cut]]
    assert float(pr.z[info].sum()) <= 0.01
    first = monte_carlo_block_error(w, n, info, trials=10000, seed=2025)
    again = monte_carlo_block_error(w, n, info, trials=10000, seed=2025)
    assert first == again  # deterministic under a fixed seed
    assert first.block_error_rate <= 0.02
    report(3, f"rate = {first.block_error_rate} over 10^4 trials, "
              f"|info| = {len(info)}")


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
def test_c04_set_algebra_identities_exact():
    def check(part):
        classes = (part.s_in, part.p1, part.p2, part.b)
        assert sum(map(set_size, classes)) == part.n
        assert np.logical_or.reduce(classes).all()
        assert (set_size(part.s_in) - set_size(part.b)
                == set_size(part.good_amp) + set_size(part.good_phase)
                - part.n)
        assert np.array_equal(part.good_phase, part.p2 | part.s_in)
        assert not (part.p2 & part.s_in).any()
        # the row from the four class counts equals the literal set forms,
        # bit for bit, in CSV column order
        row = rate_report(part)
        assert tuple(row) == CAPACITY_HEADER
        assert row == capacity_row_oracle(part)
        assert (row["r_sym"] == row["relay_private_capacity"]
                == set_size(part.s_in) / part.n)

    # exhaustive over every good-set pair for small blocks
    pairs = 0
    for n in range(1, 9):
        for amp_mask in range(2 ** n):
            amp = {i for i in range(n) if amp_mask >> i & 1}
            for phase_mask in range(2 ** n):
                phase = {i for i in range(n) if phase_mask >> i & 1}
                check(make_partition(n, amp, phase))
                pairs += 1

    # n <= 16: every identity checked is invariant under index relabeling,
    # so covering every reachable cardinality triple (|amp|, |phase|,
    # |amp & phase|) with a canonical witness pair is exhaustive.
    triples = 0
    for n in range(9, 17):
        for a in range(n + 1):
            for g in range(n + 1):
                for i in range(max(0, a + g - n), min(a, g) + 1):
                    amp = set(range(a))
                    phase = set(range(i)) | set(range(a, a + g - i))
                    part = make_partition(n, amp, phase)
                    both = part.good_amp & part.good_phase
                    assert (set_size(part.s_in), set_size(both)) == (i, i)
                    check(part)
                    triples += 1

    rng = np.random.default_rng(4096)
    for _ in range(1000):
        n = 1024
        amp = {int(x) for x in np.flatnonzero(rng.random(n) < rng.random())}
        phase = {int(x) for x in np.flatnonzero(rng.random(n) < rng.random())}
        check(make_partition(n, amp, phase))
    report(4, f"{pairs} exhaustive pairs, {triples} canonical triples, "
              f"1000 random pairs, all exact and equal to the literal forms")


def test_c05_flag_decomposition_and_erasure_term():
    bell = make_rho_ac("bell")
    # The Bell input is pure, so every branch term, and the joint value,
    # is 0 for the three qubit mains. The flagged register input is mixed:
    # its branch terms are 1, 1/2, 1/2 and 0, so it tells the weights apart.
    mains = {
        "identity": (identity_channel(2), bell),
        "dephasing(0.2)": (dephasing_channel(0.2), bell),
        "dephasing(0.2) after bitflip(0.1)": (compose_channels(
            bit_flip_channel(0.1), dephasing_channel(0.2)), bell),
        "identity(4), flagged register": (
            identity_channel(4), make_rho_ac("entangled_flagged")),
    }
    worst = 0.0
    for name, (main, state) in mains.items():
        # the sweep's route: hoisted branch terms, one array expression
        branches = branch_terms(main, state)
        rep = switch_report(P_GRID, branches)
        # the oracle evaluates the assembled joint channel at each p
        want = [joint_coherent_info_oracle(build_switch_channel(p, main),
                                           state.rho_ac) for p in P_GRID]
        dev = float(np.max(np.abs(rep.i_coh_joint - np.array(want))))
        worst = max(worst, dev)
        assert dev <= 1e-9
        assert abs(branches.terms["erasure_erasure"]) <= 1e-9
    report(5, f"4 mains x {len(P_GRID)} p, worst decomposition dev "
              f"{worst:.2e}")


def test_c06_bound_shape_on_grid(tmp_path):
    config = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
              "phase_channel": {"kind": "bec", "epsilon": 0.4},
              "k": 4, "beta": 0.3,
              "main_channel": {"kind": "dephasing", "q": 0.2}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    manifest = run(load_config(str(path), command="sweep",
                               output_dir=str(tmp_path)))
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bounds = [float(row["bound_2p1p"]) for row in rows]
    peak = int(np.argmax(bounds))
    assert float(rows[peak]["p"]) == 0.5
    assert bounds.count(bounds[peak]) == 1
    i_main = branch_terms(dephasing_channel(0.2), make_rho_ac("bell")).i_main
    at_half = manifest.counters["bound_2p1p_at_half"]
    assert at_half == 0.5 * i_main  # exactly half at the maximum
    report(6, f"sweep.csv bound_2p1p peaks at p = {rows[peak]['p']}; "
              f"manifest value {at_half!r} = i_main / 2")


def test_c07_advantage_threshold_and_throughput():
    part = make_partition(1024, range(640), range(128, 768))
    s_in = set_size(part.s_in)
    assert s_in == 512
    for i in range(1, 100):
        p = i / 100.0
        assert compare_assisted(p, part).advantage == (p < 0.5)

    expected = compare_assisted(0.4, part).b
    trials = 100000
    empirical = simulate_relay(0.4, trials=trials, seed=777) / trials * s_in
    sigma = math.sqrt(0.4 * 0.6 / trials) * s_in
    assert abs(empirical - expected) <= 3.0 * sigma
    report(7, f"advantage boolean exact on 99 grid points; Monte Carlo "
              f"throughput {empirical:.2f} vs {expected:.2f} "
              f"(3 sigma = {3 * sigma:.2f})")


def test_c08_quantum_core_sanity():
    mixed = DensityMatrix(np.eye(2) / 2)
    endpoints = [(identity_channel(2), 1.0), (dephasing_channel(0.5), 0.0)]
    endpoints += [(erasure_channel(eps), 1.0 - 2.0 * eps)
                  for eps in (0.0, 0.2, 0.5, 0.8, 1.0)]
    for channel, want in endpoints:
        assert abs(coherent_information(channel, mixed) - want) <= 1e-12

    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        in_dim = int(rng.integers(2, 4))
        ch = random_kraus_channel(in_dim, int(rng.integers(2, 4)),
                                  int(rng.integers(2, 5)), rng)
        rho = random_density_matrix(in_dim, rng)
        # Gram-matrix S(E) at runtime against the dense dilation
        dev = abs(coherent_information(ch, rho)
                  - coherent_info_oracle(ch.kraus_ops, rho.entries))
        worst = max(worst, dev)
        assert dev <= 1e-9
    report(8, f"coherent information endpoints exact; worst dilation dev "
              f"{worst:.2e} over 100 random channels")


def test_c09_error_bound_arithmetic():
    want = 1024.0 * 2.0 ** -32
    got = error_bound(1024, 0.5)
    assert abs(got - want) / want <= 1e-15
    report(9, f"error_bound(1024, 0.5) = {got!r}")


def test_c10_cli_reproducibility(tmp_path):
    config = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
              "phase_channel": {"kind": "bec", "epsilon": 0.4},
              "k": 8, "beta": 0.35, "p_e2": 0.4, "trials": 100000,
              "seed": 31337}
    path = tmp_path / "relay.json"
    path.write_text(json.dumps(config), encoding="utf-8")

    digests = []
    for tag in ("a", "b", "c", "d"):
        cfg = load_config(str(path), command="relay-sim",
                          output_dir=str(tmp_path / tag))
        digests.append(run(cfg).outputs[0]["sha256"])
    assert len(set(digests)) == 1

    # a second command through the real entry point
    sweep_cfg = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
                 "phase_channel": {"kind": "bec", "epsilon": 0.4},
                 "k": 4, "beta": 0.3, "main_channel": {"kind": "identity"}}
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_cfg), encoding="utf-8")
    payloads = []
    for tag in ("s1", "s2"):
        proc = subprocess.run(
            [sys.executable, "-m", "qrelay", "sweep", "--config",
             str(sweep_path), "--out", str(tmp_path / tag)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        payloads.append((tmp_path / tag / "sweep.csv").read_bytes())
    assert payloads[0] == payloads[1]
    report(10, f"4 relay-sim digests identical across runs; "
               f"sweep CSV byte-identical across runs")
