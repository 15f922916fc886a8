"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import math
import subprocess
import sys

import numpy as np

from helpers_quantum import joint_coherent_info_oracle, make_partition, \
    random_bdmc, random_cq_channel, random_density_matrix, random_kraus_channel
from qrelay.cli import load_config, run
from qrelay.codeword_sets import eve_capacity, r_sym_nondegraded, set_size
from qrelay.density_ops import (BinaryCqChannel, DensityMatrix, apply_kraus,
                                bit_flip_channel, compose_channels,
                                cq_joint_state, dephasing_channel,
                                identity_channel, isometric_extension,
                                mutual_information, symmetric_cq_capacity,
                                trace_out)
from qrelay.polar_core import (BDMC, combine_bad, combine_good, error_bound,
                               monte_carlo_block_error, polarize,
                               symmetric_capacity)
from qrelay.relay import (RelayChannelSpec, expected_throughput,
                          relay_private_capacity, simulate_relay)
from qrelay.superactivation import (branch_terms, build_switch_channel,
                                    compare_assisted, joint_coherent_info,
                                    make_rho_ac, superactivated_bound)


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


def test_c04_set_algebra_identities_exact():
    def check(part):
        classes = (part.s_in, part.p1, part.p2, part.b)
        assert sum(map(set_size, classes)) == part.n
        assert np.logical_or.reduce(classes).all()
        assert (set_size(part.s_in) - set_size(part.b)
                == set_size(part.good_amp) + set_size(part.good_phase)
                - part.n)
        assert r_sym_nondegraded(part) == set_size(part.s_in) / part.n
        assert relay_private_capacity(part) == set_size(part.s_in) / part.n
        assert np.array_equal(part.good_phase, part.p2 | part.s_in)
        assert not (part.p2 & part.s_in).any()
        eve_capacity(part)  # must never raise

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
              f"1000 random pairs, all exact")


def test_c05_flag_decomposition_and_erasure_term():
    state = make_rho_ac("bell")
    mains = {
        "identity": identity_channel(2),
        "dephasing(0.2)": dephasing_channel(0.2),
        "dephasing(0.2) after bitflip(0.1)": compose_channels(
            bit_flip_channel(0.1), dephasing_channel(0.2)),
    }
    worst = 0.0
    for name, main in mains.items():
        branches = branch_terms(main, state)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            sc = build_switch_channel(p, main)
            rep = joint_coherent_info(sc, branches)
            # the runtime value is the weighted branch sum; the oracle
            # evaluates the assembled joint channel directly
            dev = abs(rep.i_coh_joint
                      - joint_coherent_info_oracle(sc, state.rho_ac))
            worst = max(worst, dev)
            assert dev <= 1e-9
            assert abs(rep.branch_terms["erasure_erasure"][1]) <= 1e-9
    report(5, f"15 (main, p) points, worst decomposition dev {worst:.2e}")


def test_c06_bound_shape_on_grid():
    i_coh_main = 0.8325
    grid = [i / 100.0 for i in range(1, 100)]
    values = []
    for p in grid:
        bound, p_star = superactivated_bound(p, i_coh_main)
        assert p_star == 0.5
        values.append(bound)
    peak = int(np.argmax(values))
    assert grid[peak] == 0.5
    assert values[peak] == 0.5 * i_coh_main  # exactly half at the maximum
    report(6, f"99-point grid peaks at p = {grid[peak]} with value "
              f"{values[peak]!r}")


def test_c07_advantage_threshold_and_throughput():
    part = make_partition(1024, range(640), range(128, 768))
    s_in = set_size(part.s_in)
    assert s_in == 512
    for i in range(1, 100):
        p = i / 100.0
        assert compare_assisted(p, part).advantage == (p < 0.5)

    spec = RelayChannelSpec(p_e2=0.4, partition=part)
    trials = 100000
    result = simulate_relay(spec, trials=trials, seed=777)
    empirical = result.empirical_success_rate * s_in
    sigma = math.sqrt(0.4 * 0.6 / trials) * s_in
    assert abs(empirical - expected_throughput(spec)) <= 3.0 * sigma
    report(7, f"advantage boolean exact on 99 grid points; Monte Carlo "
              f"throughput {empirical:.2f} vs {expected_throughput(spec):.2f} "
              f"(3 sigma = {3 * sigma:.2f})")


def test_c08_quantum_core_sanity():
    orthogonal = symmetric_cq_capacity(BinaryCqChannel(
        DensityMatrix.basis_state(0, 2), DensityMatrix.basis_state(1, 2)))
    assert abs(orthogonal - 1.0) <= 1e-12
    mixed = DensityMatrix.maximally_mixed(2)
    identical = symmetric_cq_capacity(BinaryCqChannel(mixed, mixed))
    assert abs(identical) <= 1e-12

    rng = np.random.default_rng(88)
    worst_mi = 0.0
    for _ in range(100):
        ch = random_cq_channel(int(rng.integers(2, 4)), rng)
        dev = abs(symmetric_cq_capacity(ch)
                  - mutual_information(cq_joint_state(ch), (2, ch.dim)))
        worst_mi = max(worst_mi, dev)
        assert dev <= 1e-10

    worst_iso = 0.0
    for _ in range(100):
        in_dim = int(rng.integers(2, 4))
        out_dim = int(rng.integers(2, 4))
        ch = random_kraus_channel(in_dim, out_dim, 2, rng)
        rho = random_density_matrix(in_dim, rng)
        u = isometric_extension(ch)
        joint = DensityMatrix(u.matrix @ rho.entries @ u.matrix.conj().T)
        via_u = trace_out(joint, [out_dim, u.env_dim], keep={0})
        dev = float(np.max(np.abs(via_u.entries
                                  - apply_kraus(ch, rho).entries)))
        worst_iso = max(worst_iso, dev)
        assert dev <= 1e-9
    report(8, f"capacity endpoints exact; worst MI dev {worst_mi:.2e}; "
              f"worst dilation dev {worst_iso:.2e}")


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
