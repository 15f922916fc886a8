"""Tests for the switch channel, joint coherent information, and the
assisted-vs-probabilistic relay comparison."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import qrelay.cli
import qrelay.superactivation
from helpers_quantum import (apply_kraus, coherent_info_oracle,
                             joint_coherent_info_oracle, joint_report,
                             make_partition, random_density_matrix,
                             random_kraus_channel)
from qrelay.cli import ConfigError, load_config, run
from qrelay.codeword_sets import set_size
from qrelay.density_ops import (DensityMatrix, bit_flip_channel,
                                coherent_information, compose_channels,
                                dephasing_channel, identity_channel,
                                tensor_channels, trace_out)
from qrelay.superactivation import (BRANCH_KEYS, P_GRID, BranchTerms,
                                    branch_terms, branch_weights,
                                    build_switch_channel, compare_assisted,
                                    joint_coherent_info, make_rho_ac,
                                    switch_report, JointInputState)

# ---------------------------------------------------------------------------
# Switch channel
# ---------------------------------------------------------------------------

def test_switch_channel_pure_main_branch():
    main = dephasing_channel(0.3)
    sc = build_switch_channel(1.0, main)
    rng = np.random.default_rng(103)
    rho = random_density_matrix(2, rng)
    out = apply_kraus(sc.channel, rho)
    # expected: embedded main output tensored with flag |0>
    main_out = apply_kraus(main, rho).entries
    want = np.zeros((6, 6), dtype=complex)
    embedded = np.zeros((3, 3), dtype=complex)
    embedded[:2, :2] = main_out
    want[0::2, 0::2] = embedded
    assert np.max(np.abs(out.entries - want)) < 1e-12


def test_switch_channel_pure_erasure_branch():
    sc = build_switch_channel(0.0, identity_channel(2))
    out = apply_kraus(sc.channel, DensityMatrix(np.diag([1.0, 0.0])))
    # erasure branch output on flag |1>: half kept, half flagged erased
    want = np.zeros((6, 6), dtype=complex)
    want[1, 1] = 0.5   # branch symbol 0, flag 1
    want[5, 5] = 0.5   # erasure symbol, flag 1
    assert np.max(np.abs(out.entries - want)) < 1e-12


def test_switch_channel_flag_marginal():
    sc = build_switch_channel(0.5, dephasing_channel(0.2))
    rng = np.random.default_rng(107)
    out = apply_kraus(sc.channel, random_density_matrix(2, rng))
    assert abs(np.trace(out.entries) - 1.0) < 1e-9
    flag = trace_out(out, [3, 2], keep={1})
    assert np.allclose(flag.entries, np.eye(2) / 2, atol=1e-9)


def test_switch_channel_probability_validation():
    with pytest.raises(ValueError, match="probability"):
        build_switch_channel(1.5, identity_channel(2))
    with pytest.raises(ValueError, match="probability"):
        build_switch_channel(-0.1, identity_channel(2))


def test_branch_terms_are_the_terms_and_i_main_only():
    # any switch channel's p weighs them; no main channel is stored
    branches = BranchTerms(terms=dict.fromkeys(BRANCH_KEYS, 0.25),
                           i_main=0.5)
    report = joint_coherent_info(
        build_switch_channel(0.5, identity_channel(2)), branches)
    assert report == (0.25, 0.25)


# ---------------------------------------------------------------------------
# Joint input states
# ---------------------------------------------------------------------------

def test_bell_input_marginals():
    state = make_rho_ac("bell")
    for side in (0, 1):
        marg = trace_out(state.rho_ac, [2, 2], keep={side})
        assert np.allclose(marg.entries, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("variant", ["literal", "alternating"])
def test_entangled_flagged_state(variant):
    state = make_rho_ac("entangled_flagged", variant=variant)
    rho = state.rho_ac
    assert rho.dim == 16 and state.side_dim == 4
    # the entangled factor reduces to I/2 on either side
    for bell_factor in (1, 3):
        marg = trace_out(rho, [2, 2, 2, 2], keep={bell_factor})
        assert np.allclose(marg.entries, np.eye(2) / 2, atol=1e-12)
    # swap symmetry via explicit permutation-matrix conjugation
    swap = np.zeros((16, 16))
    for a in range(4):
        for c in range(4):
            swap[c * 4 + a, a * 4 + c] = 1.0
    conjugated = swap @ rho.entries @ swap.T
    assert np.max(np.abs(conjugated - rho.entries)) < 1e-12


def test_entangled_flagged_variants_differ():
    lit = make_rho_ac("entangled_flagged", variant="literal").rho_ac
    alt = make_rho_ac("entangled_flagged", variant="alternating").rho_ac
    assert np.max(np.abs(lit.entries - alt.entries)) > 0.2


def test_make_rho_ac_validation():
    with pytest.raises(ValueError, match="mode"):
        make_rho_ac("unknown")
    with pytest.raises(ValueError, match="variant"):
        make_rho_ac("entangled_flagged", variant="bogus")
    # the Bell pair has no flag register for a variant to select
    for variant in ("literal", "alternating", "bogus"):
        with pytest.raises(ValueError, match="takes no variant"):
            make_rho_ac("bell", variant)
    default = make_rho_ac("entangled_flagged").rho_ac.entries
    alternating = make_rho_ac("entangled_flagged", "alternating")
    assert np.array_equal(default, alternating.rho_ac.entries)


def test_joint_input_state_rejects_asymmetric():
    asym = np.zeros((4, 4), dtype=complex)
    asym[0, 0] = 0.7  # |0>_A |0>_C weighted differently than |1>_A... no pair
    asym[1, 1] = 0.3  # |0>_A |1>_C without the mirrored |1>_A |0>_C weight
    with pytest.raises(ValueError, match="symmetric"):
        JointInputState(rho_ac=DensityMatrix(asym), side_dim=2)


# ---------------------------------------------------------------------------
# Joint coherent information
# ---------------------------------------------------------------------------

def test_joint_coherent_info_identity_main_matches_oracle():
    main = identity_channel(2)
    sc = build_switch_channel(0.5, main)
    state = make_rho_ac("bell")
    report = joint_coherent_info(sc, branch_terms(main, state))
    # independent full-density-matrix oracle on the assembled joint channel
    joint_ops = [np.kron(a, b) for a in sc.channel.kraus_ops
                 for b in sc.channel.kraus_ops]
    want = coherent_info_oracle(joint_ops, state.rho_ac.entries)
    assert abs(report.i_coh_joint - want) < 1e-9
    assert abs(report.i_coh_joint
               - joint_coherent_info_oracle(sc, state.rho_ac)) < 1e-9


def test_coherent_information_memory_on_sweep_joint_channel():
    # The two-qubit sweep's joint channel: 36 Kraus operators, 100 x 16.
    # Its dense dilation U rho U^dag alone would take 3600^2 * 16 B = 207 MB.
    sc = build_switch_channel(0.5, identity_channel(4))
    joint = tensor_channels(sc.channel, sc.channel)
    rho = make_rho_ac("entangled_flagged").rho_ac
    tracemalloc.start()
    try:
        coherent_information(joint, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_joint_coherent_info_degenerate_probabilities():
    state = make_rho_ac("bell")
    main = dephasing_channel(0.2)
    branches = branch_terms(main, state)
    for p, key in ((0.0, "erasure_erasure"), (1.0, "main_main")):
        sc = build_switch_channel(p, main)
        report = joint_coherent_info(sc, branches)
        assert dict(zip(BRANCH_KEYS, branch_weights(p)))[key] == 1.0
        assert abs(report.i_coh_joint
                   - joint_coherent_info_oracle(sc, state.rho_ac)) < 1e-9
        assert abs(report.i_coh_joint - branches.terms[key]) < 1e-9
    # both erasure branches are self-complementary
    assert abs(branches.terms["erasure_erasure"]) < 1e-9


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_flag_decomposition_identity(p):
    state = make_rho_ac("bell")
    mains = [identity_channel(2), dephasing_channel(0.2),
             compose_channels(bit_flip_channel(0.1), dephasing_channel(0.2))]
    for main in mains:
        sc = build_switch_channel(p, main)
        report = joint_coherent_info(sc, branch_terms(main, state))
        assert abs(report.i_coh_joint
                   - joint_coherent_info_oracle(sc, state.rho_ac)) < 1e-9
    weights = dict(zip(BRANCH_KEYS, branch_weights(p)))
    assert abs(sum(weights.values()) - 1.0) < 1e-12
    assert weights["main_erasure"] == pytest.approx(p * (1 - p), abs=1e-15)
    assert weights["erasure_main"] == pytest.approx(p * (1 - p), abs=1e-15)


def test_flag_decomposition_with_flagged_register_input():
    # two-qubit-input main channel driven by the flagged register state
    state = make_rho_ac("entangled_flagged", variant="alternating")
    main = identity_channel(4)
    sc = build_switch_channel(0.5, main)
    report = joint_coherent_info(sc, branch_terms(main, state))
    assert abs(report.i_coh_joint
               - joint_coherent_info_oracle(sc, state.rho_ac)) < 1e-9


def test_coefficient_extraction_from_p_sweep():
    state = make_rho_ac("bell")
    main = dephasing_channel(0.2)
    grid = [0.1, 0.25, 0.5, 0.75, 0.9]
    # fit the direct joint values against the branch-weight basis; the
    # runtime values are that basis times the hoisted terms by construction
    basis = np.array([[p * p, 2 * p * (1 - p), (1 - p) ** 2] for p in grid])
    joints = np.array([
        joint_coherent_info_oracle(build_switch_channel(p, main), state.rho_ac)
        for p in grid])
    coeffs, residuals, _, _ = np.linalg.lstsq(basis, joints, rcond=None)
    fitted = basis @ coeffs
    assert np.max(np.abs(fitted - joints)) < 1e-9
    ref = branch_terms(main, state).terms
    assert abs(coeffs[0] - ref["main_main"]) < 1e-8
    cross_mean = 0.5 * (ref["main_erasure"] + ref["erasure_main"])
    assert abs(coeffs[1] - cross_mean) < 1e-8
    assert abs(coeffs[2] - ref["erasure_erasure"]) < 1e-8
    runtime = np.array([joint_report(p, main, state).i_coh_joint
                        for p in grid])
    assert np.max(np.abs(runtime - joints)) < 1e-9


def test_joint_coherent_info_dimension_mismatch():
    with pytest.raises(ValueError, match="input dim"):
        branch_terms(identity_channel(2), make_rho_ac("entangled_flagged"))


def test_joint_coherent_info_random_two_qubit_main_matches_oracle():
    # 4 Kraus operators of 4 x 4: the switch has 9 operators of 10 x 4 and
    # the joint channel 81 of 100 x 16, past the old 4096 output x
    # environment cap of the direct route
    rng = np.random.default_rng(211)
    big_main = random_kraus_channel(4, 4, 4, rng)
    state = make_rho_ac("entangled_flagged")
    branches = branch_terms(big_main, state)
    for p in (0.2, 0.5):
        sc = build_switch_channel(p, big_main)
        report = joint_coherent_info(sc, branches)
        want = joint_coherent_info_oracle(sc, state.rho_ac)
        assert abs(report.i_coh_joint - want) < 1e-10


FULL_GRID = [i / 100.0 for i in range(1, 100)]


@pytest.mark.parametrize("main, state", [
    (identity_channel(4), make_rho_ac("entangled_flagged",
                                      variant="alternating")),
    (compose_channels(bit_flip_channel(0.1), dephasing_channel(0.2)),
     make_rho_ac("bell"))], ids=["identity4_flagged", "dephasing_bitflip_bell"])
def test_joint_coherent_info_full_grid_matches_oracle(main, state):
    branches = branch_terms(main, state)
    grid = switch_report(np.array(FULL_GRID), branches)
    worst = 0.0
    for i, p in enumerate(FULL_GRID):
        sc = build_switch_channel(p, main)
        report = joint_coherent_info(sc, branches)
        worst = max(worst, abs(report.i_coh_joint
                               - joint_coherent_info_oracle(sc, state.rho_ac)))
        # the sweep's one evaluation on the whole grid, bit for bit
        assert grid.i_coh_joint[i] == report.i_coh_joint
        assert grid.bound_2p1p[i] == report.bound_2p1p
    assert worst <= 1e-10


def test_sweep_evaluates_five_coherent_informations(tmp_path, monkeypatch):
    calls = {"coherent_information": 0, "tensor_channels": 0}

    def counted(name):
        inner = getattr(qrelay.superactivation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(qrelay.superactivation, name, counted(name))
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "amp_channel": {"kind": "bec", "epsilon": 0.3},
        "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 4,
        "beta": 0.35, "main_channel": {"kind": "identity", "dim": 4},
        "input_state": {"mode": "entangled_flagged",
                        "variant": "alternating"}}), encoding="utf-8")
    manifest = run(load_config(path, command="sweep",
                               output_dir=str(tmp_path / "out")))
    assert calls == {"coherent_information": 5, "tensor_channels": 4}
    assert manifest.counters["coherent_information_calls"] == 5
    assert manifest.counters["p_points"] == 99


# SHA-256 of sweep.csv for the benchmark's two-qubit sweep config, pinned
# from the per-point sweep code that built a switch channel for every p.
SWEEP_2QUBIT_SHA256 = (
    "c0b02486d495f23b53e16e7b0a6283b0e7cd8b9812154cd6942419145e0a804f")


def test_sweep_and_superactivate_build_no_switch_channel(tmp_path,
                                                        monkeypatch):
    def refuse(p, main):
        raise AssertionError("a switch channel was built")

    for module in (qrelay.superactivation, qrelay.cli):
        monkeypatch.setattr(module, "build_switch_channel", refuse)
    payload = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
               "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 8,
               "beta": 0.35, "main_channel": {"kind": "identity", "dim": 4},
               "input_state": {"mode": "entangled_flagged",
                               "variant": "alternating"}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    (entry,) = run(load_config(path, command="sweep",
                               output_dir=str(tmp_path / "sw"))).outputs
    with open(entry["path"], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SWEEP_2QUBIT_SHA256
    path.write_text(json.dumps({**payload, "p": 0.5}), encoding="utf-8")
    (entry,) = run(load_config(path, command="superactivate",
                               output_dir=str(tmp_path / "sa"))).outputs
    assert entry["rows"] == 1


def test_branch_weights_sum_to_one_on_unit_interval():
    p = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(sum(branch_weights(p)) - 1.0)) <= 1e-12


def test_branch_weights_reject_p_outside_unit_interval():
    # each p array is checked as a whole; at p = 1e9 the four weights would
    # cancel to rounding error instead of summing to one
    for p in (1e9, -0.1, np.array([0.5, 1e9]), np.array([-0.1, 0.5])):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            branch_weights(p)
    branches = branch_terms(dephasing_channel(0.2), make_rho_ac("bell"))
    with pytest.raises(ValueError, match="branch probability"):
        switch_report(np.array([0.5, 1e9]), branches)


# ---------------------------------------------------------------------------
# The 2p(1-p) bound and the comparison
# ---------------------------------------------------------------------------

def _bound(p, i_main):
    """The sweep's bound_2p1p column at p for a main channel whose coherent
    information is i_main."""
    branches = BranchTerms(terms=dict.fromkeys(BRANCH_KEYS, 0.0),
                           i_main=i_main)
    return switch_report(p, branches).bound_2p1p


def test_superactivated_bound_midpoint():
    assert _bound(0.5, 1.0) == 0.5
    assert P_GRID[np.argmax(_bound(P_GRID, 1.0))] == 0.5


def test_superactivated_bound_vanishes_at_edges():
    for p in (0.001, 0.999):
        assert _bound(p, 1.0) < 0.01


def test_superactivated_bound_grid_argmax():
    for i_coh in (0.2, 0.7, 1.0):
        assert P_GRID[np.argmax(_bound(P_GRID, i_coh))] == 0.5


def test_superactivated_bound_concave_unique_maximum():
    values = _bound(P_GRID, 1.0).tolist()
    peak = int(np.argmax(values))
    assert values[:peak] == sorted(values[:peak])
    assert values[peak:] == sorted(values[peak:], reverse=True)
    assert abs(values[peak] - 0.5) < 1e-12


def test_superactivated_bound_validation(tmp_path):
    # superactivate takes its one p strictly inside (0, 1)
    path = tmp_path / "sa.json"
    for p in (0.0, 1.0):
        path.write_text(json.dumps({
            "amp_channel": {"kind": "bec", "epsilon": 0.3},
            "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 4,
            "beta": 0.35, "main_channel": {"kind": "identity"}, "p": p}),
            encoding="utf-8")
        with pytest.raises(ConfigError, match="p must be a number strictly"):
            load_config(path, command="superactivate")


def test_compare_assisted_cases():
    part = make_partition(128, range(100), range(100))
    assert set_size(part.s_in) == 100
    low = compare_assisted(0.3, part)
    assert low.b_star == 50.0 and low.b == pytest.approx(30.0)
    assert low.advantage
    mid = compare_assisted(0.5, part)
    assert mid.b_star == mid.b and not mid.advantage
    high = compare_assisted(0.7, part)
    assert not high.advantage


def test_compare_assisted_threshold_grid():
    part = make_partition(64, range(40), range(20, 60))
    grid = compare_assisted(np.arange(1, 100) / 100.0, part)
    for i in range(1, 100):
        p = i / 100.0
        cmp_ = compare_assisted(p, part)
        assert cmp_.advantage == (p < 0.5)
        assert grid.advantage[i - 1] == cmp_.advantage
        assert grid.b[i - 1] == cmp_.b
        # half-block form never undercuts half the private fraction
        assert cmp_.b_star >= 0.5 * set_size(part.s_in)


def test_compare_assisted_validation():
    part = make_partition(4, {0}, {0})
    with pytest.raises(ValueError):
        compare_assisted(0.0, part)
    with pytest.raises(ValueError):
        compare_assisted(1.0, part)
    with pytest.raises(ValueError):
        compare_assisted(np.array([0.5, 1.0]), part)

