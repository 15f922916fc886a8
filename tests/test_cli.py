"""Tests for config loading, the experiment runner, and reproducibility."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from helpers_csv import csv_bytes_from_columns
from qrelay.cli import (CSV_BLOCK_ROWS, ConfigError, _format_value, _write_csv,
                        build_classical_channel, build_quantum_channel,
                        load_config, main, render_report, run)

# SHA-256 of the k = 20 outputs of polarize on BEC(0.3) and of sets on
# BEC(0.3)/BEC(0.4), both at beta = 0.35.
POLARIZATION_K20_SHA256 = (
    "0cad72e4d89d1eef6ee87e70c7ea547589356b1577b75b353453e7a471e6b8ea")
PARTITION_K20_SHA256 = (
    "f9b9c2b282f435c068d9a55092b55499ab51841b97a7ce32e3ccc251a7896659")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def polarize_config(tmp_path, **overrides):
    payload = {"channel": {"kind": "bec", "epsilon": 0.5}, "k": 4,
               "beta": 0.45}
    payload.update(overrides)
    return write_config(tmp_path, "polarize.json", payload)


def dual_config(tmp_path, name="dual.json", **overrides):
    payload = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
               "phase_channel": {"kind": "bec", "epsilon": 0.4},
               "k": 6, "beta": 0.3}
    payload.update(overrides)
    return write_config(tmp_path, name, payload)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_load_minimal_polarize_config(tmp_path):
    cfg = load_config(polarize_config(tmp_path), command="polarize")
    assert cfg.command == "polarize"
    assert cfg.seed == 0 and cfg.k == 4


def test_load_config_rejects_large_beta(tmp_path):
    path = polarize_config(tmp_path, beta=0.6)
    with pytest.raises(ConfigError) as err:
        load_config(path, command="polarize")
    assert any("0.5" in v for v in err.value.violations)


def test_load_config_rejects_zero_trials(tmp_path):
    path = dual_config(tmp_path, p_e2=0.3, trials=0)
    with pytest.raises(ConfigError) as err:
        load_config(path, command="relay-sim")
    assert any("trials" in v for v in err.value.violations)


def test_load_config_collects_all_violations(tmp_path):
    path = write_config(tmp_path, "bad.json", {
        "channel": {"kind": "nonsense"}, "k": 0, "beta": 0.9, "seed": -1})
    with pytest.raises(ConfigError) as err:
        load_config(path, command="polarize")
    text = " ".join(err.value.violations)
    for fragment in ("beta", "k must", "seed", "channel invalid"):
        assert fragment in text
    assert len(err.value.violations) >= 4


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"), command="polarize")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path), command="polarize")


def test_load_config_command_conflict(tmp_path):
    path = polarize_config(tmp_path, command="sweep")
    with pytest.raises(ConfigError, match="conflicts"):
        load_config(path, command="polarize")


def test_load_config_missing_required_fields(tmp_path):
    path = write_config(tmp_path, "thin.json", {"k": 3})
    with pytest.raises(ConfigError) as err:
        load_config(path, command="sets")
    assert any("amp_channel" in v for v in err.value.violations)


def test_cli_overrides_take_precedence(tmp_path):
    path = polarize_config(tmp_path, seed=9)
    cfg = load_config(path, command="polarize", seed=42,
                      output_dir=str(tmp_path / "out"))
    assert cfg.seed == 42
    assert cfg.output_dir.endswith("out")


def test_channel_builders_reject_unknown_kinds():
    with pytest.raises(ValueError, match="classical"):
        build_classical_channel({"kind": "awgn"})
    with pytest.raises(ValueError, match="quantum"):
        build_quantum_channel({"kind": "teleport"})
    composed = build_quantum_channel(
        {"kind": "compose", "stages": [{"kind": "bit_flip", "q": 0.1},
                                       {"kind": "dephasing", "q": 0.2}]})
    assert composed.in_dim == 2


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_run_polarize_row_count(tmp_path):
    cfg = load_config(polarize_config(tmp_path, k=10), command="polarize",
                      output_dir=str(tmp_path / "run"))
    manifest = run(cfg)
    csv_path = manifest.outputs[0]["path"]
    lines = open(csv_path, encoding="utf-8").read().strip().split("\n")
    assert lines[0] == "index,z,set"
    assert len(lines) == 1025
    report = render_report(manifest)
    assert "n = 1024" in report and "|good|" in report


def test_run_sets_and_capacity(tmp_path):
    cfg = load_config(dual_config(tmp_path), command="sets",
                      output_dir=str(tmp_path / "sets"))
    manifest = run(cfg)
    report = render_report(manifest)
    assert "|S_in|" in report
    cfg2 = load_config(dual_config(tmp_path, name="cap.json"),
                       command="capacity", output_dir=str(tmp_path / "cap"))
    manifest2 = run(cfg2)
    header, rows = open(manifest2.outputs[0]["path"]).read().strip().split("\n")
    assert header.startswith("n,size_s_in")
    values = rows.split(",")
    assert int(values[0]) == 64


def test_run_relay_sim_deterministic(tmp_path):
    path = dual_config(tmp_path, p_e2=0.3, trials=20000, seed=5)
    digests = []
    for tag in ("a", "b"):
        cfg = load_config(path, command="relay-sim",
                          output_dir=str(tmp_path / tag))
        manifest = run(cfg)
        digests.append(manifest.outputs[0]["sha256"])
    assert digests[0] == digests[1]
    report = render_report(manifest)
    assert "rate = " in report and "expected_throughput" in report


def test_run_relay_sim_reproducible_across_runs(tmp_path):
    path = dual_config(tmp_path, p_e2=0.4, trials=10000, seed=12)
    digests = []
    for tag in ("r1", "r2"):
        cfg = load_config(path, command="relay-sim",
                          output_dir=str(tmp_path / tag))
        digests.append(run(cfg).outputs[0]["sha256"])
    assert digests[0] == digests[1]


def test_run_sweep_advantage_flip(tmp_path):
    path = dual_config(tmp_path, name="sweep.json", k=4,
                       main_channel={"kind": "identity"})
    cfg = load_config(path, command="sweep", output_dir=str(tmp_path / "sw"))
    manifest = run(cfg)
    lines = open(manifest.outputs[0]["path"]).read().strip().split("\n")
    assert len(lines) == 100  # header + 99 grid points
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        p = float(row[0])
        assert row[9] == ("true" if p < 0.5 else "false")
    report = render_report(manifest)
    assert "advantage flips at p = 0.5" in report


def test_run_superactivate_bound_report(tmp_path):
    path = dual_config(tmp_path, name="sup.json", k=4, p=0.5,
                       main_channel={"kind": "identity"})
    cfg = load_config(path, command="superactivate",
                      output_dir=str(tmp_path / "sup"))
    manifest = run(cfg)
    report = render_report(manifest)
    assert "bound_2p1p = 0.5" in report


def test_render_report_empty_manifest():
    from qrelay.cli import RunManifest
    manifest = RunManifest(command="polarize", config={}, version="0",
                           duration_seconds=0.0, outputs=[], output_dir=".",
                           counters={})
    assert "no outputs" in render_report(manifest)


def test_render_report_missing_file(tmp_path):
    from qrelay.cli import RunManifest
    manifest = RunManifest(command="polarize", config={}, version="0",
                           duration_seconds=0.0,
                           outputs=[{"path": str(tmp_path / "gone.csv"),
                                     "sha256": "0"}],
                           output_dir=str(tmp_path), counters={})
    with pytest.raises(ValueError, match="missing output"):
        render_report(manifest)


def test_manifest_written(tmp_path):
    cfg = load_config(polarize_config(tmp_path), command="polarize",
                      output_dir=str(tmp_path / "m"))
    manifest = run(cfg)
    on_disk = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert on_disk["command"] == "polarize"
    assert on_disk["outputs"] == manifest.outputs
    assert on_disk["version"] == manifest.version
    assert on_disk["counters"] == manifest.counters


def _csv_counts(path, column):
    labels = [line.split(",")[column] for line in
              open(path, encoding="utf-8").read().strip().split("\n")[1:]]
    return {label: labels.count(label) for label in set(labels)}


def test_manifest_counters_match_outputs(tmp_path):
    # the report renders from these counts instead of re-reading the CSV
    cfg = load_config(polarize_config(tmp_path, k=8), command="polarize",
                      output_dir=str(tmp_path / "p"))
    manifest = run(cfg)
    counts = _csv_counts(manifest.outputs[0]["path"], 2)
    assert manifest.counters == {"n": 256, "size_good": counts["good"],
                                 "size_bad": counts["bad"]}
    assert (f"n = 256, |good| = {counts['good']}, |bad| = {counts['bad']}, "
            f"capacity estimate = {counts['good'] / 256:.6g}"
            in render_report(manifest))

    cfg = load_config(dual_config(tmp_path, k=8), command="sets",
                      output_dir=str(tmp_path / "s"))
    manifest = run(cfg)
    counts = _csv_counts(manifest.outputs[0]["path"], 1)
    sizes = {f"size_{name.lower()}": counts.get(name, 0)
             for name in ("S_in", "P1", "P2", "B")}
    assert manifest.counters == {"n": 256, **sizes}
    assert ", ".join(f"|{name}| = {counts.get(name, 0)}"
                     for name in ("S_in", "P1", "P2", "B")) \
        in render_report(manifest)

    # capacity and relay-sim counters hold their CSV row, which the
    # report prints from them
    cfg = load_config(dual_config(tmp_path, name="cap.json", k=8),
                      command="capacity", output_dir=str(tmp_path / "c"))
    manifest = run(cfg)
    header, row = _csv_row(manifest.outputs[0]["path"])
    assert list(manifest.counters) == header
    assert [_format_value(manifest.counters[key]) for key in header] == row
    assert {key: manifest.counters[key] for key in sizes} == sizes
    assert manifest.counters["n"] == 256

    cfg = load_config(dual_config(tmp_path, name="sim.json", k=8, p_e2=0.3,
                                  trials=5000, seed=4),
                      command="relay-sim", output_dir=str(tmp_path / "r"))
    manifest = run(cfg)
    header, row = _csv_row(manifest.outputs[0]["path"])
    assert set(manifest.counters) == {"n", *sizes, *header}
    assert {key: manifest.counters[key] for key in sizes} == sizes
    assert [_format_value(manifest.counters[key]) for key in header] == row
    assert manifest.counters["trials"] == 5000
    assert manifest.counters["successes"] == int(row[2])

    cfg = load_config(dual_config(tmp_path, name="sw.json", k=4,
                                  main_channel={"kind": "dephasing",
                                                "q": 0.2}),
                      command="sweep", output_dir=str(tmp_path / "w"))
    manifest = run(cfg)
    rows = [line.split(",") for line in open(
        manifest.outputs[0]["path"], encoding="utf-8").read().split("\n")[1:-1]]
    mid = [r for r in rows if r[0] == "0.5"]
    bound = manifest.counters.pop("bound_2p1p_at_half")
    assert manifest.counters == {
        "p_points": 99, "main_kraus": 2, "main_in_dim": 2, "main_out_dim": 2,
        "coherent_information_calls": 5, "advantage_flip_p": 0.5}
    assert _format_value(bound) == mid[0][6]


def _csv_row(path):
    """Header and first row of a one-row CSV, as strings."""
    with open(path, encoding="utf-8") as fh:
        header, row = fh.read().strip().split("\n")
    return header.split(","), row.split(",")


# Summary lines printed between the title and "data files:" by the
# CSV-reading report that the counter-based one replaced.
_BASE = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
         "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 6,
         "beta": 0.3}
PINNED_REPORTS = [
    ("capacity", dict(_BASE), [
        "  n = 64", "  size_s_in = 16", "  size_p1 = 6", "  size_p2 = 0",
        "  size_b = 42", "  p_sym_degraded = 0.25",
        "  p_sym_nondegraded = -0.40625", "  r_sym = 0.25",
        "  c_bob = 0.90625", "  c_eve_total = 0.09375",
        "  c_eve_p1 = 0.09375", "  eve_section_e1e2 = 0.25",
        "  eve_section_e2d = 0.25", "  relay_private_capacity = 0.25",
        "  relay_capacity_min = 0.25"]),
    ("relay-sim", dict(_BASE, p_e2=0.3, trials=2000, seed=5), [
        "  p_e2 = 0.3", "  trials = 2000", "  successes = 560",
        "  rate = 0.28", "  expected_throughput = 4.8",
        "  b_star_throughput = 8"]),
    ("sweep", dict(_BASE, k=4, main_channel={"kind": "dephasing", "q": 0.2}),
     ["  at p = 0.5: bound_2p1p = 0.139035952556 (half the main coherent "
      "information)", "  advantage flips at p = 0.5", "  rows = 99"]),
    ("superactivate", dict(_BASE, k=4, p=0.5,
                           main_channel={"kind": "identity", "dim": 4}),
     ["  at p = 0.5: bound_2p1p = 1 (half the main coherent information)",
      "  rows = 1"]),
    ("superactivate", dict(_BASE, k=4, p=0.3,
                           main_channel={"kind": "identity"}),
     ["  rows = 1"]),
]


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
@pytest.mark.parametrize("command, payload, body", PINNED_REPORTS,
                         ids=["capacity", "relay-sim", "sweep",
                              "superactivate", "superactivate-p0.3"])
def test_render_report_pinned_text(tmp_path, command, payload, body):
    path = write_config(tmp_path, "pin.json", payload)
    manifest = run(load_config(path, command=command,
                               output_dir=str(tmp_path / "out")))
    (out,) = manifest.outputs
    lines = render_report(manifest).split("\n")
    assert lines[0].startswith(f"qrelay {command} (v")
    assert lines[1:] == body + [
        "data files:", f"  {out['path']}  sha256 {out['sha256'][:12]}"]


def test_run_k20_outputs_match_pinned_digests(tmp_path):
    cases = (("polarize", polarize_config(
                 tmp_path, channel={"kind": "bec", "epsilon": 0.3}, k=20,
                 beta=0.35), POLARIZATION_K20_SHA256),
             ("sets", dual_config(tmp_path, k=20, beta=0.35),
              PARTITION_K20_SHA256))
    for command, path, want in cases:
        cfg = load_config(path, command=command,
                          output_dir=str(tmp_path / command))
        (entry,) = run(cfg).outputs
        with open(entry["path"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want
        assert entry["sha256"] == want


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2, 1.0 - 2.0 ** -53,
                  -0.0, -1.5e300, 123456789012.5, 1e16, math.inf, -math.inf,
                  math.nan]


def _writer_columns(rows, rng):
    floats = rng.random(rows) * 10.0 ** rng.integers(-320, 300, size=rows)
    floats[:min(rows, len(SPECIAL_FLOATS))] = SPECIAL_FLOATS[:rows]
    mixed = [(True, 7, 0.25, "x", None)[i % 5] for i in range(rows)]
    return (np.arange(rows), rng.integers(-2 ** 62, 2 ** 62, size=rows),
            np.arange(rows, dtype=np.uint8), floats, rng.random(rows),
            rng.random(rows).astype(np.float32), rng.random(rows) < 0.5,
            np.where(rng.random(rows) < 0.5, "good", "bad"),
            [float(v) for v in rng.random(rows)], mixed)


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_row_oracle(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = _writer_columns(rows, rng)
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "out.csv"
    digest = _write_csv(path, header, columns)
    want = csv_bytes_from_columns(header, columns)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="equal-length"):
        _write_csv(tmp_path / "r.csv", ("a", "b"), (np.arange(3), [1, 2]))
    with pytest.raises(ValueError, match="equal-length"):
        _write_csv(tmp_path / "r.csv", ("a", "b"), (np.arange(3),))


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_success_and_exit_codes(tmp_path, capsys):
    path = polarize_config(tmp_path)
    rc = main(["polarize", "--config", path, "--out", str(tmp_path / "ok")])
    assert rc == 0
    assert "qrelay polarize" in capsys.readouterr().out


def test_main_config_error_exit_code(tmp_path, capsys):
    path = polarize_config(tmp_path, beta=0.9)
    rc = main(["polarize", "--config", path])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("k", True), ("trials", True), ("seed", False),
    ("beta", "0.3"), ("beta", True), ("p_e2", "0.4"), ("p_e2", True),
    ("p", "0.5"), ("p", False)])
def test_main_rejects_mistyped_scalars(tmp_path, capsys, field, value):
    overrides = {"p_e2": 0.3, "trials": 100, field: value}
    path = dual_config(tmp_path, name="typed.json", **overrides)
    rc = main(["relay-sim", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field} must" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, fragment", [
    ({"relay_channels": {"e1e2": {"kind": "nope"}}},
     "relay_channels.e1e2 invalid"),
    ({"relay_channels": {"e2d": None}}, "relay_channels.e2d invalid"),
    ({"relay_channels": {"relay": {"kind": "bsc", "p": 0.1}}},
     "relay_channels has unknown hop 'relay'"),
    ({"relay_channels": [{"kind": "bsc", "p": 0.1}]},
     "relay_channels must be a JSON object"),
    ({"input_state": "bell"}, "input_state must be a JSON object")])
def test_main_rejects_bad_relay_channels_and_input_state(
        tmp_path, capsys, overrides, fragment):
    path = dual_config(tmp_path, name="hops.json", p_e2=0.3, trials=100,
                       **overrides)
    rc = main(["relay-sim", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("overrides, fragment", [
    ({"relay_channels": {"e1e2": None}},
     "relay_channels.e1e2 invalid: channel spec must be a JSON object"),
    ({"main_channel": {"kind": "compose",
                       "stages": [{"kind": "dephasing", "q": 0.1}, None]}},
     "main_channel invalid: channel spec must be a JSON object"),
    ({"main_channel": {"kind": "identity", "dim": 2.5}},
     "main_channel invalid: dim must be an integer >= 1"),
    ({"main_channel": {"kind": "identity", "dim": True}},
     "main_channel invalid: dim must be an integer >= 1"),
    ({"main_channel": {"kind": "identity", "dim": 0}},
     "main_channel invalid: dim must be an integer >= 1"),
    ({"main_channel": {"kind": "erasure", "epsilon": 0.5, "in_dim": 2.0}},
     "main_channel invalid: in_dim must be an integer >= 1"),
    ({"amp_channel": {"kind": "bec", "epsilon": "0.3"}},
     "amp_channel invalid: epsilon must be a number"),
    ({"phase_channel": {"kind": "bsc", "p": True}},
     "phase_channel invalid: p must be a number"),
    ({"main_channel": {"kind": "depolarizing", "q": "0.1"}},
     "main_channel invalid: q must be a number")])
def test_main_rejects_malformed_channel_specs(tmp_path, capsys, overrides,
                                              fragment):
    payload = {"k": 4, "p": 0.5, "main_channel": {"kind": "identity"}}
    payload.update(overrides)
    path = dual_config(tmp_path, name="specs.json", **payload)
    rc = main(["superactivate", "--config", path,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("main_channel, input_state, fragment", [
    ({"kind": "identity", "dim": 4}, {"mode": "bogus"},
     "input_state.mode must be one of"),
    ({"kind": "identity", "dim": 4},
     {"mode": "entangled_flagged", "variant": "x"},
     "input_state.variant must be one of"),
    ({"kind": "identity", "dim": 4}, {"mode": "bell"},
     "input_state.mode 'bell' needs a main_channel with in_dim 2, got 4"),
    ({"kind": "dephasing", "q": 0.1}, {"mode": "entangled_flagged"},
     "'entangled_flagged' needs a main_channel with in_dim 4, got 2"),
    ({"kind": "identity", "dim": 3}, {},
     "'entangled_flagged' needs a main_channel with in_dim 4, got 3")])
def test_main_rejects_bad_input_state(tmp_path, capsys, main_channel,
                                      input_state, fragment):
    path = dual_config(tmp_path, name="state.json", k=4,
                       main_channel=main_channel, input_state=input_state)
    rc = main(["sweep", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("main_channel, input_state", [
    ({"kind": "identity"}, None),
    ({"kind": "depolarizing", "q": 0.1}, {"mode": "bell"}),
    ({"kind": "identity", "dim": 4}, None),
    ({"kind": "identity", "dim": 4},
     {"mode": "entangled_flagged", "variant": "literal"})])
def test_load_config_accepts_matching_input_state(tmp_path, main_channel,
                                                  input_state):
    overrides = {"main_channel": main_channel}
    if input_state is not None:
        overrides["input_state"] = input_state
    cfg = load_config(dual_config(tmp_path, name="ok.json", **overrides),
                      command="sweep")
    assert cfg.main_channel == main_channel


def test_main_superactivate_on_erasure_main_with_two_qubit_input(
        tmp_path, capsys):
    # the direct joint route stopped this config at its 4096 dimension cap
    path = dual_config(tmp_path, name="er.json", k=4, p=0.5,
                       main_channel={"kind": "erasure", "epsilon": 0.5,
                                     "in_dim": 4})
    rc = main(["superactivate", "--config", path,
               "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err
    assert "rows = 1" in capsys.readouterr().out


def test_main_rejects_main_channel_over_branch_bound(tmp_path, capsys):
    # 64 Kraus operators: the main x main Gram matrix alone is 4096^2
    depolarizing = {"kind": "depolarizing", "q": 0.1}
    path = dual_config(tmp_path, name="big.json", k=4, p=0.5,
                       main_channel={"kind": "compose",
                                     "stages": [depolarizing] * 3})
    for command in ("sweep", "superactivate"):
        rc = main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error: main_channel too large" in \
            capsys.readouterr().err


def test_main_rejects_non_finite_table(tmp_path, capsys):
    # json parses NaN and Infinity; such a table used to run and label
    # every index bad
    for bad in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "nan.json"
        path.write_text('{"channel": {"kind": "table", "w": [[%s, 1.0], '
                        '[0.5, 0.5]]}, "k": 3, "beta": 0.3}' % bad,
                        encoding="utf-8")
        rc = main(["polarize", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ("config error: channel invalid: transition probabilities "
                "must be finite") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_main_missing_config_exit_code(tmp_path, capsys):
    rc = main(["polarize", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_main_runtime_error_exit_code(tmp_path, capsys):
    # valid config whose input-state mode cannot be built at run time
    path = dual_config(tmp_path, name="rt.json", k=4, p=0.5,
                       main_channel={"kind": "identity"},
                       input_state={"mode": "phase_set_state"})
    rc = main(["superactivate", "--config", path,
               "--out", str(tmp_path / "rt")])
    assert rc == 3
    assert "runtime error" in capsys.readouterr().err


def test_cli_subprocess_round_trip(tmp_path):
    path = polarize_config(tmp_path, k=6)
    out_a = tmp_path / "proc_a"
    out_b = tmp_path / "proc_b"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "qrelay", "polarize", "--config", path,
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert (out_a / "polarization.csv").read_bytes() == \
        (out_b / "polarization.csv").read_bytes()
