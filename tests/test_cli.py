"""Tests for config loading, the experiment runner, and reproducibility."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_csv import (csv_bytes_from_columns, csv_bytes_from_rows,
                         digit_tables_oracle, format_cell)
from qrelay import cli
from qrelay.polar_core import polarize
from qrelay.cli import (COMMANDS, CSV_BLOCK_ROWS, ConfigError,
                        ExperimentConfig, _write_csv,
                        build_classical_channel, build_quantum_channel,
                        load_config, main, render_report, run)

# SHA-256 of the k = 20 outputs of polarize on BEC(0.3) and of sets and
# capacity on BEC(0.3)/BEC(0.4), and of polarize on BSC(0.11) at k = 5,
# all at beta = 0.35: the files the benchmark pins.
POLARIZATION_K20_SHA256 = (
    "0cad72e4d89d1eef6ee87e70c7ea547589356b1577b75b353453e7a471e6b8ea")
PARTITION_K20_SHA256 = (
    "f9b9c2b282f435c068d9a55092b55499ab51841b97a7ce32e3ccc251a7896659")
CAPACITY_K20_SHA256 = (
    "6ecb9e3a3854c36ac6b22d8be2748d2eaaaf5ac538f3ae1de2315969d92af299")
POLARIZATION_BSC_K5_SHA256 = (
    "23a01e77ab389c563c49b0acc4698f2d1545dd7a27c313a8bb742013d36ec1ea")


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


def test_load_config_rejects_trials_past_the_counter_space(tmp_path):
    # trial indices fill one 64-bit counter word and the count is a uint64
    # CSV cell: 2^64 - 1 trials fit, and a larger count used to loop for
    # hours before the stream raised
    path = dual_config(tmp_path, p_e2=0.3, trials=2 ** 64 - 1)
    assert load_config(path, command="relay-sim").trials == 2 ** 64 - 1
    for trials in (2 ** 64, 2 ** 64 + 5):
        path = dual_config(tmp_path, p_e2=0.3, trials=trials)
        with pytest.raises(ConfigError) as err:
            load_config(path, command="relay-sim")
        assert err.value.violations == [
            f"trials must be an integer in [1, 2^64 - 1], got {trials}"]


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


CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(ExperimentConfig)
                     if f.name != "raw")


def either(first, second):
    """``first`` or ``second`` at even odds; ``|`` would weight each by its
    number of alternatives."""
    return st.booleans().flatmap(lambda pick: first if pick else second)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6) | st.sampled_from(COMMANDS))
SHALLOW_VALUES = either(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3))
CHANNEL_SPECS = st.deferred(lambda: st.fixed_dictionaries(
    {"kind": either(st.sampled_from(["bec", "bsc", "table", "identity",
                                     "dephasing", "bit_flip", "depolarizing",
                                     "erasure", "compose"]),
                    SHALLOW_VALUES)},
    optional={
        **{name: either(st.integers(min_value=0, max_value=9), SHALLOW_VALUES)
           for name in ("epsilon", "p", "q", "dim", "in_dim")},
        "mode": either(st.sampled_from(["bell", "entangled_flagged"]),
                       SHALLOW_VALUES),
        "variant": either(st.sampled_from(["literal", "alternating"]),
                          SHALLOW_VALUES),
        "w": st.lists(SHALLOW_VALUES, max_size=3),
        "stages": either(st.lists(CHANNEL_SPECS, max_size=3),
                         SHALLOW_VALUES)}))

# Each known key, present about half the time, valued by a
# channel-spec-shaped object or a shallow JSON value; plus up to two
# unknown keys.
ABSENT = object()
ARBITRARY_CONFIGS = st.builds(
    lambda known, unknown: {**unknown, **{key: value for key, value
                                          in known.items()
                                          if value is not ABSENT}},
    st.fixed_dictionaries({
        key: either(st.just(ABSENT),
                    either(CHANNEL_SPECS, SHALLOW_VALUES)
                    if key.endswith("channel") or key == "input_state"
                    else SHALLOW_VALUES)
        for key in CONFIG_KEYS}),
    st.dictionaries(st.text(max_size=8), SHALLOW_VALUES, max_size=2))


def test_channel_builders_reject_unknown_kinds():
    with pytest.raises(ValueError, match="classical"):
        build_classical_channel({"kind": "awgn"})
    with pytest.raises(ValueError, match="quantum"):
        build_quantum_channel({"kind": "teleport"})
    composed = build_quantum_channel(
        {"kind": "compose", "stages": [{"kind": "bit_flip", "q": 0.1},
                                       {"kind": "dephasing", "q": 0.2}]})
    assert composed.in_dim == 2


LEAF_SPECS = [{"kind": "identity", "dim": dim} for dim in (1, 2, 4)] + [
    {"kind": kind, "q": q} for kind in ("dephasing", "bit_flip", "depolarizing")
    for q in (0, 0.1)] + [
    {"kind": "erasure", "epsilon": 0.3, "in_dim": dim} for dim in (2, 4)]


@pytest.mark.parametrize("spec", LEAF_SPECS, ids=lambda spec: "-".join(
    str(value) for value in spec.values()))
def test_leaf_shapes_match_built_channels(spec):
    # the memory bound is computed from these shapes before allocation
    ((shape, _),) = cli._leaves(spec)
    channel = build_quantum_channel(spec)
    assert shape == (channel.in_dim, channel.out_dim, len(channel.kraus_ops))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_run_polarize_row_count(tmp_path):
    cfg = load_config(polarize_config(tmp_path, k=10), command="polarize",
                      output_dir=str(tmp_path / "run"))
    manifest = run(cfg)
    csv_path = manifest.outputs[0]["path"]
    lines = Path(csv_path).read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "index,z,set"
    assert len(lines) == 1025
    counters = render_report(manifest).split("\n")[1:5]
    assert counters[0] == "  n = 1024"
    assert counters[1].startswith("  size_good = ")


# the capacity rows of the small BEC configs below are negative, and say so
NEGATIVE_P_SYM = "p_sym_nondegraded is negative"


def test_run_sets_and_capacity(tmp_path):
    cfg = load_config(dual_config(tmp_path), command="sets",
                      output_dir=str(tmp_path / "sets"))
    manifest = run(cfg)
    assert render_report(manifest).split("\n")[2].startswith("  size_s_in = ")
    cfg2 = load_config(dual_config(tmp_path, name="cap.json"),
                       command="capacity", output_dir=str(tmp_path / "cap"))
    with pytest.warns(UserWarning, match=NEGATIVE_P_SYM):
        manifest2 = run(cfg2)
    header, rows = (Path(manifest2.outputs[0]["path"]).read_text()
                    .strip().split("\n"))
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
    counters = render_report(manifest).split("\n")[6:12]
    assert counters[3].startswith("  rate = ")
    assert counters[4].startswith("  expected_throughput = ")


def test_run_relay_sim_reproducible_across_runs(tmp_path):
    path = dual_config(tmp_path, p_e2=0.4, trials=10000, seed=12)
    digests = []
    for tag in ("r1", "r2"):
        cfg = load_config(path, command="relay-sim",
                          output_dir=str(tmp_path / tag))
        digests.append(run(cfg).outputs[0]["sha256"])
    assert digests[0] == digests[1]


def test_relay_sim_and_sweep_share_the_throughput_formula(tmp_path):
    # relay-sim's two throughputs are the sweep's b and b_star at p = p_e2
    fields = {"relay-sim": {"p_e2": 0.4, "trials": 10},
              "sweep": {"main_channel": {"kind": "dephasing", "q": 0.2}}}
    tables = {}
    for command, extra in fields.items():
        path = dual_config(tmp_path, name=f"{command}.json", k=8, **extra)
        cfg = load_config(path, command=command,
                          output_dir=str(tmp_path / command))
        with open(run(cfg).outputs[0]["path"], encoding="utf-8") as fh:
            tables[command] = list(csv.DictReader(fh))
    (sim,) = tables["relay-sim"]
    (at_p_e2,) = [row for row in tables["sweep"] if row["p"] == "0.4"]
    assert float(sim["b_star_throughput"]) > 0
    assert (sim["expected_throughput"], sim["b_star_throughput"]) == (
        at_p_e2["b"], at_p_e2["b_star"])


def test_run_sweep_advantage_flip(tmp_path):
    path = dual_config(tmp_path, name="sweep.json", k=4,
                       main_channel={"kind": "identity"})
    cfg = load_config(path, command="sweep", output_dir=str(tmp_path / "sw"))
    manifest = run(cfg)
    lines = Path(manifest.outputs[0]["path"]).read_text().strip().split("\n")
    assert len(lines) == 100  # header + 99 grid points
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        p = float(row[0])
        assert row[9] == ("true" if p < 0.5 else "false")
    assert "  advantage_flip_p = 0.5" in render_report(manifest).split("\n")


def test_run_superactivate_bound_report(tmp_path):
    path = dual_config(tmp_path, name="sup.json", k=4, p=0.5,
                       main_channel={"kind": "identity"})
    cfg = load_config(path, command="superactivate",
                      output_dir=str(tmp_path / "sup"))
    manifest = run(cfg)
    assert ("  bound_2p1p_at_half = 0.5"
            in render_report(manifest).split("\n"))


def test_manifest_written(tmp_path):
    cfg = load_config(polarize_config(tmp_path), command="polarize",
                      output_dir=str(tmp_path / "m"))
    manifest = run(cfg)
    on_disk = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert on_disk["command"] == "polarize"
    assert on_disk["outputs"] == manifest.outputs
    assert on_disk["version"] == manifest.version
    assert on_disk["counters"] == manifest.counters


def test_rerun_replaces_outputs(tmp_path):
    # a rerun into the same directory writes the same digests into new
    # files: the old ones are unlinked, not truncated (a hard link to the
    # old manifest is left as its only link), and a symlink at an output
    # path is replaced while its target is left alone
    cfg = load_config(dual_config(tmp_path, p_e2=0.3, trials=2000, seed=5),
                      command="relay-sim", output_dir=str(tmp_path / "o"))
    first = run(cfg)
    (csv_path,) = [Path(entry["path"]) for entry in first.outputs]
    manifest_path = tmp_path / "o" / "manifest.json"
    os.link(manifest_path, tmp_path / "old_manifest.json")
    target = tmp_path / "target.csv"
    target.write_bytes(b"keep\n")
    csv_path.unlink()
    csv_path.symlink_to(target)
    second = run(cfg)
    assert ([e["sha256"] for e in second.outputs]
            == [e["sha256"] for e in first.outputs])
    assert not csv_path.is_symlink() and target.read_bytes() == b"keep\n"
    assert (hashlib.sha256(csv_path.read_bytes()).hexdigest()
            == first.outputs[0]["sha256"])
    assert os.stat(tmp_path / "old_manifest.json").st_nlink == 1
    on_disk = json.loads(manifest_path.read_text())
    assert on_disk["outputs"] == second.outputs


@pytest.mark.parametrize("command, payload", [
    ("polarize", {"channel": {"kind": "bec", "epsilon": 0.5}, "k": 6,
                  "beta": 0.45}),
    ("capacity", {"amp_channel": {"kind": "bec", "epsilon": 0.3},
                  "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 6,
                  "beta": 0.35})])
def test_manifest_output_sizes(tmp_path, command, payload):
    path = write_config(tmp_path, "size.json", payload)
    with (pytest.warns(UserWarning, match=NEGATIVE_P_SYM)
          if command == "capacity" else contextlib.nullcontext()):
        manifest = run(load_config(path, command=command,
                                   output_dir=str(tmp_path / "o")))
    on_disk = json.loads((tmp_path / "o" / "manifest.json").read_text())
    for entry in on_disk["outputs"]:
        data = Path(entry["path"]).read_bytes()
        assert entry["rows"] == data.count(b"\n") - 1   # minus the header
        assert entry["bytes"] == len(data)
    assert on_disk["outputs"] == manifest.outputs


def _csv_counts(path, column):
    labels = [line.split(",")[column] for line in
              Path(path).read_text(encoding="utf-8").strip().split("\n")[1:]]
    return {label: labels.count(label) for label in set(labels)}


def test_manifest_counters_match_outputs(tmp_path):
    # the report prints these counts, one line each, instead of re-reading
    # the CSV; polarize's name the polarization algorithm that ran
    for channel, k, path in (
            ({"kind": "bec", "epsilon": 0.5}, 8, "closed form"),
            ({"kind": "bsc", "p": 0.11}, 5, "tables")):
        cfg = load_config(polarize_config(tmp_path, k=k, channel=channel),
                          command="polarize", output_dir=str(tmp_path / "p"))
        manifest = run(cfg)
        counts = _csv_counts(manifest.outputs[0]["path"], 2)
        assert manifest.counters == {"n": 2 ** k, "size_good": counts["good"],
                                     "size_bad": counts["bad"],
                                     "polarization": path}
        assert render_report(manifest).split("\n")[1:5] == [
            f"  n = {2 ** k}", f"  size_good = {counts['good']}",
            f"  size_bad = {counts['bad']}", f"  polarization = {path}"]

    cfg = load_config(dual_config(tmp_path, k=8), command="sets",
                      output_dir=str(tmp_path / "s"))
    manifest = run(cfg)
    counts = _csv_counts(manifest.outputs[0]["path"], 1)
    sizes = {f"size_{name.lower()}": counts.get(name, 0)
             for name in ("S_in", "P1", "P2", "B")}
    assert manifest.counters == {"n": 256, **sizes}
    assert render_report(manifest).split("\n")[1:6] == ["  n = 256"] + [
        f"  {key} = {value}" for key, value in sizes.items()]

    # capacity and relay-sim counters hold their CSV row, which the
    # report prints from them
    cfg = load_config(dual_config(tmp_path, name="cap.json", k=8),
                      command="capacity", output_dir=str(tmp_path / "c"))
    with pytest.warns(UserWarning, match=NEGATIVE_P_SYM):
        manifest = run(cfg)
    header, row = _csv_row(manifest.outputs[0]["path"])
    assert list(manifest.counters) == header
    assert [format_cell(manifest.counters[key]) for key in header] == row
    assert {key: manifest.counters[key] for key in sizes} == sizes
    assert manifest.counters["n"] == 256

    cfg = load_config(dual_config(tmp_path, name="sim.json", k=8, p_e2=0.3,
                                  trials=5000, seed=4),
                      command="relay-sim", output_dir=str(tmp_path / "r"))
    manifest = run(cfg)
    header, row = _csv_row(manifest.outputs[0]["path"])
    assert set(manifest.counters) == {"n", *sizes, *header}
    assert {key: manifest.counters[key] for key in sizes} == sizes
    assert [format_cell(manifest.counters[key]) for key in header] == row
    assert manifest.counters["trials"] == 5000
    assert manifest.counters["successes"] == int(row[2])

    cfg = load_config(dual_config(tmp_path, name="sw.json", k=4,
                                  main_channel={"kind": "dephasing",
                                                "q": 0.2}),
                      command="sweep", output_dir=str(tmp_path / "w"))
    manifest = run(cfg)
    rows = [line.split(",") for line in Path(manifest.outputs[0]["path"])
            .read_text(encoding="utf-8").split("\n")[1:-1]]
    mid = [r for r in rows if r[0] == "0.5"]
    bound = manifest.counters.pop("bound_2p1p_at_half")
    assert manifest.counters == {
        "p_points": 99, "main_kraus": 2, "main_in_dim": 2, "main_out_dim": 2,
        "coherent_information_calls": 5, "advantage_flip_p": 0.5}
    assert format_cell(bound) == mid[0][6]


def _csv_row(path):
    """Header and first row of a one-row CSV, as strings."""
    with open(path, encoding="utf-8") as fh:
        header, row = fh.read().strip().split("\n")
    return header.split(","), row.split(",")


# Summary lines printed between the title and "data files:", one per
# manifest counter in the order the command records them, and the SHA-256
# of each case's CSV. The capacity lines are those of the CSV-reading
# report that the counter-based one replaced; the sweep and superactivate
# digests were pinned from the per-point sweep code that the array
# evaluation replaced.
_BASE = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
         "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 6,
         "beta": 0.3}
_SIZES_BASE = ["  n = 64", "  size_s_in = 16", "  size_p1 = 6",
               "  size_p2 = 0", "  size_b = 42"]
PINNED_REPORTS = [
    ("polarize", {"channel": {"kind": "bec", "epsilon": 0.3}, "k": 5,
                  "beta": 0.35},
     ["  n = 32", "  size_good = 10", "  size_bad = 22",
      "  polarization = closed form"],
     "260c74e37c58cd97af0285ec4c6b8e9fff3f71890838f6310691643e613bfdd8"),
    ("polarize", {"channel": {"kind": "bsc", "p": 0.11}, "k": 5,
                  "beta": 0.35},
     ["  n = 32", "  size_good = 3", "  size_bad = 29",
      "  polarization = tables"],
     POLARIZATION_BSC_K5_SHA256),
    ("sets", dict(_BASE), _SIZES_BASE,
     "5df039f0208ed28bcb7bc85d67874d7ad4970686fa9805258f6cf576c6c2c89d"),
    ("capacity", dict(_BASE), _SIZES_BASE + [
        "  p_sym_degraded = 0.25",
        "  p_sym_nondegraded = -0.40625", "  r_sym = 0.25",
        "  c_bob = 0.90625", "  c_eve_total = 0.09375",
        "  c_eve_p1 = 0.09375", "  eve_section_e1e2 = 0.25",
        "  eve_section_e2d = 0.25", "  relay_private_capacity = 0.25",
        "  relay_capacity_min = 0.25"],
     "5f9d12d04aa658b9092311015676568a666db54651bf7ba53a6c6326d67ec2f6"),
    ("relay-sim", dict(_BASE, p_e2=0.3, trials=2000, seed=5), _SIZES_BASE + [
        "  p_e2 = 0.3", "  trials = 2000", "  successes = 560",
        "  rate = 0.28", "  expected_throughput = 4.8",
        "  b_star_throughput = 8"],
     "5a3998e3744e6f1aa7c9607f4ca3c385af022d757d90c7a6c76e86da1dd34f4b"),
    ("sweep", dict(_BASE, k=4, main_channel={"kind": "dephasing", "q": 0.2}),
     ["  p_points = 99", "  main_kraus = 2", "  main_in_dim = 2",
      "  main_out_dim = 2", "  coherent_information_calls = 5",
      "  bound_2p1p_at_half = 0.139035952556", "  advantage_flip_p = 0.5"],
     "03bca815a87ea7685f773f0612aedd3769ddc94623adf698c207a179e25223e0"),
    ("superactivate", dict(_BASE, k=4, p=0.5,
                           main_channel={"kind": "identity", "dim": 4}),
     ["  p_points = 1", "  main_kraus = 1", "  main_in_dim = 4",
      "  main_out_dim = 4", "  coherent_information_calls = 5",
      "  bound_2p1p_at_half = 1", "  advantage_flip_p = None"],
     "3913aa734eabb40175e8d8934f06af1b3827f23f37148c076ac7e79c98982f1a"),
    ("superactivate", dict(_BASE, k=4, p=0.3,
                           main_channel={"kind": "identity"}),
     ["  p_points = 1", "  main_kraus = 1", "  main_in_dim = 2",
      "  main_out_dim = 2", "  coherent_information_calls = 5",
      "  bound_2p1p_at_half = None", "  advantage_flip_p = None"],
     "26eb3b568c378a40a2b92034763a679e970d0fb77fe913f8777b8e1a48850e48"),
]


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
@pytest.mark.parametrize("command, payload, body, sha256", PINNED_REPORTS,
                         ids=["polarize-bec", "polarize-bsc", "sets",
                              "capacity", "relay-sim", "sweep",
                              "superactivate", "superactivate-p0.3"])
def test_render_report_pinned_text(tmp_path, command, payload, body, sha256):
    path = write_config(tmp_path, "pin.json", payload)
    manifest = run(load_config(path, command=command,
                               output_dir=str(tmp_path / "out")))
    (out,) = manifest.outputs
    with open(out["path"], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == sha256
    assert out["sha256"] == sha256
    lines = render_report(manifest).split("\n")
    assert lines[0].startswith(f"qrelay {command} (v")
    assert lines[1:] == body + [
        "data files:", f"  {out['path']}  sha256 {out['sha256'][:12]}"]


@pytest.mark.filterwarnings("ignore:p_sym_nondegraded is negative")
def test_run_k20_outputs_match_pinned_digests(tmp_path):
    cases = (("polarize", polarize_config(
                 tmp_path, channel={"kind": "bec", "epsilon": 0.3}, k=20,
                 beta=0.35), POLARIZATION_K20_SHA256),
             ("sets", dual_config(tmp_path, k=20, beta=0.35),
              PARTITION_K20_SHA256),
             ("capacity", dual_config(tmp_path, k=20, beta=0.35),
              CAPACITY_K20_SHA256),
             ("polarize", write_config(tmp_path, "bsc.json", {
                 "channel": {"kind": "bsc", "p": 0.11}, "k": 5,
                 "beta": 0.35}), POLARIZATION_BSC_K5_SHA256))
    for i, (command, path, want) in enumerate(cases):
        cfg = load_config(path, command=command,
                          output_dir=str(tmp_path / str(i)))
        (entry,) = run(cfg).outputs
        with open(entry["path"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want
        assert entry["sha256"] == want


# SHA-256 of the one output and the manifest counters of capacity and
# relay-sim on two small partitions, pinned before the capacity row was
# computed in one function: BEC(0.25)/BEC(0.1) at k = 8, beta = 0.25, where
# p2 and b are nonempty (so c_bob = 1 - |p1|/n exceeds |s_in u p2|/n and
# relay_capacity_min adds two fractions), and BEC(0.3)/BEC(0.4) at k = 10,
# beta = 0.35, whose p_sym_nondegraded is negative.
_P2_AND_B = {"amp_channel": {"kind": "bec", "epsilon": 0.25},
             "phase_channel": {"kind": "bec", "epsilon": 0.1}, "k": 8,
             "beta": 0.25}
_NEGATIVE = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
             "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 10,
             "beta": 0.35}
_SIZES_P2_AND_B = {"n": 256, "size_s_in": 125, "size_p1": 0, "size_p2": 53,
                   "size_b": 78}
_SIZES_NEGATIVE = {"n": 1024, "size_s_in": 343, "size_p1": 95, "size_p2": 0,
                   "size_b": 586}
PINNED_PARTITION_RUNS = [
    ("capacity", _P2_AND_B,
     "7f05592f12f729cf941751000413c6068211f4c8855f919e945244b58d2d95ef",
     {**_SIZES_P2_AND_B, "p_sym_degraded": 0.48828125,
      "p_sym_nondegraded": 0.18359375, "r_sym": 0.48828125, "c_bob": 1.0,
      "c_eve_total": 0.20703125, "c_eve_p1": 0.0,
      "eve_section_e1e2": 0.6953125, "eve_section_e2d": 0.48828125,
      "relay_private_capacity": 0.48828125,
      "relay_capacity_min": 0.6953125}, []),
    ("relay-sim", dict(_P2_AND_B, p_e2=0.3, trials=3000, seed=7),
     "2a74af861da4c67f8f893fb9edead46689a63551bec65dfbec68f6ec4442c42e",
     {**_SIZES_P2_AND_B, "p_e2": 0.3, "trials": 3000, "successes": 866,
      "rate": 0.2886666666666667, "expected_throughput": 37.5,
      "b_star_throughput": 62.5}, []),
    ("capacity", _NEGATIVE,
     "00248c23100c93be144a5c96d52848012ec4d9fff60fd583388c5661fe2c7e63",
     {**_SIZES_NEGATIVE, "p_sym_degraded": 0.3349609375,
      "p_sym_nondegraded": -0.2373046875, "r_sym": 0.3349609375,
      "c_bob": 0.9072265625, "c_eve_total": 0.0927734375,
      "c_eve_p1": 0.0927734375, "eve_section_e1e2": 0.3349609375,
      "eve_section_e2d": 0.3349609375,
      "relay_private_capacity": 0.3349609375,
      "relay_capacity_min": 0.3349609375},
     ["p_sym_nondegraded is negative (-0.2373046875); reporting as-is"]),
    ("relay-sim", dict(_NEGATIVE, p_e2=0.6, trials=3000, seed=7),
     "6fa41fc169aa7f6524b2ed93d7b3f38b7b68b10c58e6ba6c3b39b1a1e38d50e6",
     {**_SIZES_NEGATIVE, "p_e2": 0.6, "trials": 3000, "successes": 1754,
      "rate": 0.5846666666666667, "expected_throughput": 205.79999999999998,
      "b_star_throughput": 171.5}, []),
]


@pytest.mark.parametrize(
    "command, payload, sha256, counters, warned", PINNED_PARTITION_RUNS,
    ids=["capacity-p2-b", "relay-sim-p2-b", "capacity-negative",
         "relay-sim-negative"])
def test_partition_runs_match_pinned_outputs(tmp_path, command, payload,
                                             sha256, counters, warned):
    path = write_config(tmp_path, "pin.json", payload)
    cfg = load_config(path, command=command, output_dir=str(tmp_path / "o"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        manifest = run(cfg)
    assert [str(w.message) for w in caught] == warned
    (entry,) = manifest.outputs
    with open(entry["path"], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == sha256
    assert entry["sha256"] == sha256
    # key order, values and int/float types, in memory and on disk
    assert json.dumps(manifest.counters) == json.dumps(counters)
    on_disk = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert (json.dumps(on_disk["counters"], sort_keys=True)
            == json.dumps(counters, sort_keys=True))


# over the peaks: 10.0 MB for sets and capacity, and 11.85 MB for
# polarize, where a float pass runs while one block is being built
K20_TRACED_PEAK_MB = {"polarize": 12, "sets": 11, "capacity": 11}


@pytest.mark.parametrize("command", ["polarize", "sets", "capacity"])
def test_run_k20_traced_peak_stays_small(tmp_path, command):
    # one z vector at a time (8 MB), the good masks and one CSV block at a
    # time: no index, mask-sized label or recursion temporaries
    path = (polarize_config(tmp_path, channel={"kind": "bec", "epsilon": 0.3},
                            k=20, beta=0.35) if command == "polarize"
            else dual_config(tmp_path, k=20, beta=0.35))
    cfg = load_config(path, command=command, output_dir=str(tmp_path / "o"))
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K20_TRACED_PEAK_MB[command] * 2 ** 20


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2, 1.0 - 2.0 ** -53,
                  -0.0, -1.5e300, 123456789012.5, 1e16, math.inf, -math.inf,
                  math.nan]


def _writer_columns(rows, rng):
    floats = rng.random(rows) * 10.0 ** rng.integers(-320, 300, size=rows)
    floats[:min(rows, len(SPECIAL_FLOATS))] = SPECIAL_FLOATS[:rows]
    # ranges from 0, into a third quad at 10^8 and up to 2^64 - 1
    return (range(rows), range(99_995_000, 99_995_000 + rows), floats,
            rng.random(rows), rng.random(rows).astype(np.float32),
            range(2 ** 64 - rows, 2 ** 64),
            np.where(rng.random(rows) < 0.5, b"true", b"false"),
            np.where(rng.random(rows) < 0.5, b"good", b"bad"),
            range(rows), range(3 * rows, 4 * rows))


# at the first and the second block boundary
@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS - 1,
                                  2 * CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_row_oracle(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = _writer_columns(rows, rng)
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "out.csv"
    digest = _write_csv(path, header, columns)
    want = csv_bytes_from_columns(header, columns)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


NAN_PAYLOAD = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)

# Columns at the edges of the writer's kernels, and columns it rejects.
EDGE_COLUMNS = {
    "non_ascii_str": np.array(["\u00e9", "\u65e5\u672c", "", "plain"]),
    "empty_str": np.array(["", "", "x", ""]),
    "nul_str": np.array(["a\x00b", "c\x00", "\x00", "d"]),
    "nul_list": ["a\x00b", "c\x00", "\x00", "d"],
    "ascii_bytes": np.array([b"S_in", b"P1", b"B", b"good"]),
    "empty_bytes": np.array([b"", b"", b"x", b""]),
    "nul_bytes": np.array([b"a\x00b", b"\x00c", b"\x00", b"d"]),
    "utf8_bytes": np.array(["\u00e9".encode(), "\u65e5\u672c".encode(),
                            b"", b"plain"]),
    "bytes_list": [b"a\x00b", "\u00e9".encode(), b"", b"d"],
    "uint64_high": np.array([2 ** 63, 2 ** 64 - 1, 0, 7], dtype=np.uint64),
    "int64_extremes": np.array([-2 ** 63, 2 ** 63 - 1, -1, 0],
                               dtype=np.int64),
    "int8": np.array([-128, 127, 0, -1], dtype=np.int8),
    "signed_zero_nan": np.array([-0.0, 0.0, math.nan, -math.nan,
                                 NAN_PAYLOAD[0], 0.1, -0.0]),
    "bool": np.array([True, False, True]),
    # ranges are sliced from their end, so the last block keeps their stop
    "range_negative_step": range(10 ** 6, -10 ** 6, -3),
    "range_int64_span": range(2 ** 63 - 1, -2 ** 63, -2 ** 47),
    "range_stop_past_int64": range(2 ** 63 - 2 ** 17, 2 ** 63),
    "range_stop_below_int64": range(-2 ** 63 + 2 ** 17, -2 ** 63 - 1, -1),
    "range_past_int64": range(2 ** 63 - 2 ** 16 - 4, 2 ** 63 + 4),
}
# The writer takes step-1 ranges from 0 or above (of any size), its only
# int columns, and float and byte-string arrays; a NUL byte inside a
# byte-string cell would be dropped as padding.
REJECTED_COLUMNS = {
    "non_ascii_str": TypeError, "empty_str": TypeError, "nul_str": TypeError,
    "nul_list": TypeError, "bytes_list": TypeError, "bool": TypeError,
    "uint64_high": TypeError, "int64_extremes": TypeError, "int8": TypeError,
    "nul_bytes": ValueError, "range_negative_step": TypeError,
    "range_int64_span": TypeError, "range_stop_below_int64": TypeError,
}


@pytest.mark.parametrize("name", sorted(EDGE_COLUMNS))
@pytest.mark.parametrize("rows", [1, 7, 2 * CSV_BLOCK_ROWS + 1,
                                  2 * CSV_BLOCK_ROWS + 7])
def test_write_csv_edge_columns_match_row_oracle(tmp_path, name, rows):
    # tiled, so every distinct value repeats across the block boundaries
    # and the last block has one row at 2 * CSV_BLOCK_ROWS + 1
    base = EDGE_COLUMNS[name]
    tiled = [base[i % len(base)] for i in range(rows)]
    if isinstance(base, range):
        column = base[-rows:]
    elif isinstance(base, np.ndarray):
        column = np.array(tiled, dtype=base.dtype)
    else:
        column = tiled
    columns = (column, range(rows))
    path = tmp_path / "edge.csv"
    if name in REJECTED_COLUMNS:
        with pytest.raises(REJECTED_COLUMNS[name]):
            _write_csv(path, ("c", "i"), columns)
        return
    digest = _write_csv(path, ("c", "i"), columns)
    want = csv_bytes_from_columns(("c", "i"), columns)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1), st.lists(st.tuples(
    st.floats(width=64),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=6)),
    min_size=1, max_size=40))
def test_write_csv_matches_row_oracle_property(tmp_path_factory, start,
                                               rows):
    floats, strs = zip(*rows)
    columns = (range(start, start + len(rows)),
               np.array(floats, dtype=np.float64),
               np.array([s.encode() for s in strs], dtype="S"))
    path = tmp_path_factory.getbasetemp() / "property.csv"
    # an S array drops trailing NULs, so a NUL left is inside its cell
    if any(b"\0" in s for s in columns[2].tolist()):
        with pytest.raises(ValueError, match="NUL"):
            _write_csv(path, ("i", "f", "s"), columns)
        return
    digest = _write_csv(path, ("i", "f", "s"), columns)
    want = csv_bytes_from_columns(("i", "f", "s"), columns)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


def _ulps(values, reach):
    """Each positive float64 value and its neighbours within ``reach``
    units in the last place, both signs."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    near = (bits[:, None] + np.arange(-reach, reach + 1)).ravel()
    near = near[(near >= 0) & (near < 0x7FF0000000000000)].view(np.float64)
    return np.concatenate([near, -near])


def _float_volume_case(name):
    rng = np.random.default_rng(FLOAT_VOLUME_CASES.index(name))
    if name == "bit_patterns":
        bits = rng.integers(-2 ** 63, 2 ** 63 - 1, size=200_000,
                            dtype=np.int64, endpoint=True)
        mantissa = rng.integers(1, 2 ** 52, size=20_000, dtype=np.int64)
        sign = np.int64(-2 ** 63) * rng.integers(0, 2, size=20_000)
        special = np.array([0.0, -0.0, math.inf, -math.inf]).view(np.int64)
        return np.concatenate([
            bits, mantissa | sign,                  # subnormals
            mantissa | 0x7FF0000000000000 | sign,   # NaN payloads
            special]).view(np.float64)
    if name == "decimal_ties":
        # 13-digit integers ending in 5 over 10^j, exact in binary when
        # 5^j divides them, and their neighbours
        j = rng.integers(0, 19, size=20_000)
        step = 5 ** j
        odd = 2 * rng.integers(10 ** 12 // (2 * step), 10 ** 13 // (2 * step),
                               size=len(j)) + 1
        ties = [odd * step / 10.0 ** j, odd * step * 10.0, odd * 0.5]
        return _ulps(np.concatenate(ties), 2)
    if name == "nearest_to_ties":
        # the doubles nearest 13-digit decimal ties at every exponent, where
        # the scaled value lies within about an ulp of a half-integer
        digits = rng.integers(10 ** 11, 10 ** 12, size=20_000) * 10 + 5
        powers = rng.integers(-310, 296, size=len(digits))
        return _ulps([float(f"{d}e{p}") for d, p in
                      zip(digits.tolist(), powers.tolist())], 2)
    if name == "powers_of_ten":
        return _ulps([float(f"1e{k}") for k in range(-323, 309)], 1)
    if name == "g_switch_points":
        return _ulps([1e-5, 1e-4, 1e11, 1e12], 2000)
    if name == "round_up_to_1e12":
        return _ulps([float(f"9.999999999999{d}e{k}") for d in range(5, 10)
                      for k in range(-309, 308)], 3)
    if name == "float32":
        return rng.integers(0, 2 ** 32, size=100_000,
                            dtype=np.uint32).view(np.float32)
    if name == "integers":
        return rng.integers(0, 10 ** 13, size=100_000).astype(np.float64)
    return rng.random(100_000) * 10.0 ** rng.integers(-320, 309, 100_000)


FLOAT_VOLUME_CASES = ("bit_patterns", "decimal_ties", "nearest_to_ties",
                      "powers_of_ten", "g_switch_points", "round_up_to_1e12",
                      "float32", "integers", "spread_exponents")


@pytest.mark.parametrize("name", FLOAT_VOLUME_CASES)
def test_float_cells_match_oracle_in_volume(name):
    column = _float_volume_case(name)
    with np.errstate(invalid="ignore"):   # float32 signaling NaNs, cast
        text = cli._csv_block([column]).decode("ascii")
    assert text.split("\n")[:-1] == [format_cell(v) for v in column.tolist()]


def test_python_formats_under_one_percent_of_bec_k20_lanes(monkeypatch):
    z = polarize(build_classical_channel({"kind": "bec", "epsilon": 0.3}),
                 20).z
    lanes = []
    original = cli._python_floats
    monkeypatch.setattr(cli, "_python_floats",
                        lambda v: lanes.append(len(v)) or original(v))
    for start in range(0, len(z), CSV_BLOCK_ROWS):
        cli._csv_block([z[start:start + CSV_BLOCK_ROWS]])
    assert sum(lanes) < 0.01 * len(z)


def test_constant_lanes_and_range_segments_skip_the_kernels(monkeypatch):
    # 57.9% of these z values are exactly 0.0 or 1.0, and every block's
    # index column is a slice of range(n)
    z = polarize(build_classical_channel({"kind": "bec", "epsilon": 0.3}),
                 20).z
    lanes = []
    words = cli._float_words
    monkeypatch.setattr(cli, "_float_words", lambda v, out: (
        lanes.append(v.size) or words(v, out)))
    for start in range(0, len(z), CSV_BLOCK_ROWS):
        cli._csv_block([range(len(z))[start:start + CSV_BLOCK_ROWS],
                        z[start:start + CSV_BLOCK_ROWS]])
    assert sum(lanes) <= 0.43 * len(z)


def test_digit_tables_match_numpy_construction():
    quads, zeros = digit_tables_oracle()
    assert cli._DIGIT_QUADS.dtype == quads.dtype
    assert np.array_equal(cli._DIGIT_QUADS, quads)
    assert cli._TRAILING_ZEROS.dtype == zeros.dtype
    assert np.array_equal(cli._TRAILING_ZEROS, zeros)


# a quad's edges, the step into a third quad and the top of int64, each
# over one row, a 10^4-row segment boundary and a CSV block boundary
@pytest.mark.parametrize("start", [0, 9_999, 10_000, 99_999_990,
                                   2 ** 63 - 2 ** 17])
@pytest.mark.parametrize("rows", [1, 10_002, CSV_BLOCK_ROWS + 3])
def test_range_segments_match_row_oracle(tmp_path, start, rows):
    columns = (range(start, start + rows), np.arange(rows) % 3 / 2,
               range(rows))
    path = tmp_path / "range.csv"
    digest = _write_csv(path, ("i", "f", "j"), columns)
    want = csv_bytes_from_columns(("i", "f", "j"), columns)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


# counts at a quad's edges, 2^63 and 2^64 - 1 (the largest trials), among
# floats, as capacity.csv and relay_sim.csv write their one row
COUNT_ROW = (0, 0.5, 9_999, 10_000, -0.0, 2 ** 63, 1e-300, 2 ** 64 - 1, 7)


def test_count_cells_match_row_oracle(tmp_path):
    header = tuple(f"c{i}" for i in range(len(COUNT_ROW)))
    columns = cli._row_columns(COUNT_ROW)
    path = tmp_path / "row.csv"
    digest = _write_csv(path, header, columns)
    want = csv_bytes_from_columns(header, columns)
    assert want == csv_bytes_from_rows(header, [COUNT_ROW])
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


def test_block_row_widths_of_partition_and_polarization(monkeypatch):
    # a row is the sum of its slot widths plus one separator byte per
    # column, with no byte between slots: a 7-digit index takes two quads
    # (8 bytes), a float 24 and an S4 label 4, so a partition row is
    # 8 + 1 + 4 + 1 = 14 bytes and a polarization row 8 + 1 + 24 + 1 +
    # 4 + 1 = 39
    sizes = []
    monkeypatch.setattr(cli, "bytearray", lambda size: (
        sizes.append(size) or bytearray(size)), raising=False)
    index = range(2 ** 20)[-CSV_BLOCK_ROWS:]
    labels = np.full(CSV_BLOCK_ROWS, b"S_in")
    cli._csv_block([index, labels])
    cli._csv_block([index, np.linspace(0.0, 1.0, CSV_BLOCK_ROWS), labels])
    assert sizes == [14 * CSV_BLOCK_ROWS, 39 * CSV_BLOCK_ROWS]


def _block_oracle(columns):
    """The row oracle's bytes for ``columns``, without the header line."""
    want = csv_bytes_from_columns(["c"] * len(columns), columns)
    return want[want.index(b"\n") + 1:]


def _spy_float_offsets(monkeypatch):
    """Record, for each ``_float_cells`` call, the byte offset of its first
    cell in the block's buffer."""
    buffers, offsets = [], []
    monkeypatch.setattr(cli, "bytearray", lambda size: (
        buffers.append(bytearray(size)) or buffers[-1]), raising=False)
    cells = cli._float_cells
    monkeypatch.setattr(cli, "_float_cells", lambda v, out: offsets.append(
        out.ctypes.data - np.frombuffer(buffers[-1], np.uint8).ctypes.data)
        or cells(v, out))
    return offsets


def test_float_slot_at_every_byte_offset_matches_row_oracle(monkeypatch):
    # after an S column of itemsize 1-8 a float slot starts at bytes 2-9,
    # after a range of 1-8 digits (one or two quads) at byte 5 or 9
    offsets = _spy_float_offsets(monkeypatch)
    rng = np.random.default_rng(8)
    rows = 9
    for width in range(1, 9):
        labels = np.resize(np.array([b"x" * width, b"", b"y"]), rows)
        start = 10 ** (width - 1) if width > 1 else 0   # width digits
        index = range(start, start + rows)
        for prefix in (labels, index):
            floats = rng.random(rows) * 10.0 ** rng.integers(-12, 14, rows)
            columns = [prefix, floats, range(rows)]
            assert cli._csv_block(columns) == _block_oracle(columns)
    assert sorted({offset % 8 for offset in offsets}) == list(range(8))


@pytest.mark.parametrize("count", range(2, 10))
def test_adjacent_float_columns_match_row_oracle(monkeypatch, count):
    # 2-9 float slots 25 bytes apart (sweep.csv has 9) after a 3-byte
    # label, over more than one kernel pass of _FLOAT_ROWS // count rows
    offsets = _spy_float_offsets(monkeypatch)
    rng = np.random.default_rng(count)
    rows = 2 * (cli._FLOAT_ROWS // count) + 3
    floats = [rng.random(rows) * 10.0 ** rng.integers(-12, 14, rows)
              for _ in range(count)]
    columns = [np.resize(np.array([b"S_in", b"B"]), rows), *floats,
               range(rows)]
    assert cli._csv_block(columns) == _block_oracle(columns)
    assert offsets[0] == 5 and len(offsets) == 3


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("width", range(1, 9))
def test_special_floats_in_unaligned_slots_match_row_oracle(monkeypatch,
                                                            split, width):
    # SPECIAL_FLOATS (-0.0, NaN, infinities, 5e-324, a tie) in a run of two
    # float slots at byte width + 1, padded with lanes that are all +0.0
    # and 1.0 or none of them, so that the constant-lane split is taken
    # (more than an eighth of the lanes) or not
    lanes = []
    words = cli._float_words
    monkeypatch.setattr(cli, "_float_words", lambda v, out: (
        lanes.append(v.size) or words(v, out)))
    fill = [0.0, 1.0] if split else [0.5, 3e-7]
    floats = np.array(SPECIAL_FLOATS + fill * 20)
    labels = np.resize(np.array([b"z" * width, b"w"]), len(floats))
    columns = [labels, floats, floats[::-1].copy(), range(len(floats))]
    assert cli._csv_block(columns) == _block_oracle(columns)
    assert (sum(lanes) < 2 * len(floats)) == split


ONE_ULP = (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))


def _constant_lane_columns(name, rows, rng):
    if name == "all_zero_one":
        return [np.where(rng.random(rows) < 0.5, 0.0, 1.0)]
    if name == "no_zero_one":
        return [rng.random(rows) * 10.0 ** rng.integers(-9, 9, size=rows),
                rng.choice([-0.0, *ONE_ULP, 5e-324, math.nan], size=rows)]
    # exact 0/1 among their neighbours, in a share that rises along the
    # rows: in one column from none to a quarter, so that the first kernel
    # pass has less than an eighth and the second more; in three columns
    # with a third all 0/1
    mixed = rng.choice([0.0, -0.0, 1.0, *ONE_ULP, 5e-324, math.nan, 0.5],
                       size=rows)
    rising = rng.random(rows) < np.linspace(0.0, 1.0, rows)
    mixed[~rising & ((mixed == 0.0) | (mixed == 1.0))] = 0.25
    if name == "mixed":
        return [mixed]
    return [mixed, mixed[::-1].copy(), _constant_lane_columns(
        "all_zero_one", rows, rng)[0]]


@pytest.mark.parametrize("name", ["all_zero_one", "no_zero_one", "mixed",
                                  "mixed_three"])
@pytest.mark.parametrize("rows", [1, 7, CSV_BLOCK_ROWS + 5])
def test_constant_float_lanes_match_row_oracle(tmp_path, name, rows):
    floats = _constant_lane_columns(name, rows, np.random.default_rng(rows))
    columns = (range(rows), *floats)
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "lanes.csv"
    digest = _write_csv(path, header, columns)
    want = csv_bytes_from_columns(header, columns)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


def test_sweep_shaped_block_makes_one_kernel_pass(monkeypatch):
    # nine float columns of 99 rows, as in sweep.csv, and an index range
    rng = np.random.default_rng(0)
    columns = [np.linspace(0.01, 0.99, 99)] + [
        rng.random(99) * 10.0 ** rng.integers(-8, 3, 99) for _ in range(8)]
    columns.append(range(99))
    calls = []
    original = cli._float_words
    monkeypatch.setattr(cli, "_float_words", lambda v, out: (
        calls.append(v.size) or original(v, out)))
    data = cli._csv_block(columns)
    assert calls == [9 * 99]
    header = tuple(f"c{i}" for i in range(len(columns)))
    want = csv_bytes_from_columns(header, columns)
    assert data == want[want.index(b"\n") + 1:]


def _three_block_columns(rng):
    """Three ranges (from 0, across 10^4 and up to 2^64 - 1), a float and a
    byte-string column of 2 * CSV_BLOCK_ROWS + 1 rows: three blocks, the
    last of one row."""
    rows = 2 * CSV_BLOCK_ROWS + 1
    return (range(rows), range(9_995, 9_995 + rows),
            range(2 ** 64 - rows, 2 ** 64),
            rng.random(rows) * 10.0 ** rng.integers(-9, 9, size=rows),
            np.where(rng.random(rows) < 0.5, b"S_in", b"B"))


def test_write_csv_multi_block_table_matches_row_oracle(tmp_path):
    columns = _three_block_columns(np.random.default_rng(7))
    header = tuple(f"c{i}" for i in range(len(columns)))
    threads = threading.active_count()
    path = tmp_path / "three.csv"
    digest = _write_csv(path, header, columns)
    assert threading.active_count() == threads
    data = path.read_bytes()
    assert data == csv_bytes_from_columns(header, columns)
    assert digest == hashlib.sha256(data).hexdigest()


def test_write_csv_starts_no_thread(tmp_path, monkeypatch):
    # tables of one block, of one full block and of two and three blocks
    # (the last of one row): every block is written on the calling thread
    constructed = []
    monkeypatch.setattr(threading, "Thread", lambda *args, **kwargs: (
        constructed.append(kwargs)))
    threads = threading.active_count()
    for rows in (1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                 2 * CSV_BLOCK_ROWS + 1):
        columns = (range(rows), np.arange(rows) / 7)
        digest = _write_csv(tmp_path / "t.csv", ("i", "f"), columns)
        data = (tmp_path / "t.csv").read_bytes()
        assert data == csv_bytes_from_columns(("i", "f"), columns)
        assert digest == hashlib.sha256(data).hexdigest()
        assert constructed == []
        assert threading.active_count() == threads


class _DiskFullAfter:
    """An open file whose writes after the first ``writes`` raise ENOSPC."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.writes == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes -= 1
        return self.fh.write(data)


# the header, then each of the three blocks
@pytest.mark.parametrize("writes", [0, 1, 2, 3])
def test_write_csv_raises_a_failed_write(tmp_path, monkeypatch, writes):
    monkeypatch.setattr(cli, "_create", lambda path, mode: _DiskFullAfter(
        open(path, mode), writes))
    columns = _three_block_columns(np.random.default_rng(writes))
    threads = threading.active_count()
    with pytest.raises(OSError) as err:
        _write_csv(tmp_path / "full.csv", tuple("abcde"), columns)
    assert err.value.errno == errno.ENOSPC
    assert threading.active_count() == threads
    assert not (tmp_path / "full.csv").exists()


class _DiskFullAtClose(_DiskFullAfter):
    """An open file whose buffered tail fails to reach the disk at close."""

    def __exit__(self, *exc):
        super().__exit__(*exc)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_write_csv_removes_the_table_when_close_fails(tmp_path, monkeypatch):
    # the header and the one row are both written before the close fails
    monkeypatch.setattr(cli, "_create", lambda path, mode: _DiskFullAtClose(
        open(path, mode), 2))
    with pytest.raises(OSError) as err:
        _write_csv(tmp_path / "full.csv", ("i",), (range(1),))
    assert err.value.errno == errno.ENOSPC
    assert not (tmp_path / "full.csv").exists()


def test_write_csv_removes_a_partial_table(tmp_path):
    # two blocks are written before the last one fails to build
    rows = 2 * CSV_BLOCK_ROWS + 5
    labels = np.full(rows, b"ab", dtype="S3")
    labels[-1] = b"a\0b"
    path = tmp_path / "partial.csv"
    threads = threading.active_count()
    with pytest.raises(ValueError, match="NUL"):
        _write_csv(path, ("i", "s"), (range(rows), labels))
    assert not path.exists()
    assert threading.active_count() == threads


class _InterruptOnSecondSlice:
    """A column whose second slice, taken for the second block, raises
    KeyboardInterrupt."""

    def __init__(self, values):
        self.values, self.slices = values, 0

    def __len__(self):
        return len(self.values)

    def __getitem__(self, key):
        self.slices += 1
        if self.slices == 2:
            raise KeyboardInterrupt
        return self.values[key]


def test_write_csv_raises_an_interrupt_and_removes_the_table(tmp_path):
    # the first block is written before the second one is interrupted
    rows = 2 * CSV_BLOCK_ROWS + 1
    column = _InterruptOnSecondSlice(np.arange(rows) / 7)
    path = tmp_path / "interrupted.csv"
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _write_csv(path, ("i", "f"), (range(rows), column))
    assert column.slices == 2
    assert not path.exists()
    assert threading.active_count() == threads


def test_main_exits_3_on_a_failed_write(tmp_path, capsys, monkeypatch):
    # polarize at k = 17 writes several blocks; the first one's write fails
    monkeypatch.setattr(cli, "_create", lambda path, mode, **kwargs: (
        _DiskFullAfter(open(path, mode, **kwargs), 1)))
    threads = threading.active_count()
    rc = main(["polarize", "--config", polarize_config(tmp_path, k=17),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"runtime error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert threading.active_count() == threads
    assert not (tmp_path / "o" / "polarization.csv").exists()


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="equal-length"):
        _write_csv(tmp_path / "r.csv", ("a", "b"), (np.arange(3), [1, 2]))
    with pytest.raises(ValueError, match="equal-length"):
        _write_csv(tmp_path / "r.csv", ("a", "b"), (np.arange(3),))


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------

def checked_main(argv):
    """Run main() on ``argv`` and check its exit contract: 0 with the
    summary on stdout and only warning lines on stderr, 2 with only config
    error lines, or 3 with exactly one runtime error line; never a
    traceback. Returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    lines = err.splitlines()
    assert "Traceback" not in err
    if rc == 0:
        assert out.getvalue().startswith(f"qrelay {argv[0]} (v")
        assert all(line.startswith("warning: ") for line in lines)
    elif rc == 2:
        assert lines and all(line.startswith("config error: ")
                             for line in lines)
    else:
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("runtime error: ")
    return rc, err


def _bounded(raw):
    """``raw`` with an integer k above 6 or trials above 10^3 lowered to
    that bound, so that every run it reaches finishes quickly."""
    bounds = {"k": 6, "trials": 10 ** 3}
    return {key: min(value, bounds[key])
            if key in bounds and type(value) is int else value
            for key, value in raw.items()}


OPEN_UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)
CLASSICAL_SPECS = (
    st.builds(lambda e: {"kind": "bec", "epsilon": e}, st.floats(0, 1))
    | st.builds(lambda p: {"kind": "bsc", "p": p}, st.floats(0, 0.5)))
# Each field a command reads, drawn valid on its own, with k <= 6 and at
# most 10^3 trials; a main channel and input state may still mismatch.
VALID_FIELDS = {
    "channel": CLASSICAL_SPECS, "amp_channel": CLASSICAL_SPECS,
    "phase_channel": CLASSICAL_SPECS,
    "main_channel": st.sampled_from([
        {"kind": "identity"}, {"kind": "identity", "dim": 4},
        {"kind": "dephasing", "q": 0.2}, {"kind": "depolarizing", "q": 0.1},
        {"kind": "erasure", "epsilon": 0.5, "in_dim": 4},
        {"kind": "compose", "stages": [{"kind": "bit_flip", "q": 0.1},
                                       {"kind": "dephasing", "q": 0.2}]}]),
    "input_state": st.sampled_from([
        {"mode": "bell"}, {"mode": "entangled_flagged", "variant": "literal"},
        {"mode": "entangled_flagged", "variant": "alternating"}]),
    "k": st.integers(1, 6), "trials": st.integers(1, 10 ** 3),
    "beta": st.floats(0, 0.5, exclude_min=True, exclude_max=True),
    "p_e2": OPEN_UNIT, "p": OPEN_UNIT}


def command_configs(command):
    """``command`` and a config of valid fields for it, overlaid half the
    time by an arbitrary config bounded as above."""
    entry = cli._COMMANDS[command]
    valid = st.fixed_dictionaries(
        {key: VALID_FIELDS[key] for key in entry.required},
        optional={key: VALID_FIELDS[key] for key in entry.optional})
    return st.tuples(st.just(command), st.builds(
        lambda fields, overlay: {**fields, **overlay}, valid,
        either(st.just({}), ARBITRARY_CONFIGS.map(_bounded))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(COMMANDS + (None,)), ARBITRARY_CONFIGS),
    st.sampled_from(COMMANDS).flatmap(command_configs)))
def test_load_config_returns_config_or_config_error(tmp_path_factory, case):
    # half the examples are arbitrary configs, half valid fields for the
    # command, so that the success path is reached too: a loaded config
    # holds each field's JSON value, and the default of each absent one
    command, raw = case
    path = tmp_path_factory.getbasetemp() / "arbitrary.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        cfg = load_config(str(path), command=command)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.command == (command or raw["command"]) and cfg.raw == raw
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in ("command", "raw"):
            assert getattr(cfg, f.name) == raw.get(f.name, f.default)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMMANDS).flatmap(command_configs))
def test_main_exit_contract_on_arbitrary_configs(tmp_path_factory, case):
    # past load_config as well: every config either runs, is rejected
    # line by line, or fails its run with one line
    command, raw = case
    base = tmp_path_factory.getbasetemp()
    path = base / "arbitrary.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    checked_main([command, "--config", str(path), "--out", str(base / "o")])


def test_main_success_and_exit_codes(tmp_path, capsys):
    path = polarize_config(tmp_path)
    rc = main(["polarize", "--config", path, "--out", str(tmp_path / "ok")])
    assert rc == 0
    assert "qrelay polarize" in capsys.readouterr().out


# the merged output alphabet at which each failing BSC run stops
BSC_ALPHABETS = {(0.11, 7): 9987, (0.3, 6): 4423}


@pytest.mark.parametrize("p, k, code", [(0.11, 6, 0), (0.05, 5, 0),
                                        (0.11, 7, 3), (0.3, 6, 3)])
def test_main_bsc_table_envelope(tmp_path, p, k, code):
    # the cap bounds the merged tables of levels 1..k-1 only: the last
    # level is closed form, and BSC(0.11)'s level-6 tables exceed it.
    # The k = 6 limit depends on the exact p: BSC(0.3)'s level-5 tables
    # exceed the cap where BSC(0.11)'s do not
    path = polarize_config(tmp_path, channel={"kind": "bsc", "p": p}, k=k)
    rc, err = checked_main(["polarize", "--config", path,
                            "--out", str(tmp_path / "o")])
    assert rc == code
    if rc:
        assert err == ("runtime error: output alphabet "
                       f"{BSC_ALPHABETS[p, k]} exceeds cap 4096\n")


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
    # p is read by superactivate, every other field by relay-sim
    command, overrides = (
        ("superactivate", {"main_channel": {"kind": "identity"}})
        if field == "p" else ("relay-sim", {"p_e2": 0.3, "trials": 100}))
    path = dual_config(tmp_path, name="typed.json",
                       **{**overrides, field: value})
    rc = main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field} must" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, fragment", [
    # a key no config field reads, such as the deleted relay_channels or a
    # typo, is named rather than ignored
    ({"relay_channels": {"e1e2": {"kind": "bsc", "p": 0.1}}, "bta": 0.3},
     "config error: unknown config keys 'bta', 'relay_channels'"),
    ({"input_state": "bell"}, "input_state must be a JSON object")])
def test_main_rejects_unknown_keys_and_non_object_input_state(
        tmp_path, capsys, overrides, fragment):
    path = dual_config(tmp_path, name="hops.json",
                       main_channel={"kind": "identity"}, **overrides)
    rc = main(["sweep", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert fragment in capsys.readouterr().err


def test_main_prints_run_warnings_as_lines(tmp_path, capsys):
    # BEC(0.3)/BEC(0.4) at k = 6 warns; the line names no file, line
    # number or source line of the warning's origin
    rc = main(["capacity", "--config", dual_config(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: p_sym_nondegraded is negative "
                            "(-0.40625); reporting as-is\n")
    assert "p_sym_nondegraded = -0.40625" in captured.out


@pytest.mark.parametrize("output_dir", [5, ["out"]], ids=["int", "list"])
def test_main_rejects_non_string_output_dir(tmp_path, capsys, output_dir):
    # passed validation and exited 3 when the run made the directory
    path = write_config(tmp_path, "out.json", {
        "channel": {"kind": "bec", "epsilon": 0.3}, "k": 3, "beta": 0.3,
        "output_dir": output_dir})
    rc = main(["polarize", "--config", path])
    assert rc == 2
    assert (f"config error: output_dir must be a string, got {output_dir!r}"
            in capsys.readouterr().err)


_DUAL = {"amp_channel": {"kind": "bec", "epsilon": 0.3},
         "phase_channel": {"kind": "bec", "epsilon": 0.4}, "k": 4,
         "beta": 0.3}
VALID_CONFIGS = {
    "polarize": {"channel": {"kind": "bec", "epsilon": 0.3}, "k": 4,
                 "beta": 0.3},
    "sets": _DUAL,
    "capacity": _DUAL,
    "relay-sim": {**_DUAL, "p_e2": 0.3, "trials": 10},
    "superactivate": {**_DUAL, "main_channel": {"kind": "identity"},
                      "p": 0.5},
    "sweep": {**_DUAL, "main_channel": {"kind": "identity"}},
}

# Fields each command does not read, valued so that parsing them would
# add violations of their own. The last config exited 0 with every one of
# its fields ignored.
UNREAD_FIELDS = [
    ("polarize", {"main_channel": {"kind": "identity", "dim": 10 ** 4}}),
    ("sets", {"p_e2": "0.3"}),
    ("capacity", {"trials": 0}),
    ("relay-sim", {"input_state": {"mode": "nonsense"}}),
    ("superactivate", {"channel": {"kind": "awgn"}}),
    ("sweep", {"p": 2.0}),
    ("polarize", {"main_channel": {"kind": "identity"}, "p_e2": 0.3,
                  "trials": 100, "p": 0.5,
                  "input_state": {"mode": "nonsense"}})]


@pytest.mark.parametrize("command, extra", UNREAD_FIELDS,
                         ids=["polarize", "sets", "capacity", "relay-sim",
                              "superactivate", "sweep", "polarize-five-fields"])
def test_main_rejects_fields_the_command_does_not_read(tmp_path, capsys,
                                                       command, extra):
    path = write_config(tmp_path, "unread.json",
                        {**VALID_CONFIGS[command], **extra})
    rc = main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()
    # the fields are named, and not parsed: no other violation is reported
    (line,) = capsys.readouterr().err.splitlines()
    keys = ", ".join(map(repr, sorted(extra)))
    assert line.startswith(f"config error: unknown config keys {keys} for "
                           f"{command}, which reads only ")


def test_unread_field_message_lists_what_the_command_reads(tmp_path):
    path = write_config(tmp_path, "p.json", {**VALID_CONFIGS["polarize"],
                                             "p": 0.5})
    with pytest.raises(ConfigError) as err:
        load_config(path, command="polarize")
    assert err.value.violations == [
        "unknown config keys 'p' for polarize, which reads only beta, "
        "channel, command, k, output_dir, seed"]


@pytest.mark.parametrize("overrides, fragment", [
    ({"phase_channel": [{"kind": "bsc", "p": 0.1}]},
     "phase_channel invalid: channel spec must be a JSON object, got list"),
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
     "main_channel invalid: q must be a number"),
    # a key the kind does not read, such as a typo of in_dim that used to
    # build the default in_dim 2 channel, is named rather than ignored
    ({"phase_channel": {"kind": "bsc", "p": 0.1, "q": 3}},
     "phase_channel invalid: unknown keys 'q' for kind 'bsc', which reads "
     "only kind, p"),
    ({"main_channel": {"kind": "erasure", "epsilon": 0.5, "indim": 4}},
     "main_channel invalid: unknown keys 'indim' for kind 'erasure', which "
     "reads only epsilon, in_dim, kind"),
    ({"main_channel": {"kind": "compose", "stages": [
        {"kind": "identity", "dim": 2, "q": 0.1}]}},
     "main_channel invalid: unknown keys 'q' for kind 'identity'"),
    # table entries are JSON numbers, not strings or booleans numpy coerces
    ({"amp_channel": {"kind": "table", "w": [["0.5", "0.5"], ["0.5", "0.5"]]}},
     "amp_channel invalid: w must be a 2 x m list of numbers"),
    ({"amp_channel": {"kind": "table", "w": [[True, False], [False, True]]}},
     "amp_channel invalid: w must be a 2 x m list of numbers"),
    ({"amp_channel": {"kind": "table"}},
     "amp_channel invalid: w must be a 2 x m list of numbers, got None"),
    ({"amp_channel": {"kind": "table", "w": [[1.0], [0.5, 0.5]]}},
     "amp_channel invalid: w must be a 2 x m list of numbers"),
    ({"amp_channel": {"kind": "table", "w": [[], []]}},
     "amp_channel invalid: w must be a 2 x m list of numbers")])
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
     "'entangled_flagged' needs a main_channel with in_dim 4, got 3"),
    # no config field supplies the base state this mode needs
    ({"kind": "identity"}, {"mode": "phase_set_state"},
     "input_state.mode must be one of ('bell', 'entangled_flagged'), "
     "got 'phase_set_state'"),
    ({"kind": "identity"}, {"mode": "bell", "foo": 1},
     "input_state.unknown keys 'foo' for mode 'bell', which reads only "
     "mode"),
    # the Bell pair has no flag register for a variant to select
    ({"kind": "identity"}, {"mode": "bell", "variant": "literal"},
     "input_state.unknown keys 'variant' for mode 'bell', which reads only "
     "mode\n")])
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
    assert "  p_points = 1" in capsys.readouterr().out.split("\n")


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


TOO_LARGE = "config error: main_channel too large"


@pytest.mark.parametrize("command, main_channel, fragment", [
    ("sweep", {"kind": "identity", "dim": 2000}, TOO_LARGE),
    ("sweep", {"kind": "identity", "dim": 10 ** 4}, TOO_LARGE),
    ("sweep", {"kind": "compose",
               "stages": [{"kind": "depolarizing", "q": 0.1}] * 12},
     TOO_LARGE),
    # relay-sim does not read main_channel, so it neither builds nor bounds it
    ("relay-sim", {"kind": "identity", "dim": 10 ** 4},
     "config error: unknown config keys 'main_channel' for relay-sim")],
    ids=["identity_2000", "identity_10000", "depolarizing_x12",
         "relay_sim_identity_10000"])
def test_main_bounds_main_channel_before_building_it(tmp_path, command,
                                                     main_channel, fragment):
    # built first, these take from 282 MB to gigabytes (4^12 operators
    # for the compose chain)
    extra = {"p_e2": 0.3, "trials": 10} if command == "relay-sim" else {}
    path = dual_config(tmp_path, name="huge.json", k=4,
                       main_channel=main_channel, **extra)
    # VmHWM is the child's own peak: its ru_maxrss carries over the peak
    # of the forking test process
    script = ("import re, sys\n"
              "from qrelay.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(re.search(r'VmHWM:\\s+(\\d+) kB', fh.read())[1])\n"
              "sys.exit(rc)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, command, "--config", path,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr
    assert int(proc.stdout.split()[-1]) < 150 * 1024  # VmHWM in KiB


@pytest.mark.parametrize("payload", [
    b'{"k": 3, "note": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"k": ' + b"9" * 5000 + b"}"],
    ids=["not_utf8", "nested_past_recursion_limit", "int_past_digit_limit"])
def test_main_rejects_unparsable_config_file(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    rc = main(["polarize", "--config", str(path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err


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


def test_cli_writes_nothing_to_stderr_on_overflowing_ratios(tmp_path):
    # 1 / 1e-320 overflows float64 in the merge of every level; the run
    # must still print no numpy warning
    path = polarize_config(tmp_path, k=3, channel={
        "kind": "table", "w": [[1e-320, 1.0], [1.0, 1e-320]]})
    proc = subprocess.run(
        [sys.executable, "-m", "qrelay", "polarize", "--config", path,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_main_missing_config_exit_code(tmp_path, capsys):
    rc = main(["polarize", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_main_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    # a valid config whose command fails while it runs
    def fail(cfg):
        raise RuntimeError("simulated fault")

    monkeypatch.setitem(cli._COMMANDS, "polarize",
                        cli._COMMANDS["polarize"]._replace(run=fail))
    rc = main(["polarize", "--config", polarize_config(tmp_path),
               "--out", str(tmp_path / "rt")])
    assert rc == 3
    assert "runtime error: simulated fault" in capsys.readouterr().err


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
