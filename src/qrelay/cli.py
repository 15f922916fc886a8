"""Configuration-driven experiment runner.

``qrelay <command> --config <path> [--seed N] [--out DIR]`` reads a JSON
config, runs one experiment, writes CSV outputs plus a manifest with
content digests, and prints a plain-text summary. Exit codes: 0 success,
2 config error, 3 runtime error. Identical config and seed reproduce
byte-identical CSV payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .codeword_sets import (build_partition, eve_capacity, from_polarizations,
                            partition_rows, rate_report, set_size)
from .density_ops import (KrausChannel, bit_flip_channel, compose_channels,
                          dephasing_channel, depolarizing_channel,
                          erasure_channel, identity_channel)
from .polar_core import BDMC, polarization_rows, polarize, select_sets
from .relay import (RelayChannelSpec, relay_capacity_min,
                    relay_private_capacity, simulate_relay, simulation_rows)
from .superactivation import (MAX_BRANCH_BYTES, branch_bytes, branch_terms,
                              build_switch_channel, compare_assisted,
                              joint_coherent_info, make_rho_ac, sweep_rows)

COMMANDS = ("polarize", "sets", "capacity", "relay-sim", "superactivate",
            "sweep")

SIGNIFICANT_DIGITS = 12
CSV_BLOCK_ROWS = 2 ** 16


class ConfigError(Exception):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ExperimentConfig:
    command: str
    seed: int = 0
    output_dir: str = "."
    k: Optional[int] = None
    beta: Optional[float] = None
    p_e2: Optional[float] = None
    p: Optional[float] = None
    trials: int = 10000
    channel: Optional[dict] = None
    amp_channel: Optional[dict] = None
    phase_channel: Optional[dict] = None
    main_channel: Optional[dict] = None
    relay_channels: Optional[dict] = None
    input_state: Optional[dict] = None
    raw: dict = field(default_factory=dict)


@dataclass
class RunManifest:
    command: str
    config: dict
    version: str
    duration_seconds: float
    outputs: list
    output_dir: str
    counters: dict


# ---------------------------------------------------------------------------
# Channel spec parsing
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_spec(spec) -> None:
    if not isinstance(spec, dict):
        raise ValueError("channel spec must be a JSON object, got "
                         f"{type(spec).__name__}")


def _number_field(spec: dict, name: str) -> float:
    value = spec.get(name)
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _dim_field(spec: dict, name: str) -> int:
    value = spec.get(name, 2)
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def build_classical_channel(spec: dict) -> BDMC:
    _check_spec(spec)
    kind = spec.get("kind")
    if kind == "bec":
        return BDMC.bec(_number_field(spec, "epsilon"))
    if kind == "bsc":
        return BDMC.bsc(_number_field(spec, "p"))
    if kind == "table":
        return BDMC(spec["w"])
    raise ValueError(f"unknown classical channel kind {kind!r}")


def build_quantum_channel(spec: dict) -> KrausChannel:
    _check_spec(spec)
    kind = spec.get("kind")
    if kind == "identity":
        return identity_channel(_dim_field(spec, "dim"))
    if kind == "dephasing":
        return dephasing_channel(_number_field(spec, "q"))
    if kind == "bit_flip":
        return bit_flip_channel(_number_field(spec, "q"))
    if kind == "depolarizing":
        return depolarizing_channel(_number_field(spec, "q"))
    if kind == "erasure":
        return erasure_channel(_number_field(spec, "epsilon"),
                               _dim_field(spec, "in_dim"))
    if kind == "compose":
        stages = [build_quantum_channel(s) for s in spec["stages"]]
        if not stages:
            raise ValueError("compose needs at least one stage")
        out = stages[0]
        for stage in stages[1:]:
            out = compose_channels(out, stage)
        return out
    raise ValueError(f"unknown quantum channel kind {kind!r}")


_INPUT_MODES = ("bell", "entangled_flagged", "phase_set_state")
_FLAG_VARIANTS = ("literal", "alternating")
_MODE_IN_DIM = {"bell": 2, "entangled_flagged": 4}


def _input_mode(state_spec: dict, main_in_dim: int) -> str:
    """The configured joint-input mode, defaulting by the main channel's
    input dimension."""
    return state_spec.get("mode", "bell" if main_in_dim == 2
                          else "entangled_flagged")


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

_REQUIRED = {
    "polarize": ("channel", "k", "beta"),
    "sets": ("amp_channel", "phase_channel", "k", "beta"),
    "capacity": ("amp_channel", "phase_channel", "k", "beta"),
    "relay-sim": ("amp_channel", "phase_channel", "k", "beta", "p_e2",
                  "trials"),
    "superactivate": ("main_channel", "amp_channel", "phase_channel", "k",
                      "beta", "p"),
    "sweep": ("main_channel", "amp_channel", "phase_channel", "k", "beta"),
}


_RELAY_HOPS = ("e1e2", "e2d", "e1d")


def load_config(path, command: Optional[str] = None,
                seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    CLI-level overrides (command, seed, output dir) take precedence over
    file values. Raises ConfigError listing every violated constraint.
    """
    violations = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    file_command = raw.get("command")
    if command is not None and file_command is not None and command != file_command:
        violations.append(
            f"command {command!r} conflicts with config command {file_command!r}")
    cmd = command or file_command
    if cmd not in COMMANDS:
        violations.append(f"command must be one of {COMMANDS}, got {cmd!r}")
        raise ConfigError(violations)

    cfg = ExperimentConfig(
        command=cmd,
        seed=seed if seed is not None else raw.get("seed", 0),
        output_dir=output_dir if output_dir is not None
        else raw.get("output_dir", "."),
        k=raw.get("k"),
        beta=raw.get("beta"),
        p_e2=raw.get("p_e2"),
        p=raw.get("p"),
        trials=raw.get("trials", 10000),
        channel=raw.get("channel"),
        amp_channel=raw.get("amp_channel"),
        phase_channel=raw.get("phase_channel"),
        main_channel=raw.get("main_channel"),
        relay_channels=raw.get("relay_channels"),
        input_state=raw.get("input_state"),
        raw=raw,
    )

    for name in _REQUIRED[cmd]:
        if getattr(cfg, name) is None:
            violations.append(f"{cmd} requires field {name!r}")

    if not _is_int(cfg.seed) or not 0 <= cfg.seed < 2 ** 64:
        violations.append(f"seed must be a 64-bit unsigned integer, got {cfg.seed!r}")
    if cfg.k is not None and (not _is_int(cfg.k) or not 1 <= cfg.k <= 20):
        violations.append(f"k must be an integer in [1, 20], got {cfg.k!r}")
    if not _is_int(cfg.trials) or cfg.trials < 1:
        violations.append(f"trials must be an integer >= 1, got {cfg.trials!r}")
    for name, upper in (("beta", 0.5), ("p_e2", 1.0), ("p", 1.0)):
        val = getattr(cfg, name)
        if val is not None and not (_is_number(val) and 0.0 < val < upper):
            violations.append(f"{name} must be a number strictly inside "
                              f"(0, {upper:g}), got {val!r}")

    channels = [("channel", cfg.channel, build_classical_channel),
                ("amp_channel", cfg.amp_channel, build_classical_channel),
                ("phase_channel", cfg.phase_channel, build_classical_channel),
                ("main_channel", cfg.main_channel, build_quantum_channel)]
    channels = [c for c in channels if c[1] is not None]
    hops = cfg.relay_channels
    if hops is not None and not isinstance(hops, dict):
        violations.append(
            f"relay_channels must be a JSON object, got {type(hops).__name__}")
        hops = None
    for hop, spec in (hops or {}).items():
        if hop in _RELAY_HOPS:
            channels.append((f"relay_channels.{hop}", spec,
                             build_classical_channel))
        else:
            violations.append(f"relay_channels has unknown hop {hop!r}, "
                              f"expected one of {_RELAY_HOPS}")
    built = {}
    for name, spec, builder in channels:
        try:
            built[name] = builder(spec)
        except Exception as exc:
            violations.append(f"{name} invalid: {exc}")
    state = cfg.input_state
    if state is not None and not isinstance(state, dict):
        violations.append("input_state must be a JSON object, got "
                          f"{type(state).__name__}")
    elif cmd in ("superactivate", "sweep"):
        violations += _input_state_violations(state or {},
                                              built.get("main_channel"))
    main_channel = built.get("main_channel")
    if cmd in ("superactivate", "sweep") and main_channel is not None:
        size = branch_bytes(main_channel)
        if size > MAX_BRANCH_BYTES:
            violations.append(
                f"main_channel too large: its branch pairs need up to {size} "
                f"bytes of Kraus operators and Gram matrix, above the bound "
                f"of {MAX_BRANCH_BYTES}")

    if violations:
        raise ConfigError(violations)
    return cfg


def _input_state_violations(state: dict,
                            main: Optional[KrausChannel]) -> list:
    """Mode and variant names, and the main channel input dimension the
    mode needs; ``phase_set_state`` is left to fail at run time."""
    violations = []
    if "mode" in state and state["mode"] not in _INPUT_MODES:
        violations.append(f"input_state.mode must be one of {_INPUT_MODES}, "
                          f"got {state['mode']!r}")
    elif main is not None:
        mode = _input_mode(state, main.in_dim)
        need = _MODE_IN_DIM.get(mode, main.in_dim)
        if need != main.in_dim:
            violations.append(
                f"input_state.mode {mode!r} needs a main_channel with in_dim "
                f"{need}, got {main.in_dim}")
    variant = state.get("variant", "alternating")
    if variant not in _FLAG_VARIANTS:
        violations.append(f"input_state.variant must be one of "
                          f"{_FLAG_VARIANTS}, got {variant!r}")
    return violations


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.{SIGNIFICANT_DIGITS}g}"
    return str(v)


def _column_cells(column):
    """A %-conversion and the values it formats for one column. Int, float
    and str arrays are converted from their Python values (``tolist()``),
    which the conversion formats as ``_format_value`` would; any other
    column goes through ``_format_value`` cell by cell."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
        kind = column.dtype.kind
        if kind in "iu":
            return "%d", values
        if kind == "f":
            return f"%.{SIGNIFICANT_DIGITS}g", values
        if kind == "U":
            return "%s", values
        column = values
    return "%s", [_format_value(v) for v in column]


def _csv_blocks(header, columns, rows: int):
    """The CSV text: the header line, then CSV_BLOCK_ROWS rows at a time,
    each block formatted by one %-operation over its row-major cells."""
    yield ",".join(header) + "\n"
    for start in range(0, rows, CSV_BLOCK_ROWS):
        codes, values = zip(*(_column_cells(c[start:start + CSV_BLOCK_ROWS])
                               for c in columns))
        count = len(values[0])
        yield (",".join(codes) + "\n") * count % tuple(
            itertools.chain.from_iterable(zip(*values)))


def _write_csv(path: Path, header, columns) -> str:
    """Write a CSV from equal-length columns, one block of rows at a time,
    and return the SHA-256 of the bytes written."""
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError("need one equal-length column per header field")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _csv_blocks(header, columns, rows):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _partition_from_config(cfg: ExperimentConfig):
    pr_amp = polarize(build_classical_channel(cfg.amp_channel), cfg.k)
    pr_phase = polarize(build_classical_channel(cfg.phase_channel), cfg.k)
    return build_partition(from_polarizations(pr_amp, pr_phase, cfg.beta))


def _class_sizes(part) -> dict:
    return {"n": part.n, "size_s_in": set_size(part.s_in),
            "size_p1": set_size(part.p1), "size_p2": set_size(part.p2),
            "size_b": set_size(part.b)}


def _cmd_polarize(cfg: ExperimentConfig):
    pr = polarize(build_classical_channel(cfg.channel), cfg.k)
    sets = select_sets(pr, cfg.beta)
    good = set_size(sets.good)
    return ([("polarization.csv", ("index", "z", "set"),
              polarization_rows(pr, sets))],
            {"n": pr.n, "size_good": good, "size_bad": pr.n - good})


def _cmd_sets(cfg: ExperimentConfig):
    part = _partition_from_config(cfg)
    return ([("partition.csv", ("index", "set"), partition_rows(part))],
            _class_sizes(part))


CAPACITY_HEADER = ("n", "size_s_in", "size_p1", "size_p2", "size_b",
                   "p_sym_degraded", "p_sym_nondegraded", "r_sym", "c_bob",
                   "c_eve_total", "c_eve_p1", "eve_section_e1e2",
                   "eve_section_e2d", "relay_private_capacity",
                   "relay_capacity_min")
RELAY_SIM_HEADER = ("p_e2", "trials", "successes", "rate",
                    "expected_throughput", "b_star_throughput")


def _cmd_capacity(cfg: ExperimentConfig):
    part = _partition_from_config(cfg)
    rates = rate_report(part)
    eve = eve_capacity(part)
    sizes = _class_sizes(part)
    n = part.n
    c_12 = set_size(part.good_phase) / n
    c_1d = set_size(part.p2) / n
    c_2d = relay_private_capacity(part)
    row = (*sizes.values(),  # n and the class sizes, in header order
           rates.p_sym_degraded, rates.p_sym_nondegraded, rates.r_sym,
           rates.c_bob, eve.c_eve_total, eve.c_eve_p1,
           eve.eve_section_e1e2, eve.eve_section_e2d,
           relay_private_capacity(part),
           relay_capacity_min(c_12, c_1d, c_2d))
    return ([("capacity.csv", CAPACITY_HEADER, list(zip(*[row])))],
            dict(zip(CAPACITY_HEADER, row)))


def _relay_spec(cfg: ExperimentConfig, part) -> RelayChannelSpec:
    amp = build_classical_channel(cfg.amp_channel)
    phase = build_classical_channel(cfg.phase_channel)
    trio = cfg.relay_channels or {}
    return RelayChannelSpec(
        n_e1e2=build_classical_channel(trio["e1e2"]) if "e1e2" in trio else phase,
        n_e2d=build_classical_channel(trio["e2d"]) if "e2d" in trio else amp,
        n_e1d=build_classical_channel(trio["e1d"]) if "e1d" in trio else amp,
        p_e2=cfg.p_e2,
        partition=part,
    )


def _cmd_relay_sim(cfg: ExperimentConfig):
    part = _partition_from_config(cfg)
    spec = _relay_spec(cfg, part)
    result = simulate_relay(spec, cfg.trials, cfg.seed)
    rows = simulation_rows(spec, result)
    return ([("relay_sim.csv", RELAY_SIM_HEADER, list(zip(*rows)))],
            {**_class_sizes(part), **dict(zip(RELAY_SIM_HEADER, rows[0]))})


SWEEP_HEADER = ("p", "i_coh_joint", "term_mm", "term_me", "term_em",
                "term_ee", "bound_2p1p", "b", "b_star", "advantage")


def _switch_sweep(cfg: ExperimentConfig, p_values, name: str):
    """The sweep table over ``p_values``: the branch terms are computed
    once, and each p is their weighted sum."""
    main = build_quantum_channel(cfg.main_channel)
    part = _partition_from_config(cfg)
    state_spec = cfg.input_state or {}
    state = make_rho_ac(_input_mode(state_spec, main.in_dim),
                        variant=state_spec.get("variant", "alternating"))
    branches = branch_terms(main, state)
    reports = [joint_coherent_info(build_switch_channel(p, main), branches)
               for p in p_values]
    comparisons = [compare_assisted(p, part) for p in p_values]
    at_half = [r.bound_2p1p for r in reports if abs(r.p - 0.5) < 1e-12]
    flips = [later.p_e2 for earlier, later in zip(comparisons, comparisons[1:])
             if earlier.advantage != later.advantage]
    counters = {
        "p_points": len(p_values),
        "main_kraus": len(main.kraus_ops),
        "main_in_dim": main.in_dim,
        "main_out_dim": main.out_dim,
        "coherent_information_calls": len(branches.terms) + 1,  # and i_main
        "bound_2p1p_at_half": at_half[-1] if at_half else None,
        "advantage_flip_p": flips[0] if flips else None,
    }
    columns = list(zip(*sweep_rows(reports, comparisons)))
    return [(name, SWEEP_HEADER, columns)], counters


def _cmd_superactivate(cfg: ExperimentConfig):
    return _switch_sweep(cfg, [cfg.p], "superactivate.csv")


def _cmd_sweep(cfg: ExperimentConfig):
    return _switch_sweep(cfg, [i / 100.0 for i in range(1, 100)], "sweep.csv")


_DISPATCH = {
    "polarize": _cmd_polarize,
    "sets": _cmd_sets,
    "capacity": _cmd_capacity,
    "relay-sim": _cmd_relay_sim,
    "superactivate": _cmd_superactivate,
    "sweep": _cmd_sweep,
}


def run(cfg: ExperimentConfig) -> RunManifest:
    """Run one experiment: write its CSV outputs and manifest.json."""
    start = time.perf_counter()
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    tables, counters = _DISPATCH[cfg.command](cfg)
    for name, header, columns in tables:
        path = outdir / name
        digest = _write_csv(path, header, columns)
        outputs.append({"path": str(path), "sha256": digest})
    manifest = RunManifest(
        command=cfg.command,
        config=cfg.raw | {"command": cfg.command, "seed": cfg.seed},
        version=__version__,
        duration_seconds=time.perf_counter() - start,
        outputs=outputs,
        output_dir=str(outdir),
        counters=counters,
    )
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def render_report(manifest: RunManifest) -> str:
    """Plain-text summary of a finished run."""
    lines = [f"qrelay {manifest.command} (v{manifest.version}, "
             f"{manifest.duration_seconds:.3f}s)"]
    if not manifest.outputs:
        lines.append("no outputs were produced")
        return "\n".join(lines)
    for entry in manifest.outputs:
        path = Path(entry["path"])
        if not path.exists():
            raise ValueError(f"missing output file {path}")
    counts = manifest.counters
    if manifest.command == "polarize":
        n, good = counts["n"], counts["size_good"]
        lines.append(f"  n = {n}, |good| = {good}, "
                     f"|bad| = {counts['size_bad']}, "
                     f"capacity estimate = {good / n:.6g}")
    elif manifest.command == "sets":
        lines.append("  " + ", ".join(
            f"|{name}| = {counts['size_' + name.lower()]}"
            for name in ("S_in", "P1", "P2", "B")))
    elif manifest.command in ("capacity", "relay-sim"):
        header = (CAPACITY_HEADER if manifest.command == "capacity"
                  else RELAY_SIM_HEADER)
        for key in header:
            lines.append(f"  {key} = {_format_value(counts[key])}")
    elif manifest.command in ("superactivate", "sweep"):
        if counts["bound_2p1p_at_half"] is not None:
            lines.append(f"  at p = 0.5: bound_2p1p = "
                         f"{_format_value(counts['bound_2p1p_at_half'])} "
                         f"(half the main coherent information)")
        if counts["advantage_flip_p"] is not None:
            lines.append(f"  advantage flips at p = "
                         f"{_format_value(counts['advantage_flip_p'])}")
        lines.append(f"  rows = {counts['p_points']}")
    lines.append("data files:")
    for entry in manifest.outputs:
        lines.append(f"  {entry['path']}  sha256 {entry['sha256'][:12]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrelay",
        description="Polar coding experiments over relay channels")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, command=args.command, seed=args.seed,
                          output_dir=args.out)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    try:
        manifest = run(cfg)
    except Exception as exc:  # runtime failure after a valid config
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(render_report(manifest))
    return 0
