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
from dataclasses import dataclass, field, fields
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


def _stage_shapes(spec) -> list:
    """(in_dim, out_dim, Kraus count) of each stage that
    ``build_quantum_channel`` would build from ``spec``, nested compose
    stages flattened, read from the spec alone."""
    _check_spec(spec)
    kind = spec.get("kind")
    if kind == "compose":
        stages = spec.get("stages")
        if not isinstance(stages, list) or not stages:
            raise ValueError("compose needs a nonempty list of stages")
        return [shape for stage in stages for shape in _stage_shapes(stage)]
    if kind == "identity":
        dim = _dim_field(spec, "dim")
        return [(dim, dim, 1)]
    if kind == "erasure":
        dim = _dim_field(spec, "in_dim")
        return [(dim, dim + 1, dim + 1)]
    if kind in ("dephasing", "bit_flip", "depolarizing"):
        ops = 4 if kind == "depolarizing" else 2
        return [(2, 2, ops if _number_field(spec, "q") else 1)]  # 1 at q = 0
    raise ValueError(f"unknown quantum channel kind {kind!r}")


def _main_branch_bytes(spec) -> int:
    """``branch_bytes`` of the channel ``spec`` describes, before anything
    is allocated. A compose chain is checked stage by stage and stops at
    the first prefix above MAX_BRANCH_BYTES: along a chain the input
    dimension is fixed and the output dimension and Kraus count never
    shrink, so no later prefix can come back under the bound."""
    shapes = _stage_shapes(spec)
    in_dim, out_dim, ops = shapes[0]
    size = branch_bytes(shapes[0])
    for stage_in, stage_out, stage_ops in shapes[1:]:
        if size > MAX_BRANCH_BYTES:
            break
        if stage_in != out_dim:
            raise ValueError(f"cannot compose: first yields dim {out_dim}, "
                             f"second expects dim {stage_in}")
        out_dim, ops = stage_out, ops * stage_ops
        size = branch_bytes((in_dim, out_dim, ops))
    return size


# The joint-input modes a config can select, with the main channel input
# dimension each needs.
_MODE_IN_DIM = {"bell": 2, "entangled_flagged": 4}
_INPUT_MODES = tuple(_MODE_IN_DIM)
_FLAG_VARIANTS = ("literal", "alternating")


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
    except (ValueError, RecursionError) as exc:
        # bad JSON, non-UTF-8 bytes, nesting past the recursion limit, or
        # an integer beyond int's digit limit
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    known = {f.name for f in fields(ExperimentConfig)} - {"raw"}
    unknown = sorted(set(raw) - known)
    if unknown:
        violations.append(
            f"unknown config keys {', '.join(map(repr, unknown))}, expected "
            f"only {', '.join(sorted(known))}")

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
                ("phase_channel", cfg.phase_channel, build_classical_channel)]
    if cfg.main_channel is not None:
        try:
            size = _main_branch_bytes(cfg.main_channel)
        except (ValueError, RecursionError) as exc:
            violations.append(f"main_channel invalid: {exc}")
        else:
            if size > MAX_BRANCH_BYTES:
                violations.append(
                    f"main_channel too large: its branch pairs need up to "
                    f"{size} bytes of Kraus operators and Gram matrix, above "
                    f"the bound of {MAX_BRANCH_BYTES}")
            else:
                channels.append(("main_channel", cfg.main_channel,
                                 build_quantum_channel))
    channels = [c for c in channels if c[1] is not None]
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

    if violations:
        raise ConfigError(violations)
    return cfg


def _input_state_violations(state: dict,
                            main: Optional[KrausChannel]) -> list:
    """Mode and variant names, and the main channel input dimension the
    mode needs."""
    violations = []
    if "mode" in state and state["mode"] not in _INPUT_MODES:
        violations.append(f"input_state.mode must be one of {_INPUT_MODES}, "
                          f"got {state['mode']!r}")
    elif main is not None:
        mode = _input_mode(state, main.in_dim)
        need = _MODE_IN_DIM[mode]
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


_INT64_MAX = np.iinfo(np.int64).max


def _digit_quads():
    """The four ASCII digits of 0..9999 as one uint32 word each: indices
    0..9999 zero-padded (a quad below a value's leading one), 10000..19999
    NUL-padded (the leading quad) and 20000 all NUL (a quad above it)."""
    n = np.arange(10000)[:, None]
    digits = n // [1000, 100, 10, 1] % 10 + ord("0")
    leading = np.where(n >= [1000, 100, 10, 0], digits, 0)
    quads = np.concatenate([digits, leading, np.zeros((1, 4), dtype=int)])
    return quads.astype(np.uint8).view(np.uint32).ravel()


_QUAD = np.uint64(10000)
_DIGIT_QUADS = _digit_quads()
# sign, SIGNIFICANT_DIGITS digits, point and an exponent such as "e-308"
_FLOAT_WIDTH = SIGNIFICANT_DIGITS + 7
_FLOAT_CODE = f"%{_FLOAT_WIDTH}.{SIGNIFICANT_DIGITS}g"
_COMMA, _NEWLINE = ord(","), ord("\n")


def _int_table(values):
    """Decimal digits of an int array whose values fit int64, by numpy
    arithmetic four at a time from ``_DIGIT_QUADS``, right-aligned and
    NUL-padded, with a '-' before the first digit of negative values."""
    values = values.astype(np.int64, copy=False)
    magnitude = np.abs(values).view(np.uint64)   # 2^63 for int64 min
    quads = -(-len(str(int(magnitude.max()))) // 4)
    words = np.zeros((len(values), quads + 1), dtype=np.uint32)
    for quad in range(quads, 0, -1):
        high = magnitude // _QUAD    # far faster than np.divmod
        index = magnitude - high * _QUAD + _QUAD * (high == 0)
        if quad < quads:   # above the units quad, a used-up value is blank
            index += _QUAD * (magnitude == 0)
        words[:, quad] = _DIGIT_QUADS.take(index)
        magnitude = high
    data = words.view(np.uint8)[:, 3:]   # the sign byte, then the digits
    rows = np.flatnonzero(values < 0)
    data[rows, (data[rows] != 0).argmax(axis=1) - 1] = ord("-")
    return data, None


def _float_table(values):
    """Each distinct float64 bit pattern formatted once by ``%.12g`` (so
    -0.0, 0.0 and NaN stay apart), gathered back to the rows. The
    conversion pads every value to the widest ``%.12g`` can give, so the
    text is already a table; the pad spaces become NUL, as no value
    contains a space or a NUL."""
    bits, inverse = np.unique(
        values.astype(np.float64, copy=False).view(np.int64),
        return_inverse=True)
    text = (_FLOAT_CODE * len(bits)) % tuple(bits.view(np.float64).tolist())
    table = np.frombuffer(text.encode("ascii").replace(b" ", b"\0"),
                          dtype=np.uint8).reshape(len(bits), _FLOAT_WIDTH)
    return table.take(inverse, axis=0), None


def _padded_cells(data, lengths):
    """A left-aligned NUL-padded table with the ``lengths`` of its cells:
    no mask when every NUL byte is padding, else the mask of each cell's
    bytes."""
    if np.count_nonzero(data) == lengths.sum():
        return data, None
    return data, np.arange(data.shape[1]) < lengths[:, None]


def _cell_table(column):
    """The NUL-padded byte table of one block of one column, a (rows,
    width) uint8 array, and the mask of its real bytes, or None when they
    are exactly its non-NUL bytes. Int, ASCII str and float arrays are
    converted in numpy; any other column (bool arrays, non-ASCII str,
    uint64 >= 2^63, lists) goes through ``_format_value`` cell by cell."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "i" or kind == "u" and column.max() <= _INT64_MAX:
            return _int_table(column)
        if kind == "f":
            return _float_table(column)
        if kind == "U":
            column = np.ascontiguousarray(column)
            codes = column.view(np.uint32).reshape(len(column), -1)
            if codes.max(initial=0) < 128:
                return _padded_cells(codes.astype(np.uint8),
                                     np.char.str_len(column))
        column = column.tolist()
    cells = [_format_value(v).encode("utf-8") for v in column]
    lengths = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    width = int(lengths.max(initial=0))
    text = b"".join(c.ljust(width, b"\0") for c in cells)
    data = np.frombuffer(text, dtype=np.uint8).reshape(len(cells), width)
    return _padded_cells(data, lengths)


def _csv_block(columns) -> bytes:
    """One block of rows: the columns' byte tables side by side with
    ',' and '\n' columns between them, compressed to their real bytes by
    one boolean mask."""
    tables = [_cell_table(c) for c in columns]
    rows = len(tables[0][0])
    parts = []
    for i, (cells, _) in enumerate(tables):
        sep = _NEWLINE if i == len(tables) - 1 else _COMMA
        parts += [cells, np.full((rows, 1), sep, dtype=np.uint8)]
    block = np.concatenate(parts, axis=1)
    keep = block != 0
    start = 0
    for cells, real in tables:
        if real is not None:
            keep[:, start:start + cells.shape[1]] = real
        start += cells.shape[1] + 1
    return block[keep].tobytes()


def _write_csv(path: Path, header, columns) -> str:
    """Write a CSV from equal-length columns, CSV_BLOCK_ROWS rows at a
    time, and return the SHA-256 of the bytes written."""
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError("need one equal-length column per header field")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        blocks = itertools.chain(
            [(",".join(header) + "\n").encode("utf-8")],
            (_csv_block([c[start:start + CSV_BLOCK_ROWS] for c in columns])
             for start in range(0, rows, CSV_BLOCK_ROWS)))
        for data in blocks:
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
           eve.eve_section_e1e2, eve.eve_section_e2d, c_2d,
           relay_capacity_min(c_12, c_1d, c_2d))
    return ([("capacity.csv", CAPACITY_HEADER, list(zip(*[row])))],
            dict(zip(CAPACITY_HEADER, row)))


def _cmd_relay_sim(cfg: ExperimentConfig):
    part = _partition_from_config(cfg)
    spec = RelayChannelSpec(p_e2=cfg.p_e2, partition=part)
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
        outputs.append({"path": str(path), "sha256": digest,
                        "rows": len(columns[0]),
                        "bytes": path.stat().st_size})
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
