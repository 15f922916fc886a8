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
from typing import Callable, NamedTuple, Optional

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
from .superactivation import (BRANCH_KEYS, MAX_BRANCH_BYTES, P_GRID,
                              branch_bytes, branch_terms, compare_assisted,
                              make_rho_ac, switch_report)
# Not called here: bound for the span names of the benchmark's TRACE_POINTS.
from .superactivation import (build_switch_channel,  # noqa: F401
                              joint_coherent_info)

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


def _check_keys(spec: dict, owner: str, *reads) -> None:
    """Reject the keys of a nested spec that ``owner`` does not read."""
    unread = sorted(spec.keys() - set(reads))
    if unread:
        raise ValueError(f"unknown keys {', '.join(map(repr, unread))} for "
                         f"{owner}, which reads only {', '.join(sorted(reads))}")


def _kind_fields(spec: dict, *fields) -> None:
    """Reject the keys of a channel spec besides its kind and ``fields``."""
    _check_keys(spec, f"kind {spec['kind']!r}", "kind", *fields)


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


def _table_field(spec: dict) -> list:
    """``w``: two equal-length nonempty lists of JSON numbers."""
    w = spec.get("w")
    rows = w if isinstance(w, list) and len(w) == 2 else [[]]
    if not all(isinstance(row, list) and row and len(row) == len(rows[0])
               and all(map(_is_number, row)) for row in rows):
        raise ValueError(f"w must be a 2 x m list of numbers, got {w!r}")
    return w


def build_classical_channel(spec: dict) -> BDMC:
    _check_spec(spec)
    kind = spec.get("kind")
    if kind == "bec":
        _kind_fields(spec, "epsilon")
        return BDMC.bec(_number_field(spec, "epsilon"))
    if kind == "bsc":
        _kind_fields(spec, "p")
        return BDMC.bsc(_number_field(spec, "p"))
    if kind == "table":
        _kind_fields(spec, "w")
        return BDMC(_table_field(spec))
    raise ValueError(f"unknown classical channel kind {kind!r}")


class ChannelTooLarge(ValueError):
    """A quantum channel spec whose branch pairs would need more than
    MAX_BRANCH_BYTES."""


def _leaves(spec):
    """The leaves of a quantum channel spec in the order they act, nested
    compose stages flattened, each as the (in_dim, out_dim, Kraus count)
    of its channel, read from the spec, and the constructor that builds
    it."""
    _check_spec(spec)
    kind = spec.get("kind")
    if kind == "compose":
        _kind_fields(spec, "stages")
        stages = spec.get("stages")
        if not isinstance(stages, list) or not stages:
            raise ValueError("compose needs a nonempty list of stages")
        for stage in stages:
            yield from _leaves(stage)
    elif kind == "identity":
        _kind_fields(spec, "dim")
        dim = _dim_field(spec, "dim")
        yield (dim, dim, 1), lambda: identity_channel(dim)
    elif kind == "erasure":
        _kind_fields(spec, "epsilon", "in_dim")
        epsilon = _number_field(spec, "epsilon")
        dim = _dim_field(spec, "in_dim")
        yield (dim, dim + 1, dim + 1), lambda: erasure_channel(epsilon, dim)
    elif kind in ("dephasing", "bit_flip"):
        _kind_fields(spec, "q")
        q = _number_field(spec, "q")
        build = dephasing_channel if kind == "dephasing" else bit_flip_channel
        yield (2, 2, 2 if q else 1), lambda: build(q)   # 1 operator at q = 0
    elif kind == "depolarizing":
        _kind_fields(spec, "q")
        q = _number_field(spec, "q")
        yield (2, 2, 4 if q else 1), lambda: depolarizing_channel(q)
    else:
        raise ValueError(f"unknown quantum channel kind {kind!r}")


def build_quantum_channel(spec: dict) -> KrausChannel:
    """Build the channel ``spec`` describes, composing its leaves in order.

    Before each leaf is allocated, ``branch_bytes`` of the chain up to and
    including it is checked: ChannelTooLarge stops at the first prefix
    above MAX_BRANCH_BYTES. Along a chain the input dimension is fixed and
    the output dimension and Kraus count never shrink, so no later prefix
    could come back under the bound.
    """
    channel = None
    for (in_dim, out_dim, ops), build in _leaves(spec):
        if channel is not None:
            in_dim, ops = channel.in_dim, len(channel.kraus_ops) * ops
        size = branch_bytes((in_dim, out_dim, ops))
        if size > MAX_BRANCH_BYTES:
            raise ChannelTooLarge(
                f"its branch pairs need up to {size} bytes of Kraus "
                f"operators and Gram matrix, above the bound of "
                f"{MAX_BRANCH_BYTES}")
        leaf = build()
        channel = leaf if channel is None else compose_channels(channel, leaf)
    return channel


def _joint_input(state_spec: dict, main: KrausChannel):
    """The configured joint input state, its mode defaulting by the main
    channel's input dimension, which the state's side must match."""
    mode = state_spec.get("mode", "bell" if main.in_dim == 2
                          else "entangled_flagged")
    _check_keys(state_spec, f"mode {mode!r}", "mode", "variant")
    state = make_rho_ac(mode, state_spec.get("variant", "alternating"))
    if state.side_dim != main.in_dim:
        raise ValueError(f"mode {mode!r} needs a main_channel with in_dim "
                         f"{state.side_dim}, got {main.in_dim}")
    return state


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

def load_config(path, command: Optional[str] = None,
                seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    CLI-level overrides (command, seed, output dir) take precedence over
    file values. Only the fields the command reads are parsed; any other
    key is a violation. Raises ConfigError listing every violated
    constraint.
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

    file_command = raw.get("command")
    if command is not None and file_command is not None and command != file_command:
        violations.append(
            f"command {command!r} conflicts with config command {file_command!r}")
    cmd = command or file_command
    if cmd not in COMMANDS:
        violations.append(f"command must be one of {COMMANDS}, got {cmd!r}")
        raise ConfigError(violations)

    entry = _COMMANDS[cmd]
    reads = {"seed", "output_dir", *entry.required, *entry.optional}
    unread = sorted(raw.keys() - reads - {"command"})
    if unread:
        violations.append(
            f"unknown config keys {', '.join(map(repr, unread))} for {cmd}, "
            f"which reads only {', '.join(sorted(reads | {'command'}))}")
    cfg = ExperimentConfig(command=cmd, raw=raw,
                           **{name: raw[name] for name in reads & raw.keys()})
    if seed is not None:
        cfg.seed = seed
    if output_dir is not None:
        cfg.output_dir = output_dir

    for name in entry.required:
        if getattr(cfg, name) is None:
            violations.append(f"{cmd} requires field {name!r}")

    if not _is_int(cfg.seed) or not 0 <= cfg.seed < 2 ** 64:
        violations.append(f"seed must be a 64-bit unsigned integer, got {cfg.seed!r}")
    if not isinstance(cfg.output_dir, str):
        violations.append(f"output_dir must be a string, got {cfg.output_dir!r}")
    if cfg.k is not None and (not _is_int(cfg.k) or not 1 <= cfg.k <= 20):
        violations.append(f"k must be an integer in [1, 20], got {cfg.k!r}")
    # trial indices fill one 64-bit counter word of the Philox stream
    if not _is_int(cfg.trials) or not 1 <= cfg.trials <= 2 ** 64:
        violations.append(f"trials must be an integer in [1, 2^64], "
                          f"got {cfg.trials!r}")
    for name, upper in (("beta", 0.5), ("p_e2", 1.0), ("p", 1.0)):
        val = getattr(cfg, name)
        if val is not None and not (_is_number(val) and 0.0 < val < upper):
            violations.append(f"{name} must be a number strictly inside "
                              f"(0, {upper:g}), got {val!r}")

    built = {}
    for name in ("channel", "amp_channel", "phase_channel", "main_channel"):
        spec = getattr(cfg, name)
        if spec is None:
            continue
        builder = (build_quantum_channel if name == "main_channel"
                   else build_classical_channel)
        try:
            built[name] = builder(spec)
        except ChannelTooLarge as exc:
            violations.append(f"{name} too large: {exc}")
        except Exception as exc:
            violations.append(f"{name} invalid: {exc}")
    state = cfg.input_state
    if state is not None and not isinstance(state, dict):
        violations.append("input_state must be a JSON object, got "
                          f"{type(state).__name__}")
    elif "main_channel" in built:
        try:
            _joint_input(state or {}, built["main_channel"])
        except ValueError as exc:
            violations.append(f"input_state.{exc}")

    if violations:
        raise ConfigError(violations)
    return cfg


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.{SIGNIFICANT_DIGITS}g}"
    if isinstance(v, bytes):   # as its UTF-8 text, like an S array cell
        return v.decode("utf-8")
    return str(v)


_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


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
    are exactly its non-NUL bytes. Int64 ranges and int, byte-string and
    float arrays are converted in numpy; any other column (bool and str
    arrays, values past int64, lists) goes through ``_format_value`` cell
    by cell."""
    if isinstance(column, range) and all(
            _INT64_MIN <= v <= _INT64_MAX
            for v in (column.start, column.step, *column[-1:])):
        # from its exact length: np.arange sizes by float division, and
        # turns float64 when the stop passes int64
        column = column.start + column.step * np.arange(len(column))
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "i" or kind == "u" and column.max() <= _INT64_MAX:
            return _int_table(column)
        if kind == "f":
            return _float_table(column)
        if kind == "S":
            column = np.ascontiguousarray(column)
            data = column.view(np.uint8).reshape(len(column),
                                                 column.dtype.itemsize)
            return _padded_cells(data, np.char.str_len(column))
        column = column.tolist()
    cells = [_format_value(v).encode("utf-8") for v in column]
    lengths = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    width = int(lengths.max(initial=0))
    text = b"".join(c.ljust(width, b"\0") for c in cells)
    data = np.frombuffer(text, dtype=np.uint8).reshape(len(cells), width)
    return _padded_cells(data, lengths)


def _csv_block(columns):
    """One block of rows as a uint8 array: the columns' byte tables side
    by side with ',' and '\n' columns between them, compressed to their
    real bytes by one boolean mask."""
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
    return block[keep]


def _create(path: Path, mode: str, **kwargs):
    """Open a new file at ``path``, replacing what is there (a symlink
    itself, not its target). Truncating an existing file instead makes
    ext4 (auto_da_alloc) flush its old blocks, and a rerun then waits on
    that writeback."""
    path.unlink(missing_ok=True)
    return open(path, mode, **kwargs)


def _write_csv(path: Path, header, columns) -> str:
    """Write a CSV from equal-length columns, CSV_BLOCK_ROWS rows at a
    time, and return the SHA-256 of the bytes written."""
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError("need one equal-length column per header field")
    digest = hashlib.sha256()
    with _create(path, "wb") as fh:
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


def _switch_sweep(cfg: ExperimentConfig, p, name: str):
    """The sweep table over the array ``p``: the branch terms are computed
    once, and every p is evaluated from them in one array expression."""
    main = build_quantum_channel(cfg.main_channel)
    part = _partition_from_config(cfg)
    branches = branch_terms(main, _joint_input(cfg.input_state or {}, main))
    report = switch_report(p, branches)
    comparison = compare_assisted(p, part)
    at_half = report.bound_2p1p[np.abs(p - 0.5) < 1e-12]
    flips = p[1:][comparison.advantage[1:] != comparison.advantage[:-1]]
    counters = {
        "p_points": len(p),
        "main_kraus": len(main.kraus_ops),
        "main_in_dim": main.in_dim,
        "main_out_dim": main.out_dim,
        "coherent_information_calls": len(branches.terms) + 1,  # and i_main
        "bound_2p1p_at_half": float(at_half[-1]) if len(at_half) else None,
        "advantage_flip_p": float(flips[0]) if len(flips) else None,
    }
    columns = np.broadcast_arrays(
        p, report.i_coh_joint, *(branches.terms[key] for key in BRANCH_KEYS),
        report.bound_2p1p, comparison.b, comparison.b_star,
        comparison.advantage)
    return [(name, SWEEP_HEADER, columns)], counters


def _cmd_superactivate(cfg: ExperimentConfig):
    return _switch_sweep(cfg, np.array([cfg.p]), "superactivate.csv")


def _cmd_sweep(cfg: ExperimentConfig):
    return _switch_sweep(cfg, P_GRID, "sweep.csv")


class _Command(NamedTuple):
    run: Callable
    required: tuple
    optional: tuple = ()


# Each command's runner, the fields it requires and the optional fields it
# reads. Every command also reads command, seed and output_dir; any other
# key is a config error.
_COMMANDS = {
    "polarize": _Command(_cmd_polarize, ("channel", "k", "beta")),
    "sets": _Command(_cmd_sets, ("amp_channel", "phase_channel", "k", "beta")),
    "capacity": _Command(_cmd_capacity,
                         ("amp_channel", "phase_channel", "k", "beta")),
    "relay-sim": _Command(_cmd_relay_sim, ("amp_channel", "phase_channel", "k",
                                           "beta", "p_e2"), ("trials",)),
    "superactivate": _Command(_cmd_superactivate,
                              ("main_channel", "amp_channel", "phase_channel",
                               "k", "beta", "p"), ("input_state",)),
    "sweep": _Command(_cmd_sweep, ("main_channel", "amp_channel",
                                   "phase_channel", "k", "beta"),
                      ("input_state",)),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: ExperimentConfig) -> RunManifest:
    """Run one experiment: write its CSV outputs and manifest.json."""
    start = time.perf_counter()
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    tables, counters = _COMMANDS[cfg.command].run(cfg)
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
    with _create(outdir / "manifest.json", "w", encoding="utf-8") as fh:
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
