"""Configuration-driven experiment runner.

``qrelay <command> --config <path> [--seed N] [--out DIR]`` reads a JSON
config, runs one experiment, writes CSV outputs plus a manifest with
content digests, and prints a plain-text summary, each warning of the run
as one ``warning:`` line on stderr. Exit codes: 0 success, 2 config error,
3 runtime error. Identical config and seed reproduce byte-identical CSV
payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .codeword_sets import (build_partition, class_sizes, partition_rows,
                            rate_report, set_size)
from .density_ops import (KrausChannel, bit_flip_channel, compose_channels,
                          dephasing_channel, depolarizing_channel,
                          erasure_channel, identity_channel)
from .polar_core import (BDMC, LabelColumn, _erasure_like, polarization_rows,
                         polarize_walk, select_sets)
from .relay import simulate_relay
from .superactivation import (BRANCH_KEYS, MAX_BRANCH_BYTES, P_GRID,
                              branch_bytes, branch_terms, compare_assisted,
                              make_rho_ac, switch_report)
# Not called here: bound for the span names of the benchmark's TRACE_POINTS.
from .codeword_sets import from_polarizations  # noqa: F401
from .polar_core import polarize  # noqa: F401
from .superactivation import (build_switch_channel,  # noqa: F401
                              joint_coherent_info)

SIGNIFICANT_DIGITS = 12
CSV_BLOCK_ROWS = 2 ** 15


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
    channel's input dimension, which the state's side must match. Only
    ``entangled_flagged`` reads a ``variant``."""
    mode = state_spec.get("mode", "bell" if main.in_dim == 2
                          else "entangled_flagged")
    reads = ("mode",) if mode == "bell" else ("mode", "variant")
    _check_keys(state_spec, f"mode {mode!r}", *reads)
    state = make_rho_ac(mode, state_spec.get("variant"))
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
    # a uint64 count, as trial indices fill a 64-bit Philox counter word
    if not _is_int(cfg.trials) or not 1 <= cfg.trials < 2 ** 64:
        violations.append(f"trials must be an integer in [1, 2^64 - 1], "
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

def _digit_quads():
    """The four ASCII digits of 0..9999 as one uint32 word each: indices
    0..9999 zero-padded (a quad below a value's leading one) and
    10000..19999 NUL-padded (the leading quad). Built from Python
    strings, as numpy arithmetic would page in more of its own code than
    the table holds."""
    values = tuple(range(10000))
    leading = ("%4d" * 10000 % values).replace(" ", "\0")
    text = "%04d" * 10000 % values + leading
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


_DIGIT_QUADS = _digit_quads()

# A float cell is three little-endian uint64 words with NUL gaps: the sign
# and a "0.000" prefix in bytes 0-5, the SIGNIFICANT_DIGITS (12) digits
# and the point in bytes 6-18, an exponent such as "e-308" in bytes 19-23.
_FLOAT_WIDTH = 24
_FLOAT_CODE = f"%{_FLOAT_WIDTH}.{SIGNIFICANT_DIGITS}g"
# Values per kernel pass. At 2^16 each int64 temporary is 512 KB, which
# glibc returns to the OS on free, so every pass faults its pages in again.
_FLOAT_ROWS = 2 ** 14
# Above 4 * 2^-52 * r for r < 2^40: the error of the scaled value r.
_SLACK = 2.0 ** -10
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
_U8, _U16, _U32, _U48, _U56 = (np.uint64(s) for s in (8, 16, 32, 48, 56))
_MINUS = np.uint64(ord("-"))
_ZERO_DIGIT = np.uint64(ord("0"))
_ONE_BITS = np.float64(1.0).view(np.uint64)


def _float_tables():
    """The kernel's lookup tables. By decimal exponent x + 324, x = -324..
    308: the digit-string index of the point (x + 1 for fixed notation
    with x >= 0, 1 for exponent notation, 13 for none), the digits fixed
    notation keeps (x + 1), and the prefix and exponent words. By a count
    c = 0..12 of digit-string bytes, or 13 for all of them: the two words'
    masks of the first c bytes and of a '.' at byte c. The trailing zeros
    of 0..9999 as four digits. The small tables are built in Python, as
    numpy would page in more of its own code than they hold."""
    xs = range(-324, 309)
    point = [1 if x < -4 or x >= 12 else 13 if x < 0 else x + 1 for x in xs]
    digits = [x + 1 if 0 <= x < 12 else 0 for x in xs]
    prefix = b"".join((b"\0" + b"0.000"[:1 - x] if -4 <= x < 0 else b"")
                      .ljust(8, b"\0") for x in xs)
    exponent = b"".join(bytes(8) if -4 <= x < 12 else b"\0\0\0e" + (
        b"-" if x < 0 else b"+") + (b"\0%02d" if abs(x) < 100 else b"%d")
        % abs(x) for x in xs)
    counts = [*range(13), 16]
    masks = [(b"\xff" * c).ljust(16, b"\0") for c in counts]
    dots = [(bytes(c) + b".").ljust(16, b"\0")[:16] for c in counts]
    keep, dot = (np.frombuffer(b"".join(t), dtype=np.uint64).reshape(-1, 2)
                 .T.copy() for t in (masks, dots))
    zeros = [0] * 10000
    for power in (10, 100, 1000, 10000):
        zeros[::power] = [count + 1 for count in zeros[::power]]
    return (np.array(point), np.array(digits),
            *(np.frombuffer(t, dtype=np.uint64) for t in (prefix, exponent)),
            *keep, *dot, np.array(zeros))


(_POINT, _FIXED_DIGITS, _PREFIX, _EXPONENT, _KEEP0, _KEEP1, _DOT0, _DOT1,
 _TRAILING_ZEROS) = _float_tables()


def _range_cells(column, cells):
    """The decimal digits of a step-1 range of ints >= 0 into ``cells``,
    the zeroed (rows, 4 * quads) bytes of its slot, right-aligned and
    NUL-padded, one segment of values with equal v // 10^4 at a time: the
    units quads are a slice of ``_DIGIT_QUADS`` and each quad above them
    is one word, written down its column."""
    words = cells.view(np.uint32)
    last = words.shape[1] - 1   # the units quad
    row = 0
    for high in range(column.start // 10000, column[-1] // 10000 + 1):
        low = max(column.start - high * 10000, 0)
        stop = min(column.stop - high * 10000, 10000)
        rows = slice(row, row + stop - low)
        units = 0 if high else 10000   # NUL-padded below 10^4
        words[rows, last] = _DIGIT_QUADS[units + low:units + stop]
        quad, rest = last - 1, high
        while rest:   # the quads above the leading one stay NUL
            rest, index = divmod(rest, 10000)
            words[rows, quad] = _DIGIT_QUADS[index if rest else index + 10000]
            quad -= 1
        row = rows.stop


def _python_floats(values):
    """Float64 values formatted by Python's ``%.12g`` as (k, 3) words, the
    pad spaces turned NUL, as no value contains a space or a NUL."""
    text = (_FLOAT_CODE * len(values)) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii").replace(b" ", b"\0"),
                         dtype=np.uint64).reshape(len(values), 3)


def _float_words(v, out):
    """``%.12g`` of the float64 array ``v`` into ``out``, three words per
    value (shape ``v.shape + (3,)``).

    The exponent e is floor(log10|v|), and r = |v| 10^(11 - e) is reached
    by two multiplications by correctly rounded powers of ten (the second
    only past 10^300), so |r - exact| < _SLACK. A lane whose r lies within
    _SLACK of a half-integer (every exact tie does) or outside [10^11,
    10^12) by more than _SLACK, and each NaN or infinity, is formatted by
    ``_python_floats``. Otherwise r rounds like the exact value, to 12
    digits n, and an n of 10^12 is 10^11 with exponent e + 1; this also
    holds where r is within _SLACK of a power of ten but the exact value
    lies on its other side."""
    finite = np.isfinite(v)
    a = np.abs(v, out=np.zeros_like(v), where=finite)
    zero = a == 0
    e = np.floor(np.log10(a, out=np.zeros_like(a), where=~zero)).astype(
        np.int64)
    t = 311 - e   # the index of 10^(11 - e) in _POW10
    high = np.minimum(t, 600)
    r = a * _POW10.take(high) * _POW10.take(t - high + 300)
    n = np.rint(r)
    exact = ((r >= 1e11 - _SLACK) & (r < 1e12 + _SLACK)
             & (np.abs(r - n) < 0.5 - _SLACK) | zero) & finite
    del a, t, high, r
    n = n.astype(np.int64)
    top = n == 10 ** 12
    n -= top * (9 * 10 ** 11)
    x = e + top + 324
    # the 12 digits in three quads; q0 leaves 0..9999 only in lanes that
    # _python_floats redoes
    q0 = n // 10 ** 8
    n -= q0 * 10 ** 8
    q1 = n // 10 ** 4
    q2 = n - q1 * 10 ** 4
    zeros = _TRAILING_ZEROS
    kept = np.maximum(12 - (zeros.take(q2) + (q2 == 0) * (
        zeros.take(q1) + (q1 == 0) * zeros.take(q0, mode="clip"))),
        _FIXED_DIGITS.take(x))
    point = _POINT.take(x)
    point[kept <= point] = 13   # no point before nothing
    # the kept digits as a 16-byte string in w0 and w1; then the '.' goes
    # in at byte `point` and the bytes from there move up by one
    w0 = ((_DIGIT_QUADS.take(q0, mode="clip") | _DIGIT_QUADS.take(q1) << _U32)
          & _KEEP0.take(kept))
    w1 = _DIGIT_QUADS.take(q2) & _KEEP1.take(kept)
    low0 = w0 & _KEEP0.take(point)
    high0 = w0 ^ low0
    w0 = low0 | _DOT0.take(point) | high0 << _U8
    low1 = w1 & _KEEP1.take(point)
    w1 = low1 | _DOT1.take(point) | (w1 ^ low1) << _U8 | high0 >> _U56
    out[..., 0] = _PREFIX.take(x) | np.signbit(v) * _MINUS | w0 << _U48
    out[..., 1] = w0 >> _U16 | w1 << _U48
    out[..., 2] = w1 >> _U16 | _EXPONENT.take(x)
    slow = np.nonzero(~exact)
    if len(slow[0]):
        out[slow] = _python_floats(v[slow])


def _float_cells(v, out):
    """``_float_words`` of the (rows, lanes) float64 array ``v`` into
    ``out``, except that where at least an eighth of the lanes hold
    exactly +0.0 or 1.0 (58% of the polarized z values at k = 20 on
    BEC(0.3)), those lanes get their one-digit cell as one word, the
    digit in byte 0 and NUL words after it, and only the other lanes
    are gathered for the kernel and scattered back. Below an eighth the
    gather and scatter cost about what the kernel saves."""
    bits = v.view(np.uint64)
    one = bits == _ONE_BITS
    const = one | (bits == 0)
    if 8 * np.count_nonzero(const) < const.size:
        _float_words(v, out)
        return
    rest = np.flatnonzero(~const)
    words = np.empty((len(rest), 3), dtype=np.uint64)
    _float_words(v.ravel().take(rest), words)
    out[..., 0] = one + _ZERO_DIGIT   # the other lanes' words follow
    lanes = v.shape[1]   # one index array scatters faster than two
    out[(rest, 0) if lanes == 1 else np.divmod(rest, lanes)] = words


def _byte_cells(column, cells):
    """A byte-string array into the (rows, itemsize) bytes of its slot. A
    NUL byte before another byte of its cell would be dropped as padding,
    so it raises ValueError."""
    cells.view(column.dtype)[:, 0] = column
    nul = np.ascontiguousarray(column).view(np.uint8) == 0
    inner = nul[:-1] > nul[1:]    # a NUL, then a non-NUL byte
    inner[column.itemsize - 1::column.itemsize] = False   # pairs across cells
    if inner.any():
        raise ValueError("a byte-string cell holds a NUL byte")


def _csv_block(columns, reuse: list) -> bytearray:
    """One block of rows as CSV bytes from step-1 ranges of ints >= 0 (the
    only int columns) and float and byte-string arrays. Each column's
    kernel fills its slot of one zeroed (rows, width) uint8 array in
    place, each slot right after the previous slot's ',', and one
    ``translate`` drops the NUL padding. A run of float columns is one
    strided view, one ``_float_cells`` call per ``_FLOAT_ROWS`` values,
    as the float kernel's fixed cost is that of a small table's column.
    The array is the bytearray that the writer's list ``reuse`` holds,
    zeroed, if that has the block's byte size; otherwise a new one, which
    replaces it there. Growing the held one in place instead made the
    benchmark's peak RSS depend on the output path's length (52.1 or
    53.5 MB)."""
    rows = len(columns[0])
    slots, end = [], 0
    for column in columns:
        if isinstance(column, range):
            if column.step != 1 or column.start < 0:
                raise TypeError(f"cannot write {column}: only step-1 ranges "
                                f"from 0 or above")
            kind = "r"
        else:
            kind = getattr(column, "dtype", np.dtype(object)).kind
        if kind == "f":
            size = _FLOAT_WIDTH
        elif kind == "S":
            size = column.itemsize
        elif kind == "r":
            size = 4 * -(-len(str(column[-1])) // 4)
        else:
            raise TypeError(f"cannot write a {type(column).__name__} column "
                            f"of kind {kind!r}")
        slots.append((kind, column, end, size))
        end += size + 1
    if reuse and len(reuse[0]) == rows * end:   # it holds the last block
        np.frombuffer(reuse[0], dtype=np.uint8).fill(0)
    else:
        reuse[:] = [bytearray(rows * end)]   # translated with no copy
    buf = reuse[0]
    block = np.frombuffer(buf, dtype=np.uint8).reshape(rows, end)
    block[:, [start + size for *_, start, size in slots]] = ord(",")
    block[:, end - 1] = ord("\n")
    for kind, run in itertools.groupby(slots, key=lambda slot: slot[0]):
        run = list(run)
        if kind == "f":
            v = np.stack([slot[1] for slot in run], axis=1, dtype=np.float64)
            first, step = run[0][2], max(1, _FLOAT_ROWS // len(run))
            out = np.ndarray((rows, len(run), 3), np.uint64, buf, first,
                             (end, _FLOAT_WIDTH + 1, 8))
            for i in range(0, rows, step):
                _float_cells(v[i:i + step], out[i:i + step])
        else:
            cells = _range_cells if kind == "r" else _byte_cells
            for _, column, start, size in run:
                cells(column, block[:, start:start + size])
    return buf.translate(None, b"\0")


def _create(path: Path, mode: str, **kwargs):
    """Open a new file at ``path``, replacing what is there (a symlink
    itself, not its target). Truncating an existing file instead makes
    ext4 (auto_da_alloc) flush its old blocks, and a rerun then waits on
    that writeback."""
    path.unlink(missing_ok=True)
    return open(path, mode, **kwargs)


def _write_csv(path: Path, header, columns) -> str:
    """Write a CSV from equal-length columns, sliced CSV_BLOCK_ROWS rows
    at a time, and return the SHA-256 of its bytes. Each block is built
    in one reused buffer, hashed and written in turn; on any failure the
    file is removed and the exception raised again, so no partial table
    is left."""
    rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError("need one equal-length column per header field")
    head = (",".join(header) + "\n").encode("utf-8")
    digest = hashlib.sha256(head)
    reuse = []   # one block buffer for every block of one byte size
    fh = _create(path, "wb")   # a failed open has no file to remove
    try:
        with fh:
            fh.write(head)
            for start in range(0, rows, CSV_BLOCK_ROWS):
                data = _csv_block([c[start:start + CSV_BLOCK_ROWS]
                                   for c in columns], reuse)
                digest.update(data)
                fh.write(data)
                del data   # freed before the next block is built
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _good_mask(spec: dict, cfg: ExperimentConfig) -> np.ndarray:
    """A channel's good mask, filled a CSV_BLOCK_ROWS block at a time
    from its z, so no n-length z vector is held."""
    pr = polarize_walk(build_classical_channel(spec), cfg.k, CSV_BLOCK_ROWS)
    good = np.empty(pr.n, dtype=bool)
    for start in range(0, pr.n, CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        good[rows] = select_sets(pr, cfg.beta, rows)
    return good


def _partition_from_config(cfg: ExperimentConfig):
    return build_partition([_good_mask(spec, cfg)
                            for spec in (cfg.amp_channel, cfg.phase_channel)])


def _cmd_polarize(cfg: ExperimentConfig):
    """The z table, made a block at a time as the writer asks for it.
    Each block's labels are selected once, and its good rows counted
    into ``size_good`` and ``size_bad`` then, so these counters are
    final once run() has written the table."""
    w = build_classical_channel(cfg.channel)
    pr = polarize_walk(w, cfg.k, CSV_BLOCK_ROWS)
    index, z, labels = polarization_rows(pr, cfg.beta)
    counters = {"n": pr.n, "size_good": 0, "size_bad": pr.n,
                "polarization": "closed form" if _erasure_like(w) else "tables"}

    def counted(rows):
        good = labels.code(rows)
        size = set_size(good)
        counters["size_good"] += size
        counters["size_bad"] -= size
        return good

    return ([("polarization.csv", ("index", "z", "set"),
              (index, z, LabelColumn(pr.n, counted, labels.labels)))],
            counters)


def _cmd_sets(cfg: ExperimentConfig):
    part = _partition_from_config(cfg)
    return ([("partition.csv", ("index", "set"), partition_rows(part))],
            class_sizes(part))


CAPACITY_HEADER = ("n", "size_s_in", "size_p1", "size_p2", "size_b",
                   "p_sym_degraded", "p_sym_nondegraded", "r_sym", "c_bob",
                   "c_eve_total", "c_eve_p1", "eve_section_e1e2",
                   "eve_section_e2d", "relay_private_capacity",
                   "relay_capacity_min")
RELAY_SIM_HEADER = ("p_e2", "trials", "successes", "rate",
                    "expected_throughput", "b_star_throughput")


def _row_columns(row):
    """The columns of a one-row table: a Python int as the range of that
    one value, a float as a one-element float64 array."""
    return [range(v, v + 1) if isinstance(v, int) else np.array([v])
            for v in row]


def _cmd_capacity(cfg: ExperimentConfig):
    row = rate_report(_partition_from_config(cfg))
    return ([("capacity.csv", CAPACITY_HEADER,
              _row_columns(row[key] for key in CAPACITY_HEADER))], row)


def _cmd_relay_sim(cfg: ExperimentConfig):
    part = _partition_from_config(cfg)
    successes = simulate_relay(cfg.p_e2, cfg.trials, cfg.seed)
    comparison = compare_assisted(cfg.p_e2, part)
    row = (cfg.p_e2, cfg.trials, successes, successes / cfg.trials,
           comparison.b, comparison.b_star)
    return ([("relay_sim.csv", RELAY_SIM_HEADER, _row_columns(row))],
            {**class_sizes(part), **dict(zip(RELAY_SIM_HEADER, row))})


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
        np.where(comparison.advantage, b"true", b"false"))
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

def _report_value(v) -> str:
    return f"{v:.{SIGNIFICANT_DIGITS}g}" if isinstance(v, float) else str(v)


def render_report(manifest: RunManifest) -> str:
    """Plain-text summary of a finished run: the title, one line per
    manifest counter in the order the command recorded them, and the data
    files."""
    lines = [f"qrelay {manifest.command} (v{manifest.version}, "
             f"{manifest.duration_seconds:.3f}s)"]
    lines += [f"  {key} = {_report_value(value)}"
              for key, value in manifest.counters.items()]
    lines.append("data files:")
    for entry in manifest.outputs:
        lines.append(f"  {entry['path']}  sha256 {entry['sha256'][:12]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _print_warning(message, *args):
    print(f"warning: {message}", file=sys.stderr)


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
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            manifest = run(cfg)
    except Exception as exc:  # runtime failure after a valid config
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(render_report(manifest))
    return 0
