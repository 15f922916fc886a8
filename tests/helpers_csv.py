"""Reference CSV row writer: the byte-identity oracle for the CLI's
column writer. Every cell goes through ``format_cell`` and every row
through ``",".join``."""

import numpy as np


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, bytes):
        return v.decode("utf-8")
    return str(v)


def csv_bytes_from_rows(header, rows) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def csv_bytes_from_columns(header, columns) -> bytes:
    """The oracle applied to columns: arrays give their Python values."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
              for c in columns]
    return csv_bytes_from_rows(header, list(zip(*values)))


def digit_tables_oracle():
    """The CSV writer's digit tables by numpy arithmetic: the four ASCII
    digits of 0..9999 as uint32 words, zero-padded, then NUL-padded; and
    the trailing zeros of 0..9999 as four digits."""
    n = np.arange(10000)[:, None]
    digits = n // [1000, 100, 10, 1] % 10 + ord("0")
    leading = np.where(n >= [1000, 100, 10, 0], digits, 0)
    quads = np.concatenate([digits, leading])
    zeros = sum(n[:, 0] % 10 ** p == 0 for p in range(1, 5))
    return quads.astype(np.uint8).view(np.uint32).ravel(), zeros
