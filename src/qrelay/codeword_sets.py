"""Index-set algebra for dual (amplitude/phase) polarization.

A block of n synthesized channels is polarized twice, once for the
amplitude channel and once for the phase channel. Intersecting the two
good/bad splits partitions the indices into four disjoint classes:

* s_in - good for both; carries private information,
* p1   - good for amplitude only,
* p2   - good for phase only,
* b    - good for neither (completely useless).

A partition holds only the two good masks; the classes are derived from
them, so they are disjoint and cover the block by construction. All rate
quantities are reported as finite-n fractions of the block length;
asymptotic statements are treated as trends, not identities. Negative
fractions are reported as-is with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .polar_core import BDMC, LabelColumn, PolarizationResult, select_sets


@dataclass(frozen=True)
class IndexSetPartition:
    """The four disjoint codeword classes covering range(n), held as the
    amplitude and phase good masks that decide them; each class is a bool
    mask derived on access."""
    good_amp: np.ndarray
    good_phase: np.ndarray

    def __post_init__(self):
        masks = (self.good_amp, self.good_phase)
        if not (all(isinstance(m, np.ndarray) and m.dtype == bool
                    and m.ndim == 1 for m in masks)
                and 0 < len(self.good_amp) == len(self.good_phase)):
            raise ValueError("good sets must be two nonempty bool masks of "
                             "one length")

    @property
    def n(self) -> int:
        return len(self.good_amp)

    @property
    def s_in(self) -> np.ndarray:
        return self.good_amp & self.good_phase

    @property
    def p1(self) -> np.ndarray:
        return self.good_amp & ~self.good_phase

    @property
    def p2(self) -> np.ndarray:
        return self.good_phase & ~self.good_amp

    @property
    def b(self) -> np.ndarray:
        return ~(self.good_amp | self.good_phase)


def set_size(mask: np.ndarray) -> int:
    """Cardinality of an index mask, as a Python int."""
    return int(np.count_nonzero(mask))


def build_partition(goods) -> IndexSetPartition:
    """The partition decided by a (good_amp, good_phase) mask pair."""
    return IndexSetPartition(*goods)


def from_polarizations(pr_amp: PolarizationResult, pr_phase: PolarizationResult,
                       beta: float):
    """The (good_amp, good_phase) mask pair of two Bhattacharyya vectors
    at one threshold."""
    if pr_amp.n != pr_phase.n:
        raise ValueError("amplitude and phase polarizations disagree on n")
    return select_sets(pr_amp, beta), select_sets(pr_phase, beta)


def pauli_induced_channels(p_x: float, p_y: float, p_z: float):
    """Classical channels a qubit Pauli channel induces in the two bases.

    Z-basis (amplitude) transmission is flipped by X or Y errors; X-basis
    (phase) transmission by Z or Y. Returns (amplitude BDMC, phase BDMC).
    """
    if min(p_x, p_y, p_z) < 0.0 or p_x + p_y + p_z > 1.0:
        raise ValueError("Pauli probabilities must be nonnegative, sum <= 1")
    return BDMC.bsc(p_x + p_y), BDMC.bsc(p_z + p_y)


def class_sizes(part: IndexSetPartition) -> dict:
    """n and the sizes of the four classes."""
    return {"n": part.n, "size_s_in": set_size(part.s_in),
            "size_p1": set_size(part.p1), "size_p2": set_size(part.p2),
            "size_b": set_size(part.b)}


def rate_report(part: IndexSetPartition) -> dict:
    """The capacity row of one partition, keyed by column in CSV order: n,
    the four class sizes, then every rate as a fraction of n of those
    sizes. p_sym_degraded, r_sym, eve_section_e2d and
    relay_private_capacity all equal |s_in|/n by set identity; c_bob is
    the complement 1 - |p1|/n, which equals |s_in u p2|/n only when b is
    empty; relay_capacity_min is the cut-set bound min{c_12, c_1d + c_2d}
    over the hop rates |good_phase|/n, |p2|/n and |s_in|/n.
    """
    row = class_sizes(part)
    n, s_in, p1, p2, b = row.values()
    private = s_in / n
    row.update(p_sym_degraded=private, p_sym_nondegraded=(s_in - b) / n,
               r_sym=private, c_bob=1.0 - p1 / n, c_eve_total=(p1 + p2) / n,
               c_eve_p1=p1 / n, eve_section_e1e2=(s_in + p2) / n,
               eve_section_e2d=private, relay_private_capacity=private,
               relay_capacity_min=min((s_in + p2) / n, p2 / n + private))
    if row["p_sym_nondegraded"] < 0.0:
        warnings.warn(f"p_sym_nondegraded is negative "
                      f"({row['p_sym_nondegraded']}); reporting as-is",
                      stacklevel=2)
    return row


def partition_rows(part: IndexSetPartition):
    """Columns (index, class-label) for CSV export, labels built per block."""
    return range(part.n), LabelColumn(part.n, lambda rows: (
        part.good_amp[rows] + np.uint8(2) * part.good_phase[rows]),
        (b"B", b"P1", b"P2", b"S_in"))
