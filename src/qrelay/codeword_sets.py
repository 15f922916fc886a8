"""Index-set algebra for dual (amplitude/phase) polarization.

A block of n synthesized channels is polarized twice, once for the
amplitude channel and once for the phase channel. Intersecting the two
good/bad splits partitions the indices into four disjoint classes:

* s_in - good for both; carries private information,
* p1   - good for amplitude only,
* p2   - good for phase only,
* b    - good for neither (completely useless).

All rate quantities are reported as finite-n fractions of the block
length; asymptotic statements are treated as trends, not identities.
Negative fractions are reported as-is with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .polar_core import BDMC, PolarizationResult, _is_mask, select_sets


@dataclass(frozen=True)
class DualPolarization:
    """Good index masks of the amplitude and phase polarizations."""
    n: int
    good_amp: np.ndarray
    good_phase: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (_is_mask(self.good_amp, self.n)
                and _is_mask(self.good_phase, self.n)):
            raise ValueError("good sets must be bool masks of length n")

    @property
    def bad_amp(self) -> np.ndarray:
        return ~self.good_amp

    @property
    def bad_phase(self) -> np.ndarray:
        return ~self.good_phase


@dataclass(frozen=True)
class IndexSetPartition:
    """The four disjoint codeword classes covering range(n), as bool masks."""
    n: int
    s_in: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        masks = (self.s_in, self.p1, self.p2, self.b)
        if not (all(_is_mask(m, self.n) for m in masks)
                and sum(map(np.count_nonzero, masks)) == self.n
                and (self.s_in | self.p1 | self.p2 | self.b).all()):
            raise ValueError("classes must be disjoint bool masks covering "
                             "range(n)")

    @property
    def good_amp(self) -> np.ndarray:
        return self.s_in | self.p1

    @property
    def good_phase(self) -> np.ndarray:
        return self.s_in | self.p2

    @property
    def bad_amp(self) -> np.ndarray:
        return self.p2 | self.b

    @property
    def bad_phase(self) -> np.ndarray:
        return self.p1 | self.b


@dataclass(frozen=True)
class RateReport:
    """Finite-n rate fractions in bits per channel use."""
    p_sym_degraded: float
    p_sym_nondegraded: float
    r_sym: float
    c_bob: float
    c_eve: float

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if not -1.0 <= val <= 1.0:
                raise ValueError(f"{name} = {val} outside [-1, 1]")


@dataclass(frozen=True)
class EveCapacityReport:
    """Eavesdropper-side fractions.

    ``c_bob`` is the complement form 1 - |p1|/n, which equals |s_in u p2|/n
    exactly when b is empty. Section fractions give the share of indices
    whose codewords transit each relay hop.
    """
    c_eve_total: float
    c_eve_p1: float
    c_bob: float
    eve_section_e1e2: float
    eve_section_e2d: float


def set_size(mask: np.ndarray) -> int:
    """Cardinality of an index mask, as a Python int."""
    return int(np.count_nonzero(mask))


def build_partition(dp: DualPolarization) -> IndexSetPartition:
    """Intersect the amplitude and phase good/bad splits."""
    amp, phase = dp.good_amp, dp.good_phase
    return IndexSetPartition(n=dp.n, s_in=amp & phase, p1=amp & ~phase,
                             p2=phase & ~amp, b=~(amp | phase))


def from_polarizations(pr_amp: PolarizationResult, pr_phase: PolarizationResult,
                       beta: float) -> DualPolarization:
    """Dual polarization from two Bhattacharyya vectors at one threshold."""
    if pr_amp.n != pr_phase.n:
        raise ValueError("amplitude and phase polarizations disagree on n")
    good_amp = select_sets(pr_amp, beta).good
    good_phase = select_sets(pr_phase, beta).good
    return DualPolarization(n=pr_amp.n, good_amp=good_amp, good_phase=good_phase)


def pauli_induced_channels(p_x: float, p_y: float, p_z: float):
    """Classical channels a qubit Pauli channel induces in the two bases.

    Z-basis (amplitude) transmission is flipped by X or Y errors; X-basis
    (phase) transmission by Z or Y. Returns (amplitude BDMC, phase BDMC).
    """
    if min(p_x, p_y, p_z) < 0.0 or p_x + p_y + p_z > 1.0:
        raise ValueError("Pauli probabilities must be nonnegative, sum <= 1")
    return BDMC.bsc(p_x + p_y), BDMC.bsc(p_z + p_y)


def _warn_if_negative(name: str, value: float) -> float:
    if value < 0.0:
        warnings.warn(f"{name} is negative ({value}); reporting as-is",
                      stacklevel=3)
    return value


def p_sym_degraded(part: IndexSetPartition) -> float:
    """Private rate against a degraded eavesdropper: |s_in|/n."""
    return set_size(part.s_in) / part.n


def p_sym_nondegraded(part: IndexSetPartition) -> float:
    """Private rate against a non-degraded eavesdropper: (|s_in| - |b|)/n.

    Cross-checked against the equivalent inclusion-exclusion form
    (|good_amp| + |good_phase| - n)/n, which must agree exactly.
    """
    direct = set_size(part.s_in) - set_size(part.b)
    expanded = set_size(part.good_amp) + set_size(part.good_phase) - part.n
    if direct != expanded:
        raise AssertionError("set-cardinality identity violated")
    return _warn_if_negative("p_sym_nondegraded", direct / part.n)


def r_sym_nondegraded(part: IndexSetPartition) -> float:
    """Achievable rate (|s_in| + |b| - |bad_amp| + |p2|)/n.

    Since bad_amp is the disjoint union of p2 and b, this always reduces
    to |s_in|/n; the expression is evaluated literally.
    """
    val = (set_size(part.s_in) + set_size(part.b)
           - set_size(part.bad_amp) + set_size(part.p2))
    return val / part.n


def eve_capacity(part: IndexSetPartition) -> EveCapacityReport:
    """Eavesdropper fractions and the Bob-side complement."""
    n = part.n
    return EveCapacityReport(
        c_eve_total=(set_size(part.p1) + set_size(part.p2)) / n,
        c_eve_p1=set_size(part.p1) / n,
        c_bob=1.0 - set_size(part.p1) / n,
        eve_section_e1e2=set_size(part.p2 | part.s_in) / n,
        eve_section_e2d=set_size(part.s_in) / n,
    )


def rate_report(part: IndexSetPartition) -> RateReport:
    """All scalar rate fractions for one partition."""
    eve = eve_capacity(part)
    return RateReport(
        p_sym_degraded=p_sym_degraded(part),
        p_sym_nondegraded=p_sym_nondegraded(part),
        r_sym=r_sym_nondegraded(part),
        c_bob=eve.c_bob,
        c_eve=eve.c_eve_total,
    )


def partition_rows(part: IndexSetPartition):
    """Columns (index, class-label) for CSV export: the index as a range
    and the labels as byte strings."""
    labels = np.full(part.n, b"B", dtype="S4")
    labels[part.s_in] = b"S_in"
    labels[part.p1] = b"P1"
    labels[part.p2] = b"P2"
    return range(part.n), labels
