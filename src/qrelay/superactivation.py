"""Switch-channel construction that trades rate for a deterministic relay.

A switch channel applies the main (relayed) channel with probability p and
a 50% erasure channel otherwise, appending an orthogonal flag qubit that
records which branch fired. Two switch copies fed an entangled,
side-symmetric input have a joint coherent information equal to the
weighted sum of four branch-pair terms, with weights (p^2, p(1-p),
(1-p)p, (1-p)^2). The sum is exact: Kraus operators of different branch
pairs carry orthogonal flag pairs, so the output state and the
environment Gram matrix are both block diagonal with blocks w_b sigma_b,
and S(B) and S(E) each gain the same Shannon entropy H(w), which cancels.
Neither the branch terms nor the main channel's coherent information
depend on p, so ``branch_terms`` computes them once and ``switch_report``
weighs them with ``branch_weights`` over a whole p grid as array
arithmetic; the direct evaluation on the assembled joint channel is the
test oracle (``tests/helpers_quantum.py``). The cross terms carry the
rate, giving the 2p(1-p) lower bound maximized at p = 1/2.
``compare_assisted`` is the one place that sets the resulting half-block
throughput |s_in|/2 against the probabilistic encoder's p_e2 |s_in|, for
both ``relay-sim`` and the sweep: the assisted construction wins exactly
when p_e2 < 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .codeword_sets import IndexSetPartition, set_size
from .density_ops import (DensityMatrix, KrausChannel, bell_pair,
                          coherent_information, erasure_channel,
                          permute_systems, tensor_channels, trace_out)

BRANCH_KEYS = ("main_main", "main_erasure", "erasure_main", "erasure_erasure")
JOINT_INPUT_MODES = ("bell", "entangled_flagged")
FLAG_VARIANTS = ("literal", "alternating")
# The p grid of the sweep command.
P_GRID = np.arange(1, 100) / 100.0

# A branch probability: one float, or an array of them evaluated at once.
Probability = Union[float, np.ndarray]

# Bound on branch_bytes of the main channel, checked from its config spec
# before the channel is built. The runtime's peak memory is a small
# multiple of it: coherent_information holds up to four stack-sized arrays.
MAX_BRANCH_BYTES = 2 ** 26


@dataclass
class SwitchChannel:
    """Probabilistic mixture of a main channel and a 50% erasure channel
    with the branch recorded on a trailing flag qubit (main -> |0>,
    erasure -> |1>). ``channel`` is the assembled Kraus map; both branch
    outputs are isometrically embedded into a common space before the
    flag is attached."""
    p: float
    channel: KrausChannel


@dataclass
class JointInputState:
    """Two-sided channel input, symmetric under swapping the sides."""
    rho_ac: DensityMatrix
    side_dim: int

    def __post_init__(self):
        d = self.side_dim
        if d * d != self.rho_ac.dim:
            raise ValueError(
                f"state dim {self.rho_ac.dim} is not side_dim^2 = {d * d}")
        swapped = permute_systems(self.rho_ac.entries, [d, d], (1, 0))
        dev = float(np.max(np.abs(swapped - self.rho_ac.entries)))
        if dev > 1e-12:
            raise ValueError(f"input not symmetric under side swap ({dev:.3e})")


@dataclass(frozen=True)
class BranchTerms:
    """The p-independent parts of the joint coherent information.

    ``terms`` maps each key of BRANCH_KEYS to the coherent information of
    that branch pair at the joint input; ``i_main`` is the main channel's
    coherent information at the reduced single-side input.
    """
    terms: Dict[str, float]
    i_main: float


class SuperactivationReport(NamedTuple):
    """Joint coherent information of two switch copies at p, and 2p(1-p)
    times the single-copy main coherent information at the reduced input;
    each has the shape of p (one probability or an array of them)."""
    i_coh_joint: Probability
    bound_2p1p: Probability


class AssistedComparison(NamedTuple):
    """Throughput of the assisted construction vs the probabilistic relay,
    at one p_e2 or an array of them (``b`` and ``advantage`` follow its
    shape)."""
    b: Probability
    b_star: float
    advantage: Union[bool, np.ndarray]


def build_switch_channel(p: float, main: KrausChannel) -> SwitchChannel:
    """Assemble the flagged mixture of ``main`` and the 50% erasure channel.

    Kraus set: sqrt(p) N_j (x) |0>_flag, then sqrt(1-p) A_k (x) |1>_flag,
    each branch embedded into the leading rows of a common output space.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"branch probability must lie in [0, 1], got {p}")
    erasure = erasure_channel(0.5, in_dim=main.in_dim)
    r_main = len(main.kraus_ops)
    branch_dim = max(main.out_dim, erasure.out_dim)
    # axes (operator, branch output, flag, input)
    ops = np.zeros((r_main + len(erasure.kraus_ops), branch_dim, 2,
                    main.in_dim), dtype=complex)
    ops[:r_main, :main.out_dim, 0] = math.sqrt(p) * main.kraus_ops
    ops[r_main:, :erasure.out_dim, 1] = math.sqrt(1.0 - p) * erasure.kraus_ops
    return SwitchChannel(p=p, channel=KrausChannel(
        ops.reshape(-1, 2 * branch_dim, main.in_dim)))


def make_rho_ac(mode: str, variant: Optional[str] = None) -> JointInputState:
    """Construct a side-symmetric joint input state.

    Modes
    -----
    ``bell``
        Maximally entangled pair across the two (qubit) channel inputs.
    ``entangled_flagged``
        A classical flag register pair tensored with a maximally entangled
        pair, for channels with two-qubit inputs. ``variant`` selects the
        flag register content: ``literal`` pins both flags to |0>;
        ``alternating`` (the default) mixes |00> and |11> evenly.

    Only ``entangled_flagged`` takes a ``variant``.
    """
    if mode not in JOINT_INPUT_MODES:
        raise ValueError(f"mode must be one of {JOINT_INPUT_MODES}, "
                         f"got {mode!r}")
    if mode == "bell":
        if variant is not None:
            raise ValueError(f"mode 'bell' takes no variant, got {variant!r}")
        return JointInputState(rho_ac=bell_pair(2), side_dim=2)
    if variant not in (None,) + FLAG_VARIANTS:
        raise ValueError(f"variant must be one of {FLAG_VARIANTS}, "
                         f"got {variant!r}")
    bell = bell_pair(2).entries
    flags = np.zeros((4, 4), dtype=complex)
    if variant == "literal":
        flags[0, 0] = 1.0                      # |00><00| on the flag pair
    else:                                      # alternating
        flags[0, 0] = 0.5                      # |00><00|
        flags[3, 3] = 0.5                      # |11><11|
    # order (flag_A, flag_C, bell_A, bell_C) -> (flag_A, bell_A, flag_C, bell_C)
    rho = permute_systems(np.kron(flags, bell), [2, 2, 2, 2], (0, 2, 1, 3))
    return JointInputState(rho_ac=DensityMatrix(rho), side_dim=4)


def branch_bytes(shape: Tuple[int, int, int]) -> int:
    """Upper bound on the bytes of the largest branch pair's Kraus stack
    plus its Gram matrix, from the main channel's (in_dim, out_dim, Kraus
    count) alone.

    A pair a (x) b has r_a r_b operators of out_a out_b x in^2 entries and
    an (r_a r_b)^2 Gram matrix, all complex128. The erasure branch has
    in + 1 operators of (in + 1) x in, so each factor is bounded by the
    larger of the two channels' figures.
    """
    d, out_dim, kraus = shape
    ops = max(kraus, d + 1)
    rows = max(kraus * out_dim, (d + 1) ** 2)
    return 16 * (rows ** 2 * d ** 2 + ops ** 4)


def branch_terms(main: KrausChannel,
                 input_state: JointInputState) -> BranchTerms:
    """Coherent information of the four branch pairs at the joint input,
    and of ``main`` at the reduced input: five evaluations that every p of
    a sweep shares."""
    rho = input_state.rho_ac
    if rho.dim != main.in_dim ** 2:
        raise ValueError(
            f"input dim {rho.dim} does not match joint channel input "
            f"{main.in_dim ** 2}")
    sides = {"main": main, "erasure": erasure_channel(0.5, in_dim=main.in_dim)}
    terms = {}
    for key in BRANCH_KEYS:
        first, second = key.split("_")
        terms[key] = coherent_information(
            tensor_channels(sides[first], sides[second]), rho)
    side = input_state.side_dim
    reduced = trace_out(rho, [side, side], keep={0})
    return BranchTerms(terms, coherent_information(main, reduced))


def branch_weights(p: Probability) -> Tuple[Probability, ...]:
    """The weights (p^2, p(1-p), (1-p)p, (1-p)^2) of the branch pairs of
    BRANCH_KEYS, for one p or an array of them, all in [0, 1]."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"branch probability must lie in [0, 1], got {p}")
    return (p * p, p * (1.0 - p), (1.0 - p) * p, (1.0 - p) ** 2)


def switch_report(p: Probability,
                  branches: BranchTerms) -> SuperactivationReport:
    """Coherent information of two switch copies at ``p`` (one value or an
    array), as the weighted sum of the hoisted branch terms.

    The sum is exact, not an approximation: Kraus operators of different
    branch pairs carry orthogonal flag pairs, so the joint output state
    and the environment Gram matrix are block diagonal with blocks
    w_b sigma_b, and the Shannon entropy H(w) that each of S(B) and S(E)
    gains cancels. The direct evaluation on
    ``tensor_channels(sc.channel, sc.channel)`` is the test oracle in
    ``tests/helpers_quantum.py``.
    """
    return SuperactivationReport(
        i_coh_joint=sum(w * branches.terms[key] for key, w
                        in zip(BRANCH_KEYS, branch_weights(p))),
        bound_2p1p=2.0 * p * (1.0 - p) * branches.i_main)


def joint_coherent_info(sc: SwitchChannel,
                        branches: BranchTerms) -> SuperactivationReport:
    """``switch_report`` at ``sc.p``, for branch terms of ``sc``'s main
    channel."""
    return switch_report(sc.p, branches)


def compare_assisted(p_e2: Probability,
                     part: IndexSetPartition) -> AssistedComparison:
    """Assisted half-block throughput vs the probabilistic relay throughput,
    at one p_e2 or an array of them.

    b_star = |s_in| / 2 versus b = p_e2 * |s_in|; for a nonempty private
    set the strict advantage holds exactly when p_e2 < 0.5.
    """
    if not np.all((0.0 < p_e2) & (p_e2 < 1.0)):
        raise ValueError(f"p_e2 must lie strictly inside (0, 1), got {p_e2}")
    size = set_size(part.s_in)
    b_star = 0.5 * size
    b = p_e2 * size
    return AssistedComparison(b=b, b_star=b_star, advantage=b_star > b)
