"""Workload definitions: seed -> config generation, pinned references and
output checks.

This module uses only the standard library, so the runner can import it
without importing qrelay. Every workload is a fixed list of operations;
the seed only enters the configs' ``seed`` field, so the amount of work is
the same at every seed.

Why each workload exists (see README.md in this directory):

* ``partition_k20`` - set algebra and CSV writing at n = 2^20 through the
  BEC closed-form recursion; no random numbers, no density matrices.
* ``trials_mc`` - per-trial counter-based random streams (relay-sim and
  Monte Carlo block error with SC decoding) plus the exact-table
  polarization path on a BSC; set algebra only at n <= 256.
* ``sweep_2qubit`` - coherent information of a two-qubit switch channel
  over the 99-point p grid; polar and partition work is negligible.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 31337

# Wilson-interval width for the rate checks. A 95% interval (z = 1.96)
# would fail about one run in twenty on correct code at a non-pinned
# seed; z = 5 fails correct code about once in 1.7 million checks.
WILSON_Z = 5.0

SWEEP_TOL = 1e-9
DECOMPOSITION_TOL = 1e-10

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_BEC_AMP = {"kind": "bec", "epsilon": 0.3}
_BEC_PHASE = {"kind": "bec", "epsilon": 0.4}
_SETS = {"amp_channel": _BEC_AMP, "phase_channel": _BEC_PHASE, "beta": 0.35}


@dataclass(frozen=True)
class Op:
    """One timed operation. ``command`` is a qrelay CLI command, or None
    for the Monte Carlo block-error call that the CLI does not expose."""
    name: str
    command: Optional[str]
    params: dict


WORKLOADS: Dict[str, Tuple[Op, ...]] = {
    "partition_k20": (
        Op("polarize_bec", "polarize",
           {"channel": _BEC_AMP, "k": 20, "beta": 0.35}),
        Op("sets", "sets", dict(_SETS, k=20)),
        Op("capacity", "capacity", dict(_SETS, k=20)),
    ),
    "trials_mc": (
        Op("relay_sim", "relay-sim",
           dict(_SETS, k=8, p_e2=0.4, trials=50000)),
        # BEC(0.4) at n = 256, information set = the 128 lowest-Z indices.
        Op("mc_block_error", None,
           {"channel": _BEC_PHASE, "k": 8, "info_size": 128,
            "trials": 2048}),
        Op("polarize_bsc", "polarize",
           {"channel": {"kind": "bsc", "p": 0.11}, "k": 5, "beta": 0.35}),
    ),
    "sweep_2qubit": (
        Op("sweep", "sweep",
           dict(_SETS, k=8, main_channel={"kind": "identity", "dim": 4},
                input_state={"mode": "entangled_flagged",
                             "variant": "alternating"})),
    ),
}

# SHA-256 of CSV outputs at DEFAULT_SEED. Only relay_sim.csv depends on
# the seed; the others are checked at every seed.
DIGESTS = {
    ("polarize_bec", "polarization.csv"):
        "0cad72e4d89d1eef6ee87e70c7ea547589356b1577b75b353453e7a471e6b8ea",
    ("sets", "partition.csv"):
        "f9b9c2b282f435c068d9a55092b55499ab51841b97a7ce32e3ccc251a7896659",
    ("capacity", "capacity.csv"):
        "6ecb9e3a3854c36ac6b22d8be2748d2eaaaf5ac538f3ae1de2315969d92af299",
    ("polarize_bsc", "polarization.csv"):
        "23a01e77ab389c563c49b0acc4698f2d1545dd7a27c313a8bb742013d36ec1ea",
}
RELAY_DIGEST_AT_DEFAULT = (
    "103e33b59518b928ce8d2ea677a5e8d143dbb6814f65006f164228c9e8b5e7ba")
# Seed-independent columns of relay_sim.csv.
RELAY_FIXED = {"p_e2": "0.4", "trials": "50000",
               "expected_throughput": "28.8", "b_star_throughput": "36"}

# Block error rate of the MC op, pinned from 65536 trials of one stream
# not used by any workload seed (seed 2^63 + 12345).
MC_PINNED_ERRORS = 23099
MC_PINNED_TRIALS = 65536


# Median time of one worker.calibrate(workload) pass on the reference
# machine; reported times are measured times scaled by this over the
# run's median calibration time.
CALIBRATION_REFERENCE_S = {"partition_k20": 0.035, "trials_mc": 0.023,
                           "sweep_2qubit": 0.037}


def make_configs(workload: str, seed: int) -> List[Tuple[Op, dict]]:
    """Configs for every op of ``workload``; the same seed gives the same
    configs. The seed is passed to qrelay as the config ``seed``."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    out = []
    for op in WORKLOADS[workload]:
        cfg = dict(op.params, seed=seed)
        if op.command is not None:
            cfg["command"] = op.command
        out.append((op, cfg))
    return out


def wilson_interval(successes: int, trials: int,
                    z: float = WILSON_Z) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return centre - half, centre + half


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_digest(path: Path, expected: str) -> Tuple[bool, str]:
    got = sha256_file(path)
    if got == expected:
        return True, f"{path.name} sha256 ok"
    return False, f"{path.name} sha256 {got[:12]} != pinned {expected[:12]}"


def _check_relay(path: Path, seed: int) -> Tuple[bool, str]:
    if seed == DEFAULT_SEED:
        return _check_digest(path, RELAY_DIGEST_AT_DEFAULT)
    row = read_csv(path)[0]
    wrong = [k for k, v in RELAY_FIXED.items() if row.get(k) != v]
    if wrong:
        return False, f"relay_sim.csv columns {wrong} differ from pinned"
    lo, hi = wilson_interval(int(row["successes"]), int(row["trials"]))
    p_e2 = float(row["p_e2"])
    ok = lo <= p_e2 <= hi
    return ok, (f"relay_sim.csv rate {row['rate']}: p_e2 {p_e2} "
                f"{'inside' if ok else 'outside'} Wilson [{lo:.4f}, {hi:.4f}]")


def check_mc(errors: int, trials: int) -> Tuple[bool, str]:
    """The pinned block error rate lies inside the run's Wilson interval."""
    pinned = MC_PINNED_ERRORS / MC_PINNED_TRIALS
    lo, hi = wilson_interval(errors, trials)
    ok = lo <= pinned <= hi
    return ok, (f"mc errors {errors}/{trials}: pinned rate {pinned:.4f} "
                f"{'inside' if ok else 'outside'} Wilson [{lo:.4f}, {hi:.4f}]")


def check_sweep(path: Path) -> Tuple[bool, str]:
    """Values within SWEEP_TOL of the pinned sweep, and the four-branch
    decomposition |i_coh_joint - sum w * term| <= DECOMPOSITION_TOL."""
    rows = read_csv(path)
    ref = read_csv(REFERENCE_DIR / "sweep_2qubit.csv")
    if len(rows) != len(ref) or (rows and rows[0].keys() != ref[0].keys()):
        return False, "sweep.csv shape differs from the pinned reference"
    worst = 0.0
    worst_decomp = 0.0
    for got, want in zip(rows, ref):
        if got["advantage"] != want["advantage"]:
            return False, f"sweep.csv advantage differs at p = {got['p']}"
        for key in want:
            if key != "advantage":
                worst = max(worst, abs(float(got[key]) - float(want[key])))
        p = float(got["p"])
        weighted = (p * p * float(got["term_mm"])
                    + p * (1 - p) * float(got["term_me"])
                    + (1 - p) * p * float(got["term_em"])
                    + (1 - p) ** 2 * float(got["term_ee"]))
        worst_decomp = max(worst_decomp,
                           abs(float(got["i_coh_joint"]) - weighted))
    ok = worst <= SWEEP_TOL and worst_decomp <= DECOMPOSITION_TOL
    return ok, (f"sweep.csv max deviation {worst:.2e} (tol {SWEEP_TOL:g}), "
                f"decomposition residual {worst_decomp:.2e} "
                f"(tol {DECOMPOSITION_TOL:g})")


def check_cli_op(op: Op, outdir: Path, seed: int) -> Tuple[bool, str]:
    """Check the CSV output of one CLI op written to ``outdir``."""
    if op.command == "relay-sim":
        return _check_relay(outdir / "relay_sim.csv", seed)
    if op.command == "sweep":
        return check_sweep(outdir / "sweep.csv")
    results = [_check_digest(outdir / name, digest)
               for (op_name, name), digest in DIGESTS.items()
               if op_name == op.name]
    if not results:
        return False, f"no pinned reference for op {op.name}"
    return all(ok for ok, _ in results), "; ".join(msg for _, msg in results)
