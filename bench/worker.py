"""One repetition of a benchmark workload, run in its own process.

Usage: python3 bench/worker.py --workload W --seed N --mode M --out DIR
       --result FILE

Modes: ``setup`` only sets up; ``plain`` sets up and runs the workload's
operations; ``traced`` does the same with span-recording wrappers
installed. Set-up is importing qrelay, writing the workload's configs and
validating them with ``qrelay.cli.load_config``. After the timed
operations the worker checks their outputs, counts the sizes that drive
their cost and writes one JSON result to FILE. The runner (run.py) reads
the process's rusage, so the worker does not measure memory itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import qrelay  # noqa: E402
import qrelay.cli  # noqa: E402
import qrelay.codeword_sets  # noqa: E402
import qrelay.polar_core  # noqa: E402
import qrelay.relay  # noqa: E402
import qrelay.superactivation  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _count_trials(key):
    def hook(tracer, bound):
        tracer.add(key, bound.arguments["trials"])
    return hook


def _count_joint_dim(tracer, bound):
    ch = bound.arguments["sc"].channel
    tracer.maximum("joint_dim", (ch.out_dim * len(ch.kraus_ops)) ** 2)


def _count_dilation_bytes(tracer, bound):
    ch = bound.arguments["channel"]
    dim = ch.out_dim * len(ch.kraus_ops)
    tracer.maximum("dilation_bytes", 16 * dim * dim)  # complex128 (out*env)^2


# (module, attribute its callers bind, span name, argument hook)
TRACE_POINTS = (
    (qrelay.cli, "load_config", "cli.load_config", None),
    (qrelay.cli, "run", "cli.run", None),
    (qrelay.cli, "polarize", "polar_core.polarize", None),
    (qrelay.polar_core, "polarize", "polar_core.polarize", None),
    (qrelay.cli, "select_sets", "polar_core.select_sets", None),
    (qrelay.codeword_sets, "select_sets", "polar_core.select_sets", None),
    (qrelay.cli, "polarization_rows", "polar_core.polarization_rows", None),
    (qrelay.relay, "trial_rng", "polar_core.trial_rng", None),
    (qrelay.polar_core, "trial_rng", "polar_core.trial_rng", None),
    (qrelay.polar_core, "monte_carlo_block_error",
     "polar_core.monte_carlo_block_error", _count_trials("mc_trials")),
    (qrelay.cli, "from_polarizations", "codeword_sets.from_polarizations", None),
    (qrelay.cli, "build_partition", "codeword_sets.build_partition", None),
    (qrelay.cli, "partition_rows", "codeword_sets.partition_rows", None),
    (qrelay.cli, "rate_report", "codeword_sets.rate_report", None),
    (qrelay.cli, "simulate_relay", "relay.simulate_relay",
     _count_trials("relay_trials")),
    (qrelay.cli, "joint_coherent_info", "superactivation.joint_coherent_info",
     _count_joint_dim),
    (qrelay.cli, "build_switch_channel",
     "superactivation.build_switch_channel", None),
    (qrelay.superactivation, "coherent_information",
     "density_ops.coherent_information", _count_dilation_bytes),
    (qrelay.superactivation, "tensor_channels", "density_ops.tensor_channels",
     None),
)


def layer_metrics(tracer: spans.Tracer, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced repetition (times in seconds)."""
    agg = spans.aggregate(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name, field):
        return agg.get(name, empty)[field]

    def rate(key, span):
        busy = get(span, "total_s")
        return tracer.counters.get(key, 0) / busy if busy > 0 else 0.0

    return {
        "cli.load_config_s": get("cli.load_config", "total_s"),
        "cli.run_s": get("cli.run", "total_s"),
        "cli.write_self_s": get("cli.run", "self_s"),
        "cli.csv_bytes": csv_bytes,
        "polar_core.select_sets_s": get("polar_core.select_sets", "total_s"),
        "polar_core.polarization_rows_s":
            get("polar_core.polarization_rows", "total_s"),
        "polar_core.polarize_s": get("polar_core.polarize", "total_s"),
        "polar_core.polarize_calls": get("polar_core.polarize", "calls"),
        "polar_core.trial_rng_calls": get("polar_core.trial_rng", "calls"),
        "polar_core.trial_rng_s": get("polar_core.trial_rng", "total_s"),
        "polar_core.mc_block_error_s":
            get("polar_core.monte_carlo_block_error", "total_s"),
        "polar_core.mc_trials_per_s":
            rate("mc_trials", "polar_core.monte_carlo_block_error"),
        "codeword_sets.from_polarizations_s":
            get("codeword_sets.from_polarizations", "self_s"),
        "codeword_sets.build_partition_s":
            get("codeword_sets.build_partition", "total_s"),
        "codeword_sets.partition_rows_s":
            get("codeword_sets.partition_rows", "total_s"),
        "codeword_sets.rate_report_s":
            get("codeword_sets.rate_report", "total_s"),
        "relay.simulate_relay_s": get("relay.simulate_relay", "total_s"),
        "relay.trials_per_s": rate("relay_trials", "relay.simulate_relay"),
        "superactivation.joint_coherent_info_s":
            get("superactivation.joint_coherent_info", "total_s"),
        "superactivation.joint_coherent_info_calls":
            get("superactivation.joint_coherent_info", "calls"),
        "superactivation.build_switch_channel_s":
            get("superactivation.build_switch_channel", "total_s"),
        "superactivation.max_joint_dim": tracer.counters.get("joint_dim", 0),
        "density_ops.coherent_information_s":
            get("density_ops.coherent_information", "total_s"),
        "density_ops.coherent_information_calls":
            get("density_ops.coherent_information", "calls"),
        "density_ops.tensor_channels_s":
            get("density_ops.tensor_channels", "total_s"),
        "density_ops.dilation_bytes_computed":
            tracer.counters.get("dilation_bytes", 0),
    }


# Speed calibration. The machine's speed drifts by up to 2x over minutes,
# and differently for different kinds of work, so each workload is
# calibrated with kernels that do its kind of work without calling
# qrelay: their time tracks the machine, never the program.
_RNG = np.random.default_rng(0)
_SORT_INPUT = _RNG.random(200_000)
_HERMITIAN = _RNG.random((120, 120))
_HERMITIAN = _HERMITIAN + _HERMITIAN.T


def _cal_interpreter():
    acc = 0
    for i in range(100_000):
        acc += i * i


def _cal_philox():
    for key in range(400):
        bg = np.random.Philox(key=np.uint64(key))
        bg.advance(key << 64)
        np.random.Generator(bg).random()


def _cal_sets():
    frozenset(range(100_000)) - frozenset(range(0, 100_000, 3))


def _cal_format():
    ",".join(f"{i / 7:.12g}" for i in range(20_000))


def _cal_dense():
    for _ in range(4):
        np.linalg.eigvalsh(_HERMITIAN)
        np.sort(_SORT_INPUT)


CALIBRATION_KERNELS = {
    "partition_k20": (_cal_sets, _cal_format),
    "trials_mc": (_cal_philox, _cal_interpreter),
    "sweep_2qubit": (_cal_dense, _cal_sets),
}
CALIBRATION_RUNS = 5  # before and again after the timed ops


def calibrate(workload: str) -> float:
    """Seconds for one pass over the workload's calibration kernels."""
    start = time.perf_counter()
    for kernel in CALIBRATION_KERNELS[workload]:
        kernel()
    return time.perf_counter() - start


def _run_mc(params: dict):
    """Monte Carlo block error on the 'info_size' lowest-Z indices."""
    pc = qrelay.polar_core
    w = qrelay.cli.build_classical_channel(params["channel"])
    pr = pc.polarize(w, params["k"])
    info = np.argsort(pr.z, kind="stable")[:params["info_size"]]
    return pc.monte_carlo_block_error(w, pr.n, info, params["trials"],
                                      params["seed"])


def _partition_sizes(cfg) -> dict:
    """Codeword class sizes of a config's partition (counted after timing)."""
    build = qrelay.cli.build_classical_channel
    pc = qrelay.polar_core
    cs = qrelay.codeword_sets
    part = cs.build_partition(cs.from_polarizations(
        pc.polarize(build(cfg.amp_channel), cfg.k),
        pc.polarize(build(cfg.phase_channel), cfg.k), cfg.beta))
    return {"n": part.n, "size_s_in": len(part.s_in), "size_p1": len(part.p1),
            "size_p2": len(part.p2), "size_b": len(part.b)}


def _cost_counts(op, cfg, params, outcome) -> dict:
    """Exact sizes that drive one op's cost."""
    if op.command is None:
        return {"n": 2 ** params["k"], "info_size": params["info_size"],
                "trials": params["trials"], "errors": outcome.errors}
    counts = {"csv_bytes": sum(os.path.getsize(o["path"])
                               for o in outcome.outputs), "n": 2 ** cfg.k}
    if op.command == "polarize":
        channel = qrelay.cli.build_classical_channel(cfg.channel)
        counts["channel_alphabet"] = channel.output_alphabet_size
        return counts
    if op.command == "sets":
        return counts  # same partition as the capacity op
    if op.command == "capacity":
        row = workloads.read_csv(Path(outcome.outputs[0]["path"]))[0]
        counts.update({key: int(row[key]) for key in
                       ("size_s_in", "size_p1", "size_p2", "size_b")})
        return counts
    counts.update(_partition_sizes(cfg))
    if op.command == "relay-sim":
        counts["trials"] = cfg.trials
    if op.command == "sweep":
        main = qrelay.cli.build_quantum_channel(cfg.main_channel)
        sc = qrelay.superactivation.build_switch_channel(0.5, main).channel
        counts.update(grid_points=99, main_kraus=len(main.kraus_ops),
                      switch_kraus=len(sc.kraus_ops),
                      joint_kraus=len(sc.kraus_ops) ** 2,
                      joint_out_dim=sc.out_dim ** 2,
                      joint_dim=(sc.out_dim * len(sc.kraus_ops)) ** 2)
    return counts


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name", "unknown"),
                    version=deps.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    try:
        import ctypes
        libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qrelay": qrelay.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "QRELAY_THREADS": os.environ.get("QRELAY_THREADS", "unset (1 thread)"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(qrelay.__file__).resolve().parents:
        raise SystemExit(f"qrelay was imported from {qrelay.__file__}, "
                         f"not from {src}")

    tracer = spans.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        for module, attr, name, hook in TRACE_POINTS:
            tracer.install(module, attr, name, hook)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prepared = []
    for op, params in workloads.make_configs(args.workload, args.seed):
        path = out / f"{op.name}.json"
        path.write_text(json.dumps(params, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        cfg = None
        if op.command is not None:
            cfg = qrelay.cli.load_config(path, command=op.command,
                                         output_dir=str(out / op.name))
        prepared.append((op, params, cfg))
    setup_end = time.perf_counter()

    calibrate(args.workload)  # warm-up: first use grows the heap
    calibration = [calibrate(args.workload) for _ in range(CALIBRATION_RUNS)]
    result = {"setup_end": setup_end, "ops": [], "calibration_s": calibration}
    if args.mode != "setup":
        outcomes = []
        for op, params, cfg in prepared:
            t0 = time.perf_counter()
            try:
                outcome = (qrelay.cli.run(cfg) if cfg is not None
                           else _run_mc(params))
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((op, params, cfg, outcome, error,
                             time.perf_counter() - t0))
        if tracer is not None:
            tracer.uninstall()
        calibration += [calibrate(args.workload)
                        for _ in range(CALIBRATION_RUNS)]

        csv_bytes = 0
        for op, params, cfg, outcome, error, seconds in outcomes:
            record = {"name": op.name, "seconds": seconds}
            if error is not None:
                record.update(ok=False, check=error)
            else:
                if cfg is None:
                    ok, msg = workloads.check_mc(outcome.errors, outcome.trials)
                else:
                    ok, msg = workloads.check_cli_op(op, out / op.name,
                                                     args.seed)
                counts = _cost_counts(op, cfg, params, outcome)
                csv_bytes += counts.get("csv_bytes", 0)
                record.update(ok=ok, check=msg, counts=counts)
            result["ops"].append(record)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, csv_bytes)
            tracer.dump(out / "spans.jsonl")
    result["environment"] = environment()
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
