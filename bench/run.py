"""qrelay benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload partition_k20 --seed 31337 \
        --seconds 30 --trace 0

Closed loop with one client: the runner starts one worker process
(worker.py) per repetition and starts the next only when the previous one
has exited. Each worker imports qrelay from ./src, generates and validates
the workload's configs from the seed, runs the workload's operations
through ``qrelay.cli.load_config`` -> ``qrelay.cli.run`` (plus
``qrelay.polar_core.monte_carlo_block_error``), and checks their outputs
after timing. Repetitions continue while at least half of one more fits
in ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the median over repetitions
of the operations' wall time (``wall_s``), of the worker's peak RSS from
wait4 (``peak_rss_mb``) and, over the repetitions and set-up-only
workers, of the set-up time (``setup_s``: process start, import, config
generation and validation). Times are scaled to reference speed by each
worker's calibration (README.md, "Speed scaling"); the raw medians are
reported too. ``--trace 1`` alternates traced and untraced repetitions
and reports per-layer metrics from the traced ones, plus ``proc.cpu_s``
and ``tracing.overhead_s``. The last line of standard output is one JSON
object; a fuller record with the environment and the per-op cost counts
goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH_DIR / "worker.py"
PROBES_PER_REP = 2         # set-up-only workers before each untraced rep
RUN_LIMIT_S = 170.0        # a run must exit within 180 s
POLL_S = 0.01


def spawn(workload: str, seed: int, mode: str, out: Path,
          timeout: float) -> dict:
    """Run one worker to completion and return its timings and result."""
    result_path = out / f"result-{mode}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out),
           "--result", str(result_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - start
    rep = {"mode": mode, "exit_code": proc.returncode, "timed_out": timed_out,
           "elapsed_s": elapsed, "rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime, "result": None}
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        rep["result"] = result
        rep["setup_s"] = result["setup_end"] - start
        rep["wall_s"] = sum(op["seconds"] for op in result["ops"])
    return rep


def op_tally(rep: dict, n_ops: int):
    """(attempted, failed) ops of one measured repetition; a worker that
    did not finish fails every op."""
    if rep["result"] is None:
        return n_ops, n_ops
    ops = rep["result"]["ops"]
    return len(ops), sum(not op["ok"] for op in ops)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = OUT_DIR / workload
    out.mkdir(parents=True, exist_ok=True)
    n_ops = len(workloads.WORKLOADS[workload])
    run_start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - run_start)

    probes = []
    reps = []
    modes = ("traced", "plain") if trace else ("plain",)
    loop_start = time.perf_counter()
    while True:
        mode = modes[len(reps) % len(modes)]
        if not trace:  # spread set-up samples over the whole run
            for _ in range(PROBES_PER_REP):
                probes.append(spawn(workload, seed, "setup", out, remaining()))
        reps.append(spawn(workload, seed, mode, out, remaining() - 1.0))
        times = [r["elapsed_s"] for r in reps]
        # Start another repetition only if at least half of it fits.
        fits = (time.perf_counter() - loop_start
                + 0.5 * statistics.mean(times) < seconds)
        if len(reps) >= len(modes) and not fits:
            break
        if remaining() < 1.5 * max(times) + 2.0:
            break
    return {"probes": probes, "reps": reps, "n_ops": n_ops}


def speed_scale(rep: dict, workload: str) -> float:
    """Reference calibration time over the worker's median calibration
    time: the factor that converts the seconds this worker measured to
    reference-speed seconds (see README.md, "Speed scaling")."""
    return (workloads.CALIBRATION_REFERENCE_S[workload]
            / statistics.median(rep["result"]["calibration_s"]))


def end_to_end(run: dict, workload: str):
    """(metrics, raw): each worker's times are scaled by its own
    calibration before the median is taken; ``raw`` holds the unscaled
    medians and the median scale."""
    done = [r for r in run["reps"] if r["result"] is not None]
    if not done:
        return {}, {}
    setup_done = [r for r in run["probes"] + run["reps"]
                  if r["result"] is not None]
    med = statistics.median
    raw = {"raw_wall_s": med(r["wall_s"] for r in done),
           "raw_setup_s": med(r["setup_s"] for r in setup_done),
           "speed_scale": med(speed_scale(r, workload) for r in done)}
    return {
        "wall_s": med(r["wall_s"] * speed_scale(r, workload) for r in done),
        "peak_rss_mb": med(r["rss_mb"] for r in done),
        "setup_s": med(r["setup_s"] * speed_scale(r, workload)
                       for r in setup_done),
    }, raw


def per_layer(run: dict) -> dict:
    traced = [r for r in run["reps"]
              if r["mode"] == "traced" and r["result"] is not None]
    plain = [r for r in run["reps"]
             if r["mode"] == "plain" and r["result"] is not None]
    if not traced or not plain:
        return {}
    keys = traced[0]["result"]["layers"]
    med = statistics.median
    metrics = {k: med(r["result"]["layers"][k] for r in traced) for k in keys}
    metrics["proc.cpu_s"] = med(r["cpu_s"] for r in plain)
    metrics["tracing.overhead_s"] = (med(r["wall_s"] for r in traced)
                                     - med(r["wall_s"] for r in plain))
    return metrics


def _load_units(section: str) -> dict:
    """Metric name -> unit for 'end_to_end' or 'per_layer' in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _summary(rep: dict) -> dict:
    """A worker's record without the environment, which the run stores once."""
    result = rep["result"] or {}
    return {k: v for k, v in rep.items() if k != "result"} | {
        "ops": result.get("ops"), "calibration_s": result.get("calibration_s")}


def _format_counts(rep: dict) -> list:
    lines = []
    for op in rep["result"]["ops"]:
        counts = ", ".join(f"{k}={v}" for k, v in op.get("counts", {}).items())
        lines.append(f"  {op['name']}: {counts}")
        lines.append(f"    check {'ok' if op['ok'] else 'FAILED'}: "
                     f"{op['check']}")
    return lines


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Measure one workload, print its report and save its record.
    Returns the record, or None when no repetition finished."""
    run = measure(workload, seed, seconds, bool(trace))
    reps = run["reps"]
    attempted = failed = 0
    for rep in reps:
        a, f = op_tally(rep, run["n_ops"])
        attempted += a
        failed += f
    if trace:
        values, raw, units = per_layer(run), {}, _load_units("per_layer")
    else:
        (values, raw), units = (end_to_end(run, workload),
                                _load_units("end_to_end"))
    if not values:
        print(f"error: no repetition of {workload} finished; exit codes "
              f"{[r['exit_code'] for r in reps]}", file=sys.stderr)
        return None
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    first = next(r for r in reps if r["result"] is not None)
    env = first["result"]["environment"]
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"repetitions {len(reps)}  ops {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"  ({name} = {value:.6g})")
    print("cost counts and checks (first repetition):")
    for line in _format_counts(first):
        print(line)
    for i, rep in enumerate(reps):
        if rep["result"] is None:
            print(f"  repetition {i}: worker exit code {rep['exit_code']}"
                  f"{' (timed out)' if rep['timed_out'] else ''}")
            continue
        for op in rep["result"]["ops"]:
            if not op["ok"] and rep is not first:
                print(f"  repetition {i}: {op['name']} FAILED: {op['check']}")
    print("environment: " + json.dumps(env, sort_keys=True))

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "metrics": metrics, **raw,
              "environment": env,
              "repetitions": [_summary(r) for r in reps],
              "setup_probes": [_summary(p) for p in run["probes"]]}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run qrelay benchmark workloads.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qrelay" / "__init__.py").is_file():
        print(f"error: no qrelay sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print(f"error: --seed must be in [0, 2^64), got {args.seed}",
              file=sys.stderr)
        return 2

    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    records = [run_workload(name, args.seed, args.seconds, args.trace)
               for name in names]
    if any(r is None for r in records):
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:  # 'all': one summary line, metric names prefixed by workload
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
