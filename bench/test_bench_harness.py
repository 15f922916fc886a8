"""Tests of the benchmark's own arithmetic and config generation.

Run with: PYTHONPATH=src python -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from qrelay.cli import load_config  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------------------
# Span and self-time arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("intervals, lo, hi, expected", [
    ([], 0.0, 10.0, 0.0),
    ([(1.0, 3.0)], 0.0, 10.0, 2.0),
    ([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0, 3.0),
    ([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0, 5.0),       # overlap counted once
    ([(2.0, 3.0), (1.0, 5.0)], 0.0, 10.0, 4.0),       # nested, unsorted
    ([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0, 2.0),     # clipped to the span
    ([(11.0, 12.0), (4.0, 4.0)], 0.0, 10.0, 0.0),     # outside or empty
    ([(1.0, 2.0), (2.0, 3.0)], 0.0, 10.0, 2.0),       # touching
])
def test_covered_length(intervals, lo, hi, expected):
    assert spans.covered_length(intervals, lo, hi) == pytest.approx(expected)


def test_self_time_subtracts_direct_children_only():
    root = spans.Span("run", 0.0, 10.0)
    a = spans.Span("a", 1.0, 4.0, root)
    b = spans.Span("b", 5.0, 9.0, root)
    grandchild = spans.Span("g", 6.0, 8.0, b)
    assert spans.self_times([root, a, b, grandchild]) == pytest.approx(
        [3.0, 3.0, 2.0, 2.0])


def test_aggregate_sums_calls_totals_and_self():
    root = spans.Span("run", 0.0, 10.0)
    kids = [spans.Span("leaf", 1.0, 2.0, root),
            spans.Span("leaf", 3.0, 5.0, root)]
    agg = spans.aggregate([root] + kids)
    assert agg["run"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert agg["leaf"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_tracer_records_parents_and_restores_on_uninstall():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    original_inner, original_outer = Module.inner, Module.outer
    tracer = spans.Tracer(clock=FakeClock())
    tracer.install(Module, "inner", "m.inner")
    tracer.install(Module, "outer", "m.outer")
    assert Module.outer(1) == 4
    tracer.uninstall()
    assert Module.inner is original_inner and Module.outer is original_outer

    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("m.outer", "m.inner")
    assert outer.parent is None and inner.parent is outer
    # clock ticks: outer start 0, inner start 1, inner end 2, outer end 3
    assert (outer.start, outer.end, inner.start, inner.end) == (0, 3, 1, 2)
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_closes_span_when_call_raises():
    def boom():
        raise RuntimeError("x")

    tracer = spans.Tracer(clock=FakeClock())
    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(RuntimeError):
        wrapped()
    (span,) = tracer.spans
    assert span.duration == 1.0
    assert tracer._stack() == []


def test_hook_sees_bound_arguments_and_dump_writes_parent_indices(tmp_path):
    def work(channel, trials=1):
        return trials

    def hook(tracer, bound):
        tracer.add("trials", bound.arguments["trials"])
        tracer.maximum("largest", bound.arguments["trials"])

    tracer = spans.Tracer(clock=FakeClock())
    outer = tracer.wrap(lambda: wrapped("c", trials=5) + wrapped("c", 3), "o")
    wrapped = tracer.wrap(work, "w", hook)
    assert outer() == 8
    assert tracer.counters == {"trials": 8, "largest": 5}
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r[0] for r in rows] == ["o", "w", "w"]
    assert [r[3] for r in rows] == [-1, 0, 0]


# ---------------------------------------------------------------------------
# Seed -> config generation and checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_configs_are_a_function_of_the_seed(workload):
    first = workloads.make_configs(workload, 11)
    assert first == workloads.make_configs(workload, 11)
    other = workloads.make_configs(workload, 12)
    assert [cfg["seed"] for _, cfg in first] == [11] * len(first)
    # the seed is the only field that changes, so the work does not
    for (_, a), (_, b) in zip(first, other):
        assert {k: v for k, v in a.items() if k != "seed"} == \
               {k: v for k, v in b.items() if k != "seed"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_cli_configs_pass_load_config(workload, tmp_path):
    for op, cfg in workloads.make_configs(workload, workloads.DEFAULT_SEED):
        if op.command is None:
            continue
        path = tmp_path / f"{op.name}.json"
        path.write_text(json.dumps(cfg))
        loaded = load_config(path, command=op.command)
        assert loaded.seed == workloads.DEFAULT_SEED


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_out_of_range_seed_is_rejected(seed):
    with pytest.raises(ValueError):
        workloads.make_configs("trials_mc", seed)


def test_wilson_interval_matches_closed_form():
    lo, hi = workloads.wilson_interval(40, 100, z=1.96)
    assert lo == pytest.approx(0.3094, abs=1e-4)
    assert hi == pytest.approx(0.4980, abs=1e-4)
    lo, hi = workloads.wilson_interval(0, 10, z=1.96)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.35


def test_mc_check_accepts_pinned_rate_and_rejects_far_rates():
    pinned = workloads.MC_PINNED_ERRORS / workloads.MC_PINNED_TRIALS
    assert workloads.check_mc(round(pinned * 4096), 4096)[0]
    assert not workloads.check_mc(round((pinned + 0.1) * 4096), 4096)[0]


def test_sweep_check_accepts_reference_and_rejects_perturbation(tmp_path):
    ref = workloads.REFERENCE_DIR / "sweep_2qubit.csv"
    assert workloads.check_sweep(ref)[0]
    lines = ref.read_text().splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[10] = ",".join(cells)
    bad = tmp_path / "sweep.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert not workloads.check_sweep(bad)[0]
