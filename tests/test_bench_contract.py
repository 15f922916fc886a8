"""The benchmark's trace points must still name qrelay functions that take
the arguments its hooks read, or ``bench/run.py --trace 1`` breaks, and the
library calls the worker makes itself must still run, or every plain
repetition fails.

``bench/worker.py`` is imported as it is; nothing under ``bench/`` changes.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def _import_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    # the worker puts src/ and bench/ on sys.path for its own imports
    with mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


WORKER_MODULE = _import_worker()
TRACE_POINTS = WORKER_MODULE.TRACE_POINTS


class _RecordingArguments(dict):
    """Bound arguments that record each name a hook reads."""

    def __init__(self):
        super().__init__()
        self.read = []

    def __getitem__(self, name):
        self.read.append(name)
        return mock.MagicMock()


@pytest.mark.parametrize(
    "module, attr, hook",
    [(module, attr, hook) for module, attr, _, hook in TRACE_POINTS],
    ids=[f"{module.__name__}.{attr}" for module, attr, _, _ in TRACE_POINTS])
def test_trace_point_target_takes_what_its_hook_reads(module, attr, hook):
    target = getattr(module, attr, None)
    assert callable(target), f"{module.__name__}.{attr} is gone"
    if hook is None:
        return
    arguments = _RecordingArguments()
    hook(mock.MagicMock(), SimpleNamespace(arguments=arguments))
    assert arguments.read
    parameters = inspect.signature(target).parameters
    assert set(arguments.read) <= set(parameters), (
        f"{module.__name__}.{attr} has no parameter {arguments.read}")


def test_worker_partition_sizes_on_a_loaded_config(tmp_path):
    # the worker counts every plain run's partition outside its try block,
    # so a partition whose classes stop being sized arrays crashes the run
    path = tmp_path / "sets.json"
    path.write_text(json.dumps({
        "amp_channel": {"kind": "bec", "epsilon": 0.3},
        "phase_channel": {"kind": "bec", "epsilon": 0.4},
        "k": 4, "beta": 0.35}), encoding="utf-8")
    cfg = WORKER_MODULE.qrelay.cli.load_config(path, command="sets")
    sizes = WORKER_MODULE._partition_sizes(cfg)
    assert sizes["n"] == 16
    assert set(sizes) == {"n", "size_s_in", "size_p1", "size_p2", "size_b"}
    assert all(isinstance(value, int) for value in sizes.values())


def test_worker_runs_a_tiny_monte_carlo_op():
    result = WORKER_MODULE._run_mc({
        "channel": {"kind": "bec", "epsilon": 0.4}, "k": 3, "info_size": 4,
        "trials": 5, "seed": 1})
    assert result.trials == 5 and 0 <= result.errors <= 5
