"""The benchmark's trace points must still name qrelay functions that take
the arguments its hooks read, or ``bench/run.py --trace 1`` breaks.

``bench/worker.py`` is imported as it is; nothing under ``bench/`` changes.
"""

import importlib.util
import inspect
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


TRACE_POINTS = _import_worker().TRACE_POINTS


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
