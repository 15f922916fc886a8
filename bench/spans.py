"""In-memory span tracing for the benchmark's traced runs.

A ``Tracer`` replaces a function at the name its callers bind (for example
``qrelay.cli.polarize``) with a wrapper that records one span per call:
name, start, end and the enclosing span. Spans stay in memory until the
run ends. A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    """One call of a wrapped function. ``parent`` is the enclosing span in
    the same thread, or None at the top level."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional["Span"] = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping them to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span, in the order given."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return [s.duration - covered_length(children.get(id(s), ()), s.start, s.end)
            for s in spans]


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: number of calls, summed duration and summed self time."""
    out: Dict[str, Dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.duration
        agg["self_s"] += own
    return out


class Tracer:
    """Records spans from wrapped functions; ``counters`` holds exact
    counts that hooks derive from call arguments."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             hook: Optional[Callable[["Tracer", inspect.BoundArguments], None]] = None
             ) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name``. ``hook``
        receives the bound call arguments before the span starts."""
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs))
            stack = self._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` by a recording wrapper until ``uninstall``."""
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def dump(self, path) -> None:
        """Write spans as JSON lines [name, start, end, parent index]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = -1 if s.parent is None else index[id(s.parent)]
                fh.write(json.dumps([s.name, s.start, s.end, parent]) + "\n")
