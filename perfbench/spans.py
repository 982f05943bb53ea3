"""Outside-in span recorder for the mirrorselect benchmark.

Spans are kept in memory as (name, start, end, parent, operation id) and
reduced to per-layer metrics when the benchmark ends.  The recorder is
fed by wrappers that ``Patcher`` installs on module attributes, at the
place where each caller looks the name up (modules bind with
``from x import y``, so patching the defining module alone would miss
most calls).  No file of the package itself is touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanRecorder:
    """Collects nested spans and named counters for traced operations."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open = []  # [name, start, end, parent, op] rows, end None while open
        self._stack = []
        self.op = 0
        self.counters = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self._open)
        self._open.append([name, self._clock(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self._open[index][2] = self._clock()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    @property
    def spans(self) -> list[Span]:
        return [Span(*row) for row in self._open if row[2] is not None]

    def write(self, path) -> None:
        """Write every closed span, with its self time, as JSON."""
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "self_s": self_s}
            for s, self_s in zip(self.spans, self.self_times())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)
            fh.write("\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals,
        clipped to the span itself."""
        spans = self.spans
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = []
        for i, s in enumerate(spans):
            covered = _union_length(
                (max(c.start, s.start), min(c.end, s.end))
                for c in children[i]
                if c.end > s.start and c.start < s.end
            )
            out.append((s.end - s.start) - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed busy seconds, summed self seconds, calls."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for s, self_s in zip(self.spans, self.self_times()):
            entry = out[s.name]
            entry["s"] += s.end - s.start
            entry["self_s"] += self_s
            entry["calls"] += 1
        return dict(out)


def span_name(fn) -> str:
    """``<module>.<function>`` of the defining module, without the package
    prefix or a leading underscore (metric names start with a letter)."""
    module = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    return f"{module}.{fn.__name__}"


def traced(recorder: SpanRecorder, fn, observe=None):
    """Wrap ``fn`` in a span; ``observe(recorder, bound_args, result)`` runs
    after the span closes so counting never adds to the layer's time."""
    name = span_name(fn)
    signature = inspect.signature(fn) if observe is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observe(recorder, bound.arguments, result)
        return result

    return wrapper


class Patcher:
    """Replaces attributes and dict entries, and puts every original back."""

    def __init__(self):
        self._saved = []

    def attr(self, owner, name: str, replacement) -> None:
        self._saved.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def item(self, mapping: dict, key, replacement) -> None:
        self._saved.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self) -> None:
        while self._saved:
            put, owner, name, original = self._saved.pop()
            put(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
