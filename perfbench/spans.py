"""In-memory spans, self-time arithmetic and the order statistics the
benchmark reports.

Spans are recorded only from the benchmark's own files, around each call it
makes into the package, so tracing needs no change to the program under test.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

TAIL_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: int


class Tracer:
    """Collects spans; a span opened inside another becomes its child and
    shares its trace identifier (one trace per workload pass)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._traces = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if self._stack:
            parent = self._stack[-1]
            trace = self.spans[parent].trace
        else:
            parent = None
            self._traces += 1
            trace = self._traces
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, trace))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover (children are clipped to the parent; overlaps count once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[i]
            if min(c.end, s.end) > max(c.start, s.start)
        ]
        out.append((s.end - s.start) - _covered(clipped))
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total and median self time in seconds."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for s, t in zip(spans, self_times(spans)):
        by_name[s.name].append(t)
    return {
        name: {"count": len(ts), "self_total_s": sum(ts), "self_median_s": statistics.median(ts)}
        for name, ts in sorted(by_name.items())
    }


def by_layer(summary: dict[str, dict]) -> dict[str, dict]:
    """Roll a summary up to modules: the span-name prefix before the first dot."""
    out: dict[str, dict] = {}
    for name, row in summary.items():
        layer = out.setdefault(name.split(".", 1)[0], {"count": 0, "self_total_s": 0.0})
        layer["count"] += row["count"]
        layer["self_total_s"] += row["self_total_s"]
    return out


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) at the highest percentile that still has at least
    `beyond` samples above it in sorted order. With `beyond` samples or
    fewer no percentile qualifies, and the maximum (percentile 100) stands in.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("tail of an empty sample")
    if len(xs) <= beyond:
        return 100.0, xs[-1]
    i = len(xs) - 1 - beyond
    return 100.0 * (i + 1) / len(xs), xs[i]
