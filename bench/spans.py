"""In-memory span recorder for the benchmark's traced runs.

A span is opened in the benchmark's own code around one call into a
module of ``tempstable`` and is named ``<module>.<function>``.  Spans are
kept in memory and summarised when the run ends; nothing is written
while tasks run.  The untraced run uses ``NullTracer``, which stores
nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

ROOT = "bench.task"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one recorded span; yields the span's attrs."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> dict:
        return self._tracer.spans[self._index].attrs

    def __exit__(self, exc_type, exc, tb) -> bool:
        tr = self._tracer
        span = tr.spans[self._index]
        span.end = time.perf_counter()
        if exc_type is not None:
            span.error = exc_type.__name__
        tr._stack.pop()
        return False


class Tracer:
    """Records spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._task = -1

    def task(self, task_id: int) -> _Open:
        """Root span of one task; the spans opened inside it share its id."""
        self._task = task_id
        return self.span(ROOT)

    def span(self, name: str, **attrs) -> _Open:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._task, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _Open(self, index)


class _Discard:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_DISCARD = _Discard()


class NullTracer:
    """Tracer of the untraced run: same interface, records nothing."""

    spans: tuple = ()

    def task(self, task_id: int) -> _Discard:
        return _DISCARD

    def span(self, name: str, **attrs) -> _Discard:
        return _DISCARD


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def span_cost(n: int = 20000) -> float:
    """Seconds one nested span adds, measured on a scratch tracer."""
    tr = Tracer()
    t0 = time.perf_counter()
    with tr.task(0):
        for _ in range(n):
            with tr.span("bench.probe"):
                pass
    return (time.perf_counter() - t0) / (n + 1)
