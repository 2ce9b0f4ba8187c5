"""In-memory spans recorded around the benchmark's calls into joinscout.

A span has a name, the span that caused it, a start and an end.  Every
span of one operation (one discover, one query, one pass) shares that
operation's trace id.  The benchmark is single-threaded, so the spans of
one operation nest strictly and a span's self time is its duration minus
the durations of its direct children.

Every time the benchmark reports is read from :func:`clock`: the CPU time
of this process.  The benchmark is single-threaded and CPU-bound, so that
is its wall time less the time the virtual machine's host takes the CPU
away, which comes in bursts and would otherwise dominate the spread
between runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

clock = time.process_time


@dataclass
class Span:
    trace_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for every operation of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._by_trace: dict[int, list[int]] = {}
        self._stack: list[int] = []
        self._trace_id = -1

    @contextmanager
    def operation(self, name: str) -> Iterator[Span]:
        """Open a root span under a fresh trace id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._trace_id += 1
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._trace_id, name, parent, clock())
        self._stack.append(len(self.spans))
        self._by_trace.setdefault(self._trace_id, []).append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = clock()
            self._stack.pop()

    def self_times(self, trace_id: int) -> dict[str, float]:
        """Self time summed by span name over one operation."""
        child_time: dict[int, float] = {}
        members = [(i, self.spans[i]) for i in self._by_trace.get(trace_id, ())]
        for _, span in members:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        out: dict[str, float] = {}
        for i, span in members:
            out[span.name] = out.get(span.name, 0.0) + span.duration - child_time.get(i, 0.0)
        return out

    def durations(self, trace_id: int, name: str) -> list[float]:
        spans = (self.spans[i] for i in self._by_trace.get(trace_id, ()))
        return [s.duration for s in spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [
            {
                "trace": s.trace_id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
            }
            for s in self.spans
        ]
