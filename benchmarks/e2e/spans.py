"""In-memory spans recorded by the benchmark's traced pass.

A span has a name, a start, an end, a parent and the id of the workload
run that recorded it.  Spans stay in memory and are written once, as a
Chrome trace, when the run ends.

A span's self time is its duration minus the *union* of its children's
intervals, clipped to the span.  Children can overlap -- two pool workers
run side by side under one ``engine.map`` -- so subtracting their summed
durations would count shared time twice.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None  # index into the recorder's span list
    run_id: str = ""
    pid: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def union_ns(intervals) -> int:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0
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


def self_ns(span: Span, children) -> int:
    """``span``'s duration minus the union of its children's intervals."""
    clipped = (
        (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
        for c in children
    )
    return span.duration_ns - union_ns((s, e) for s, e in clipped if e > s)


class SpanRecorder:
    """Single-threaded span collector for one workload run."""

    def __init__(self, run_id: str, clock=time.perf_counter_ns) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self._clock(), parent=parent, run_id=self.run_id, pid=os.getpid())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end_ns = self._clock()
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """A finished root span (for coroutines, which interleave)."""
        self.spans.append(Span(name, start_ns, end_ns, run_id=self.run_id, pid=os.getpid()))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, int]:
        """Summed self time per span name, in nanoseconds."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        totals: dict[str, int] = {}
        for i, sp in enumerate(self.spans):
            totals[sp.name] = totals.get(sp.name, 0) + self_ns(sp, children.get(i, []))
        return totals

    def write_chrome_trace(self, path: Path) -> None:
        epoch = min((s.start_ns for s in self.spans), default=0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start_ns - epoch) / 1000.0,
                "dur": s.duration_ns / 1000.0,
                "pid": s.pid,
                "tid": s.pid,
                "args": {"run_id": s.run_id, "parent": s.parent},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def spans_from_chrome(events: list[dict]) -> list[Span]:
    """Flat spans from a program's Chrome trace (``ph == "X"`` events)."""
    return [
        Span(
            ev["name"],
            round(ev["ts"] * 1000),
            round((ev["ts"] + ev["dur"]) * 1000),
            pid=ev.get("pid", 0),
        )
        for ev in events
        if ev.get("ph") == "X"
    ]
