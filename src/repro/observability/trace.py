"""Structured tracing: nested spans with monotonic timings.

A :class:`Span` is one timed region of the pipeline — "retime this graph",
"execute this program" — with a name, a wall-anchored start time, a
duration and free-form attributes.  Spans nest: entering a span while
another is open makes it a child, so one profiled run yields a *tree*
whose shape mirrors the call structure (retiming inside a job inside an
engine batch).

Timing uses ``time.perf_counter_ns`` (monotonic, immune to clock steps)
re-anchored once per tracer to the wall clock, so spans recorded in
*different processes* land on one comparable timeline.  Spans serialize to
plain JSON dicts (:meth:`Span.to_dict`) — that is the transport the
experiment engine uses to ship worker-process spans back to the parent
tracer (:meth:`Tracer.absorb`).

The export format is the Chrome trace-event JSON (``chrome://tracing`` /
Perfetto): one ``"ph": "X"`` complete event per span, microsecond
timestamps, worker processes on their own ``pid`` lanes.
:func:`spans_from_chrome_events` inverts the exporter (used by the
round-trip property tests).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Span",
    "Tracer",
    "aggregate_spans",
    "chrome_trace_events",
    "format_breakdown",
    "open_span",
    "spans_from_chrome_events",
    "write_chrome_trace",
]


@dataclass
class Span:
    """One timed, attributed, possibly-nested region.

    ``start_ns`` is wall-anchored monotonic nanoseconds (see module docs);
    ``duration_ns`` is filled when the span closes.
    """

    name: str
    start_ns: int = 0
    duration_ns: int = 0
    attributes: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    pid: int = field(default_factory=os.getpid)

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; returns ``self`` for chaining."""
        self.attributes.update(attrs)
        return self

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def self_ns(self) -> int:
        """Duration not covered by direct children (exclusive time)."""
        return self.duration_ns - sum(c.duration_ns for c in self.children)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- JSON transport (cross-process) --------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON rendering; inverse of :meth:`from_dict`."""
        doc: dict = {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "pid": self.pid,
        }
        if self.attributes:
            doc["attributes"] = self.attributes
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        return cls(
            name=doc["name"],
            start_ns=doc["start_ns"],
            duration_ns=doc["duration_ns"],
            attributes=dict(doc.get("attributes", {})),
            children=[cls.from_dict(c) for c in doc.get("children", [])],
            pid=doc.get("pid", os.getpid()),
        )


class _NullSpan:
    """Do-nothing stand-in yielded when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


#: Shared no-op context manager — the entire cost of a disabled hook is
#: one attribute check and returning this singleton.
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span", "_stack")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    # Enter and exit inline the tracer's stack bookkeeping: they run on
    # every traced hot path, where each extra call shows.
    def __enter__(self) -> Span:
        span = self.span
        tracer = self._tracer
        self._stack = stack = tracer._stack()
        stack.append(span)
        span.start_ns = tracer._anchor_wall_ns + (
            time.perf_counter_ns() - tracer._anchor_perf_ns
        )
        return span

    def __exit__(self, *exc) -> None:
        span = self.span
        tracer = self._tracer
        span.duration_ns = (
            tracer._anchor_wall_ns
            + (time.perf_counter_ns() - tracer._anchor_perf_ns)
            - span.start_ns
        )
        stack = self._stack  # entered and exited on the same thread
        assert stack and stack[-1] is span, "unbalanced span nesting"
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with tracer._lock:
                tracer.roots.append(span)


def open_span(tracer: "Tracer", name: str, attributes: dict) -> _SpanContext:
    """A new span ``name`` on ``tracer``, as a context manager (what
    :meth:`Tracer.span` returns; the one place a span is built for it)."""
    return _SpanContext(tracer, Span(name, 0, 0, attributes, [], os.getpid()))


class Tracer:
    """Collector of span trees for one process.

    Thread-safe: each thread keeps its own open-span stack, and finished
    root spans append to a shared list under a lock.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._local = threading.local()
        # The creating thread is nearly always the one tracing (a pool
        # worker makes a fresh tracer per unit): give it its stack now.
        self._local.stack = []
        self._lock = threading.Lock()
        # Anchor monotonic time to the wall clock once, so spans from
        # different processes share one timeline.
        self._anchor_wall_ns = time.time_ns()
        self._anchor_perf_ns = time.perf_counter_ns()

    # -- stack bookkeeping ---------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- public API ----------------------------------------------------

    def span(self, name: str, **attributes) -> _SpanContext:
        """Context manager timing one region::

            with tracer.span("retiming.minimize", graph=g.name) as sp:
                ...
                sp.set(period=result)
        """
        return open_span(self, name, attributes)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def absorb(self, docs: list[dict]) -> None:
        """Merge foreign (worker-process) span dicts into this tracer.

        Spans attach under the currently open span when there is one —
        so worker trees nest under the engine batch that spawned them —
        and become roots otherwise.  The foreign ``pid`` is preserved,
        which puts each worker on its own lane in the Chrome trace.
        """
        spans = [Span.from_dict(d) for d in docs]
        parent = self.current()
        if parent is not None:
            parent.children.extend(spans)
        else:
            with self._lock:
                self.roots.extend(spans)

    def export(self) -> list[dict]:
        """JSON transport of every finished root span."""
        with self._lock:
            return [s.to_dict() for s in self.roots]

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()


# ----------------------------------------------------------------------
# Chrome trace-event export / import
# ----------------------------------------------------------------------


def chrome_trace_events(spans: list[Span]) -> list[dict]:
    """Flatten span trees into Chrome ``"ph": "X"`` complete events.

    Timestamps are rebased to the earliest span in the trace: wall-anchored
    nanoseconds are ~1.7e18, beyond float64's exact-integer range once
    divided into microseconds, and trace viewers only need relative time.
    """
    if not spans:
        return []
    epoch = min(s.start_ns for root in spans for s in root.walk())
    events: list[dict] = []

    def emit(span: Span) -> None:
        event = {
            "name": span.name,
            "ph": "X",
            "ts": (span.start_ns - epoch) / 1000.0,  # microseconds
            "dur": span.duration_ns / 1000.0,
            "pid": span.pid,
            "tid": span.pid,
        }
        if span.attributes:
            event["args"] = span.attributes
        events.append(event)
        for child in span.children:
            emit(child)

    for span in spans:
        emit(span)
    return events


def write_chrome_trace(path: Path | str, spans: list[Span]) -> None:
    """Write ``spans`` as a Chrome trace-event JSON file.

    Atomic (temp file + rename): an interrupted export never leaves a
    truncated trace that ``chrome://tracing`` would reject.
    """
    from ..ioutil import atomic_write_text

    doc = {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    atomic_write_text(path, json.dumps(doc, indent=1))


def spans_from_chrome_events(events: list[dict]) -> list[Span]:
    """Rebuild span trees from Chrome complete events (exporter inverse).

    Nesting is recovered by time containment within each ``pid`` lane:
    an event strictly inside an open one is its child.  Events produced
    by :func:`chrome_trace_events` always satisfy containment because
    child spans open after and close before their parent.
    """
    by_pid: dict[int, list[dict]] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        by_pid.setdefault(ev.get("pid", 0), []).append(ev)

    roots: list[Span] = []
    for pid, evs in by_pid.items():
        # Parents sort before children: earlier start first, longer first.
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[Span] = []
        for ev in evs:
            span = Span(
                name=ev["name"],
                start_ns=round(ev["ts"] * 1000.0),
                duration_ns=round(ev["dur"] * 1000.0),
                attributes=dict(ev.get("args", {})),
                pid=pid,
            )
            while stack and not (
                span.start_ns >= stack[-1].start_ns
                and span.end_ns <= stack[-1].end_ns
            ):
                stack.pop()
            if stack:
                stack[-1].children.append(span)
            else:
                roots.append(span)
            stack.append(span)
    return roots


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def aggregate_spans(spans: list[Span]) -> dict[str, dict]:
    """Per-name totals across span trees.

    Returns ``name -> {"count", "total_ns", "self_ns"}`` where ``self``
    excludes time covered by child spans.
    """
    agg: dict[str, dict] = {}
    for root in spans:
        for span in root.walk():
            row = agg.setdefault(
                span.name, {"count": 0, "total_ns": 0, "self_ns": 0}
            )
            row["count"] += 1
            row["total_ns"] += span.duration_ns
            row["self_ns"] += max(0, span.self_ns())
    return agg


def format_breakdown(spans: list[Span]) -> str:
    """Human-readable per-stage table for the ``profile`` CLI."""
    agg = aggregate_spans(spans)
    if not agg:
        return "(no spans recorded)"
    total = sum(s.duration_ns for s in spans) or 1
    width = max(len(name) for name in agg)
    lines = [
        f"{'span':{width}s} {'count':>6s} {'total':>10s} {'self':>10s} {'%':>6s}"
    ]
    for name, row in sorted(
        agg.items(), key=lambda kv: kv[1]["total_ns"], reverse=True
    ):
        lines.append(
            f"{name:{width}s} {row['count']:6d} "
            f"{row['total_ns'] / 1e6:8.3f}ms {row['self_ns'] / 1e6:8.3f}ms "
            f"{100.0 * row['total_ns'] / total:5.1f}%"
        )
    return "\n".join(lines)
