"""Zero-dependency structured tracing and metrics for the pipeline.

Two module-level switches govern the subsystem: ``OBS.enabled`` for
metrics and ``OBS.tracing`` for spans (tracing implies metrics).  Every
hook in the library is written as::

    from ..observability import OBS, span

    with span("retiming.minimize", graph=g.name) as sp:   # no-op unless tracing
        ...
    if OBS.enabled:                                       # bulk, not per-op
        OBS.metrics.counter("vm.instructions.executed").inc(executed)

When a switch is **off** (the default) its hooks cost one attribute
check — ``span`` returns a shared null context manager and the metrics
branch is never taken — so the hot paths stay hot.  Metrics collect into
:attr:`OBS.metrics <Observability.metrics>`; spans collect into
:attr:`OBS.tracer <Observability.tracer>` only while a trace is being
taken (``--trace``, ``profile``), because nothing else reads them and a
long-lived process would keep every one.  :func:`enable` turns both on;
``enable(trace=False)`` turns on metrics alone (the request server,
``--metrics-out`` without ``--trace``).

Cross-process aggregation: a worker process calls :func:`export_state` and
ships the plain-JSON result home in its payload envelope; the parent calls
:func:`absorb_state` to merge the worker's spans (on their own ``pid``
lane, when the parent traces) and metric deltas into the run's
collectors.  This is how
:class:`~repro.runner.engine.ExperimentEngine` makes a parallel sweep's
trace and counters equal a serial run's.

Capture: inside :func:`captured`, this context's metric updates go to a
fresh registry instead of the process one, and come back as the block's
metric delta, which the caller merges with :meth:`MetricsRegistry.merge`
-- once, or once per repetition of the work it stands for (how
:mod:`repro.runner.reuse` counts a shared stage for every unit that uses
it).  The capture is context-local, so updates made meanwhile on other
threads are not swept into it.
"""

from __future__ import annotations

from contextvars import ContextVar

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    aggregate_spans,
    chrome_trace_events,
    format_breakdown,
    open_span,
    spans_from_chrome_events,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "Observability",
    "Span",
    "Tracer",
    "absorb_state",
    "aggregate_spans",
    "captured",
    "chrome_trace_events",
    "count",
    "disable",
    "enable",
    "export_state",
    "format_breakdown",
    "span",
    "spans_from_chrome_events",
    "write_chrome_trace",
]


#: The registry of the innermost :func:`captured` block in this context.
_CAPTURE: ContextVar[MetricsRegistry | None] = ContextVar("metrics_capture", default=None)


class Observability:
    """The process-wide tracing/metrics switchboard (singleton ``OBS``)."""

    def __init__(self) -> None:
        self.enabled = False  # metrics
        self.tracing = False  # spans; only ever on with metrics
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    @property
    def metrics(self) -> MetricsRegistry:
        """Where metric updates go: this context's capture, if any, else
        the process registry."""
        capture = _CAPTURE.get()
        return self._metrics if capture is None else capture

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        self._metrics = registry

    def enable(self, trace: bool = True) -> None:
        self.enabled = True
        self.tracing = trace

    def disable(self) -> None:
        self.enabled = False
        self.tracing = False

    def reset(self) -> None:
        """Fresh tracer and registry; the switches are unchanged."""
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()


#: The process-wide instance every hook checks.
OBS = Observability()


def enable(trace: bool = True) -> None:
    """Turn metrics collection, and unless ``trace`` is false tracing,
    on for this process."""
    OBS.enable(trace)


def disable() -> None:
    OBS.disable()


def span(name: str, **attributes):
    """A tracer span while tracing, a shared no-op otherwise."""
    if not OBS.tracing:
        return NULL_SPAN
    return open_span(OBS.tracer, name, attributes)


def count(name: str, n: int = 1) -> None:
    """Guarded counter increment for call sites without a local guard."""
    if OBS.enabled:
        OBS.metrics.counter(name).inc(n)


class captured:
    """Divert this context's metric updates away from the registry.

    ``with captured() as delta:`` -- once the block exits (also by
    exception), ``delta`` holds the block's metric delta: the non-empty
    sections of a :meth:`MetricsRegistry.as_dict` snapshot.  The updates
    reach no registry until the caller merges ``delta`` into one, as
    often as the work it stands for is counted.
    """

    __slots__ = ("delta", "_inner", "_token")

    def __enter__(self) -> dict:
        self._inner = MetricsRegistry()
        self._token = _CAPTURE.set(self._inner)
        self.delta: dict = {}
        return self.delta

    def __exit__(self, *exc) -> None:
        _CAPTURE.reset(self._token)
        inner = self._inner
        if inner._counters:
            self.delta["counters"] = {n: c.value for n, c in inner._counters.items()}
        if inner._gauges:
            self.delta["gauges"] = {n: g.value for n, g in inner._gauges.items()}
        if inner._histograms:
            self.delta["histograms"] = {
                n: h.as_dict() for n, h in inner._histograms.items()
            }


def export_state(reset: bool = True) -> dict:
    """JSON envelope of this process's spans and metric deltas.

    With ``reset`` (the default) the collectors are cleared afterwards, so
    a long-lived worker process exports disjoint deltas per unit of work.
    """
    state = {"spans": OBS.tracer.export(), "metrics": OBS.metrics.as_dict()}
    if reset:
        OBS.tracer.clear()
        OBS.metrics.reset()
    return state


def absorb_state(state: dict | None) -> None:
    """Merge an :func:`export_state` envelope from another process; its
    spans only while this process traces."""
    if not state:
        return
    if OBS.tracing:
        OBS.tracer.absorb(state.get("spans", []))
    OBS.metrics.merge(state.get("metrics", {}))
