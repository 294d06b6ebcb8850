"""Zero-dependency structured tracing and metrics for the pipeline.

One module-level switch governs the whole subsystem.  Every hook in the
library is written as::

    from ..observability import OBS, span

    with span("retiming.minimize", graph=g.name) as sp:   # no-op when off
        ...
    if OBS.enabled:                                       # bulk, not per-op
        OBS.metrics.counter("vm.instructions.executed").inc(executed)

When tracing is **off** (the default) a hook costs one attribute check —
``span`` returns a shared null context manager and the metrics branch is
never taken — so the hot paths stay hot.  When **on**, spans collect into
:attr:`OBS.tracer <Observability.tracer>` and counters into
:attr:`OBS.metrics <Observability.metrics>`.

Cross-process aggregation: a worker process calls :func:`export_state` and
ships the plain-JSON result home in its payload envelope; the parent calls
:func:`absorb_state` to merge the worker's spans (on their own ``pid``
lane) and metric deltas into the run's collectors.  This is how
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
        self.enabled = False
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

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Fresh tracer and registry; the enabled flag is unchanged."""
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()


#: The process-wide instance every hook checks.
OBS = Observability()


def enable() -> None:
    """Turn tracing and metrics collection on for this process."""
    OBS.enable()


def disable() -> None:
    OBS.disable()


def span(name: str, **attributes):
    """A tracer span when observability is on, a shared no-op otherwise."""
    if not OBS.enabled:
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
    """Merge an :func:`export_state` envelope from another process."""
    if not state:
        return
    OBS.tracer.absorb(state.get("spans", []))
    OBS.metrics.merge(state.get("metrics", {}))
