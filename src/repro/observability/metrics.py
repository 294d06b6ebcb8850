"""Counters, gauges and histograms for the pipeline's hot paths.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing totals (VM instructions
  executed, retiming iterations, cache hits);
* :class:`Gauge` — last-written values (cache hit rate, engine wall time);
* :class:`Histogram` — distributions over fixed bucket bounds (per-run
  instruction counts, per-call wall times).

Two exporters cover both consumption modes: :meth:`MetricsRegistry.as_dict`
(machine-readable JSON, the ``--metrics-out`` flag) and
:meth:`MetricsRegistry.to_prometheus` (the Prometheus text exposition
format, dots mapped to underscores).

Registries merge: :meth:`MetricsRegistry.merge` adds another registry's
JSON snapshot pointwise, which is how counters from experiment-engine
worker processes aggregate into the parent run — each worker ships its
deltas home in the result envelope, and the merged totals equal what a
serial run would have counted.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
]

#: Default histogram bucket upper bounds (generic magnitude ladder).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

#: Bucket upper bounds for latencies in seconds, 1 ms to 10 s (request
#: seconds, lease ages).
SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing integer total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n


class Gauge:
    """Last-written value (may go up or down)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Distribution over fixed bucket upper bounds.

    ``buckets[i]`` counts observations ``<= bounds[i]``; observations above
    the last bound land in the implicit ``+Inf`` overflow bucket.  Count,
    sum, min and max are tracked exactly.
    """

    __slots__ = ("name", "help", "bounds", "buckets", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bucket bounds must be sorted")
        self.name = name
        self.help = help
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def percentile(self, q: float) -> float | None:
        """Bucket-resolution upper bound on the ``q``-th percentile.

        Returns the smallest bucket upper bound whose cumulative count
        covers at least ``q`` percent of observations (``self.max`` for
        the overflow bucket), or ``None`` with no observations.
        Deterministic — the soak tests use it as an op-counter-style
        latency budget, never a wall-clock assertion.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return None
        rank = q / 100.0 * self.count
        cumulative = 0
        for bound, n in zip(self.bounds, self.buckets):
            cumulative += n
            if cumulative >= rank:
                return float(bound)
        return float(self.max)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Flat, typed namespace of instruments with merge and export."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name, help)
        return c

    def gauge(self, name: str, help: str = "") -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, help)
        return g

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, help, bounds)
        return h

    # -- export --------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON snapshot; the transport format of :meth:`merge`."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (``.`` becomes ``_``)."""

        def prom(name: str) -> str:
            return name.replace(".", "_").replace("-", "_")

        lines: list[str] = []
        for name, c in sorted(self._counters.items()):
            p = prom(name)
            if c.help:
                lines.append(f"# HELP {p} {c.help}")
            lines.append(f"# TYPE {p} counter")
            lines.append(f"{p} {c.value}")
        for name, g in sorted(self._gauges.items()):
            p = prom(name)
            if g.help:
                lines.append(f"# HELP {p} {g.help}")
            lines.append(f"# TYPE {p} gauge")
            lines.append(f"{p} {g.value}")
        for name, h in sorted(self._histograms.items()):
            p = prom(name)
            if h.help:
                lines.append(f"# HELP {p} {h.help}")
            lines.append(f"# TYPE {p} histogram")
            cumulative = 0
            for bound, count in zip(h.bounds, h.buckets):
                cumulative += count
                lines.append(f'{p}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f'{p}_bucket{{le="+Inf"}} {h.count}')
            lines.append(f"{p}_sum {h.sum}")
            lines.append(f"{p}_count {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- merge / reset -------------------------------------------------

    def merge(self, snapshot: dict) -> None:
        """Add another registry's :meth:`as_dict` snapshot pointwise.

        Counters and histograms accumulate (bucket-by-bucket; bucket
        bounds must match); gauges take the incoming value.
        """
        counters = self._counters
        for name, value in snapshot.get("counters", {}).items():
            c = counters.get(name)
            if c is None:
                c = counters[name] = Counter(name)
            c.inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, doc in snapshot.get("histograms", {}).items():
            bounds = tuple(doc["bounds"])
            h = self.histogram(name, bounds=bounds)
            if h.bounds != bounds:
                raise ValueError(
                    f"histogram {name}: merging mismatched bucket bounds"
                )
            h.buckets = [a + b for a, b in zip(h.buckets, doc["buckets"])]
            h.count += doc["count"]
            h.sum += doc["sum"]
            if doc["count"]:
                h.min = min(h.min, doc["min"])
                h.max = max(h.max, doc["max"])

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
