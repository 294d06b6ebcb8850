"""Per-graph stage reuse across the cells of a sweep.

The transformed programs of a graph do not depend on the trip count: a
CSR loop runs any ``n`` from the same body and guard set-up
(Theorems 4.1/4.2, 4.6/4.7).  So a graph's parse, retimings, unfoldings
and generated programs depend only on ``(G, f)``, and the original
loop's reference run only on ``(G, n)`` — yet every cell
``(transform, f, n)`` of a sweep asks for them again.
:func:`repro.runner.jobs.execute_job` looks each of them up through
:class:`GraphStages`, which shares them within the current
:class:`ReuseScope`.

Scope rule: reuse happens only inside an explicit scope.  The engine
runs a batch's inline chunks (a serial run, the lease fabric's local
fallback) in one scope (:func:`reuse`), freed when the batch ends; a
worker process running :func:`~repro.runner.engine._pool_chunk` keeps
one for its lifetime (:func:`worker_scope`).  Outside any scope a lookup just builds, so a
bare ``execute_job(params)`` computes every stage.  A scope is an LRU
over :data:`GRAPHS` graphs; evicting a graph frees everything built for
it, including what was derived from its graph object below the stages
(its retimed and unfolded graphs, instructions and compiled VM code; see
:func:`repro.graph.kernel.derived`).  A build may use a stage only if
the scope already holds it (:meth:`GraphStages.peek`): the
``retime_unfold`` search takes its upper bound from the ``("minimize",)``
stage that way.

Purity: an entry is a pure function of the graph JSON and its stage key,
and callers never mutate one (parsed graphs are read-only and
``LoopProgram`` is frozen), so reuse changes speed, never results.

Observability: counters count the *logical* work of each unit.  A build
made while observability is on captures its metric delta
(:func:`repro.observability.captured`), which is merged with
:meth:`~repro.observability.MetricsRegistry.merge` once for the build and
again on every hit of the entry.  Totals therefore equal a run without
reuse and stay partition-invariant.  Spans show the physical time: a hit
records none.  An entry built unobserved has no delta and is rebuilt for
an observed lookup.
"""

from __future__ import annotations

import contextlib
import os
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, TypeVar

from .. import observability
from ..observability import OBS

__all__ = ["GRAPHS", "GraphStages", "ReuseScope", "ReuseStats", "reuse", "worker_scope"]

T = TypeVar("T")

#: Graphs a scope keeps.  A sweep or job matrix runs all cells of one
#: graph before the next, and a pool worker is handed a graph's cells as
#: one chunk, so it too moves from graph to graph; the second slot
#: covers the boundary.
#: Each kept graph holds its programs and their compiled forms (about
#: 0.5 MiB for a 6-node graph), which is what bounds the capacity.
GRAPHS = 2


@dataclass
class ReuseStats:
    """Stage lookups of a scope (not OBS counters: these depend on how
    units are partitioned across processes)."""

    hits: int = 0
    builds: int = 0
    evictions: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "builds": self.builds, "evictions": self.evictions}

    def merge(self, doc: dict) -> None:
        """Add another :meth:`as_dict` snapshot (a worker's delta)."""
        self.hits += doc.get("hits", 0)
        self.builds += doc.get("builds", 0)
        self.evictions += doc.get("evictions", 0)

    def minus(self, before: dict) -> dict:
        """The delta since the :meth:`as_dict` snapshot ``before``."""
        return {name: value - before[name] for name, value in self.as_dict().items()}

    def line(self) -> str:
        return f"{self.hits} stage hits, {self.builds} builds, {self.evictions} evictions"


class ReuseScope:
    """An LRU of graphs, each holding its built stages by key.

    Used by one thread at a time (it is current in one context), so it
    takes no lock.
    """

    def __init__(self, capacity: int = GRAPHS) -> None:
        if capacity < 1:
            raise ValueError(f"reuse scope capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # graph JSON -> {stage key: (value, metric delta)}, least
        # recently used first.  The delta is None for an entry built
        # while observability was off.
        self._graphs: dict[str, dict] = {}
        self._hits = 0
        self._builds = 0
        self._evictions = 0

    @property
    def stats(self) -> ReuseStats:
        return ReuseStats(self._hits, self._builds, self._evictions)

    def _keep(self, graph: str) -> dict:
        """Start keeping ``graph``, evicting the least recently used."""
        entries = self._graphs[graph] = {}
        if len(self._graphs) > self.capacity:
            del self._graphs[next(iter(self._graphs))]
            self._evictions += 1
        return entries


_CURRENT: ContextVar[ReuseScope | None] = ContextVar("reuse_scope", default=None)


class GraphStages:
    """The stages of one graph in the current scope, looked up by key.

    ``graph`` is the graph's JSON and ``g = parse(graph)`` its first
    stage.  Outside any scope :meth:`get` just builds.
    """

    __slots__ = ("_scope", "_graph", "_entries", "g")

    def __init__(self, graph: str, parse: Callable[[str], object]) -> None:
        self._scope = scope = _CURRENT.get()
        self._graph = graph
        self._entries = None
        if scope is not None:
            # Kept graphs are ordered least recently used first.
            entries = self._entries = scope._graphs.pop(graph, None)
            if entries is not None:
                scope._graphs[graph] = entries
        self.g = self.get(("graph",), parse, graph)

    def peek(self, key: tuple):
        """The value built under ``key`` if the scope holds it (a hit,
        counted as one), else ``None``; never builds."""
        entries = self._entries
        entry = entries.get(key) if entries is not None else None
        if entry is None or (entry[1] is None and OBS.enabled):
            return None
        return self.get(key, None)  # a hit: counted, its delta merged

    def get(self, key: tuple, build: Callable[..., T], *args) -> T:
        """``build(*args)``, shared within the scope under ``(graph, key)``."""
        entries = self._entries
        entry = entries.get(key) if entries is not None else None
        # An entry built unobserved (no delta) is rebuilt when observed.
        if entry is not None and (entry[1] is not None or not OBS.enabled):
            value, delta = entry
            if delta and OBS.enabled:
                OBS.metrics.merge(delta)
            self._scope._hits += 1
            return value
        scope = self._scope
        if scope is None:
            return build(*args)
        if OBS.enabled:
            try:
                with observability.captured() as delta:
                    value = build(*args)
            finally:
                if delta:
                    # Counted even if the build raised: its work happened.
                    OBS.metrics.merge(delta)
        else:
            value, delta = build(*args), None
        scope._builds += 1
        # Stored only once built: a build that raises leaves no trace.
        if entries is None:
            entries = self._entries = scope._keep(self._graph)
        entries[key] = (value, delta)
        return value


@contextlib.contextmanager
def reuse(scope: ReuseScope | None = None):
    """Make ``scope`` (a fresh one by default) current while the block
    runs."""
    scope = ReuseScope() if scope is None else scope
    token = _CURRENT.set(scope)
    try:
        yield scope
    finally:
        _CURRENT.reset(token)


_WORKER: tuple[int, ReuseScope] | None = None


def worker_scope() -> ReuseScope:
    """This process's lifetime scope.  Keyed by pid, so a forked child
    starts its own rather than sharing its parent's."""
    global _WORKER
    pid = os.getpid()
    if _WORKER is None or _WORKER[0] != pid:
        _WORKER = (pid, ReuseScope())
    return _WORKER[1]
