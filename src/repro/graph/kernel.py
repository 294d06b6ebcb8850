"""Flat index-array adjacency kernel shared by the parametric hot paths.

The iteration-bound oracle and FEAS run relaxation passes over the same
graph many times, varying only the edge weights or the period between
probes.  Touching :class:`~repro.graph.dfg.DFG` objects inside those
inner loops — ``g.node(e.src).time``, attribute
lookups on :class:`~repro.graph.dfg.Edge` — costs far more than the integer
arithmetic itself.  An :class:`EdgeKernel` extracts the graph once into
parallel flat lists indexed by small integers so that a probe is a pure
``zip``-driven integer loop; :meth:`EdgeKernel.np_arrays` exposes the same
layout as numpy arrays for the vectorized relaxation and the packed
(W, D) build.

One kernel per graph is enough for every consumer — the (W, D) builder,
FEAS and the iteration-bound search all share the snapshot through
:func:`shared_kernel` (id-keyed with a weakref guard, like the dispatch
compile cache), so the flat arrays are extracted exactly once per graph
object.

The kernel is a snapshot: it does not track later mutations of the source
graph.  Build it after the graph is final (which is how every algorithm in
this library treats its input).
"""

from __future__ import annotations

import threading
import weakref

from ..observability import count
from .dfg import DFG

__all__ = ["EdgeKernel", "shared_kernel"]


#: Edge count above which :meth:`EdgeKernel.has_positive_cycle` uses the
#: vectorized numpy relaxation.  Read at call time, so tests can
#: monkeypatch it to force either branch.
_NUMPY_THRESHOLD = 256


class EdgeKernel:
    """Index-array snapshot of a DFG's nodes and edges.

    Attributes
    ----------
    names:
        Node names in insertion order; position is the node's index.
    times:
        ``times[i]`` is the computation time of node ``i``.
    src, dst, delay, src_time:
        Parallel per-edge lists: endpoint indices, edge delay, and the
        (precomputed) computation time of the source node.
    """

    __slots__ = (
        "names",
        "num_nodes",
        "num_edges",
        "times",
        "src",
        "dst",
        "delay",
        "src_time",
        "total_time",
        "total_delay",
        "_np_arrays",
        "__weakref__",
    )

    def __init__(self, g: DFG) -> None:
        names = g.node_names()
        index = {n: i for i, n in enumerate(names)}
        times = [g.node(n).time for n in names]
        src: list[int] = []
        dst: list[int] = []
        delay: list[int] = []
        src_time: list[int] = []
        for e in g.edges():
            s = index[e.src]
            src.append(s)
            dst.append(index[e.dst])
            delay.append(e.delay)
            src_time.append(times[s])
        self.names = names
        self.num_nodes = len(names)
        self.num_edges = len(src)
        self.times = times
        self.src = src
        self.dst = dst
        self.delay = delay
        self.src_time = src_time
        self.total_time = sum(times)
        self.total_delay = sum(delay)
        self._np_arrays = None

    def np_arrays(self):
        """The edge layout as numpy int64 arrays, built lazily once.

        Returns ``(src, dst, delay, src_time, times)``.  Empty graphs get
        zero-length arrays (callers guard on :attr:`num_edges`).
        """
        if self._np_arrays is None:
            import numpy as np

            self._np_arrays = (
                np.array(self.src, dtype=np.int64),
                np.array(self.dst, dtype=np.int64),
                np.array(self.delay, dtype=np.int64),
                np.array(self.src_time, dtype=np.int64),
                np.array(self.times, dtype=np.int64),
            )
        return self._np_arrays

    def weighted_edges(self, p: int, q: int) -> list[tuple[int, int, int]]:
        """Per-edge integer weights ``q * t(src) - p * d`` for ``λ = p/q``.

        The weight sum of any cycle is then ``q * T(C) - p * D(C)``, whose
        sign against zero compares ``T(C)/D(C)`` with ``p/q`` exactly — no
        rational arithmetic inside relaxation loops.
        """
        return [
            (s, t, q * st - p * d)
            for s, t, st, d in zip(self.src, self.dst, self.src_time, self.delay)
        ]

    def has_positive_cycle(self, p: int, q: int, strict: bool = True) -> bool:
        """Whether a cycle with ``q*T(C) - p*D(C) > 0`` (``>= 0`` when not
        ``strict``) exists, by exact integer Bellman–Ford.

        The non-strict test scales every weight by ``num_nodes + 1`` and adds
        1 per edge: a simple cycle has at most ``num_nodes`` edges, so a
        cycle of original weight ``>= 0`` becomes strictly positive while a
        cycle of weight ``<= -1`` stays strictly negative — an exact
        encoding, unlike epsilon perturbation over rationals.

        Above :data:`_NUMPY_THRESHOLD` edges the relaxation runs as
        vectorized scatter-max passes over the flat arrays (provided int64
        distances cannot overflow); both backends converge to the same
        longest-path fixpoint and emit the same divergence verdict.
        """
        if self.num_edges > _NUMPY_THRESHOLD:
            scale = 1 if strict else self.num_nodes + 1
            weights = (
                q * st - p * d
                for st, d in zip(self.src_time, self.delay)
            )
            max_w = max((abs(w) * scale + 1 for w in weights), default=0)
            # Distances are bounded by passes * max|w|; require int64 slack.
            if (self.num_nodes + 2) * max_w < 2**60:
                return self._has_positive_cycle_numpy(p, q, strict)
        edges = self.weighted_edges(p, q)
        if not strict:
            m = self.num_nodes + 1
            edges = [(s, t, w * m + 1) for (s, t, w) in edges]
        return _longest_path_diverges(edges, self.num_nodes)

    def _has_positive_cycle_numpy(self, p: int, q: int, strict: bool) -> bool:
        """Vectorized longest-path divergence over the flat edge arrays."""
        import numpy as np

        src, dst, delay, src_time, _times = self.np_arrays()
        w = q * src_time - p * delay
        if not strict:
            w = w * (self.num_nodes + 1) + 1
        n = self.num_nodes
        dist = np.zeros(n, dtype=np.int64)
        passes = 0
        diverges = False
        for _ in range(max(0, n - 1)):
            passes += 1
            before = dist.copy()
            np.maximum.at(dist, dst, before[src] + w)
            if np.array_equal(dist, before):
                break
        else:
            passes += 1
            if bool(np.any(dist[src] + w > dist[dst])):
                diverges = True
        count("kernel.relax_edges", passes * self.num_edges)
        count("kernel.relax_sweeps", passes)
        return diverges


_SHARED: dict[int, EdgeKernel] = {}
_SHARED_LOCK = threading.Lock()


def shared_kernel(g: DFG) -> EdgeKernel:
    """The process-wide :class:`EdgeKernel` of ``g``, built once per graph.

    Id-keyed with a weakref guard (the pattern of
    :func:`repro.machine.dispatch.compile_program`): a recycled ``id()``
    after garbage collection can never alias a different graph to a stale
    kernel, and entries die with their graph.
    """
    key = id(g)
    kernel = _SHARED.get(key)
    if kernel is not None and _valid(kernel, g):
        return kernel
    with _SHARED_LOCK:
        kernel = _SHARED.get(key)
        if kernel is not None and _valid(kernel, g):
            return kernel
        kernel = EdgeKernel(g)
        _SHARED[key] = kernel
        _guards[key] = weakref.ref(g, lambda _ref, k=key: _drop(k))
    return kernel


_guards: dict[int, weakref.ref] = {}


def _valid(kernel: EdgeKernel, g: DFG) -> bool:
    guard = _guards.get(id(g))
    return guard is not None and guard() is g


def _drop(key: int) -> None:
    _SHARED.pop(key, None)
    _guards.pop(key, None)


def _longest_path_diverges(edges: list[tuple[int, int, int]], n: int) -> bool:
    """Longest-path relaxation from a virtual super-source over all nodes;
    ``True`` iff relaxation still improves after ``n - 1`` passes (a strictly
    positive cycle exists)."""
    dist = [0] * n
    passes = 0
    diverges = False
    for _ in range(n - 1):
        passes += 1
        changed = False
        for s, t, w in edges:
            cand = dist[s] + w
            if cand > dist[t]:
                dist[t] = cand
                changed = True
        if not changed:
            break
    else:
        passes += 1
        for s, t, w in edges:
            if dist[s] + w > dist[t]:
                diverges = True
                break
    count("kernel.relax_edges", passes * len(edges))
    count("kernel.relax_sweeps", passes)
    return diverges
