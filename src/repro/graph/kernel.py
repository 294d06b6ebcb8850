"""Flat index-array adjacency kernel shared by the graph hot paths.

FEAS runs Kahn passes over the same graph many times, varying only the
retiming between passes; the iteration bound's policy iteration and the
``W``/``D`` build scan every edge of it too.  Touching
:class:`~repro.graph.dfg.DFG` objects inside those inner loops —
``g.node(e.src).time``, attribute lookups on
:class:`~repro.graph.dfg.Edge` — costs far more than the integer
arithmetic itself.  An :class:`EdgeKernel` extracts the graph once into
parallel flat lists indexed by small integers so that a pass is a pure
``zip``-driven integer loop.

One kernel per graph is enough for every consumer — FEAS, the iteration
bound and the (W, D) builder all share the snapshot through
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

from .dfg import DFG

__all__ = ["EdgeKernel", "shared_kernel"]


class EdgeKernel:
    """Index-array snapshot of a DFG's nodes and edges.

    Attributes
    ----------
    names:
        Node names in insertion order; position is the node's index.
    times:
        ``times[i]`` is the computation time of node ``i``.
    src, dst, delay:
        Parallel per-edge lists: endpoint indices and edge delay.
    """

    __slots__ = (
        "names",
        "num_nodes",
        "times",
        "src",
        "dst",
        "delay",
        "__weakref__",
    )

    def __init__(self, g: DFG) -> None:
        names = g.node_names()
        index = {n: i for i, n in enumerate(names)}
        src: list[int] = []
        dst: list[int] = []
        delay: list[int] = []
        for e in g.edges():
            src.append(index[e.src])
            dst.append(index[e.dst])
            delay.append(e.delay)
        self.names = names
        self.num_nodes = len(names)
        self.times = [g.node(n).time for n in names]
        self.src = src
        self.dst = dst
        self.delay = delay


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
