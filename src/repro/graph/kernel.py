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
:func:`shared_kernel`, so the flat arrays are extracted once per graph
object.

The kernel is one of several values derived from a graph and shared for
as long as the graph lives: :func:`derived` gives each graph a memo
dict, which also holds its topological order
(:func:`repro.graph.validate.topological_order`), its unfoldings
(:func:`repro.unfolding.unfold.unfold`) and its nodes' instructions
(:func:`repro.codegen.original.compute_for_node`).  The memo is id-keyed
with a weakref guard, like the dispatch compile cache: a recycled
``id()`` can never alias a different graph to stale values, and the
entry dies with its graph.  A graph is mutable only while it is built;
the memo starts afresh if its node or edge count has changed since, so
values derived from a half-built graph are never served for the
finished one.  Derived values are read-only: callers share them and
must never mutate one.
"""

from __future__ import annotations

import weakref

from .dfg import DFG

__all__ = ["EdgeKernel", "derived", "shared_kernel"]


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


#: id(graph) -> (weakref to the graph, (node count, edge count), memo).
_DERIVED: dict[int, tuple[weakref.ref, tuple[int, int], dict]] = {}


def derived(g: DFG) -> dict:
    """The memo of values derived from ``g``, kept while ``g`` lives.

    Keys are namespaced tuples chosen by each derivation (``("kernel",)``,
    ``("unfold", f, name)``, ...).  A stored value must not reference
    ``g`` itself, or the entry would keep its graph alive.  Two threads
    may race to fill one key; both build the same value and the last
    store wins, so a lookup never sees a wrong one.
    """
    key = id(g)
    stamp = (len(g._nodes), len(g._edges))
    entry = _DERIVED.get(key)
    if entry is not None and entry[0]() is g and entry[1] == stamp:
        return entry[2]
    memo: dict = {}
    _DERIVED[key] = (weakref.ref(g, lambda ref, k=key: _drop(k, ref)), stamp, memo)
    return memo


def _drop(key: int, ref: weakref.ref) -> None:
    entry = _DERIVED.get(key)
    if entry is not None and entry[0] is ref:
        _DERIVED.pop(key, None)


def shared_kernel(g: DFG) -> EdgeKernel:
    """The :class:`EdgeKernel` of ``g``, built once per graph (see
    :func:`derived`)."""
    memo = derived(g)
    kernel = memo.get(("kernel",))
    if kernel is None:
        kernel = memo[("kernel",)] = EdgeKernel(g)
    return kernel
