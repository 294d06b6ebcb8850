"""Structural validation of data-flow graphs.

A DFG is a *legal loop body* when

1. every edge delay is non-negative (guaranteed by construction),
2. the zero-delay subgraph is acyclic — otherwise an iteration would depend
   on its own results and no static schedule exists, and
3. node computation times are positive (guaranteed by construction).

:func:`validate` checks the non-constructive invariants and raises
:class:`~repro.graph.dfg.DFGError` with a precise message on violation.
:func:`topological_order` returns a deterministic topological order of the
zero-delay subgraph — the canonical *intra-iteration execution order* used
by all code generators in :mod:`repro.codegen`.
"""

from __future__ import annotations

import heapq

from .dfg import DFG, DFGError
from .kernel import derived

__all__ = ["validate", "topological_order", "is_valid"]


def topological_order(g: DFG) -> list[str]:
    """Topological order of nodes w.r.t. zero-delay edges.

    Ties are broken by node insertion order, so the result is deterministic
    for a given graph.  Raises :class:`DFGError` if the zero-delay subgraph
    contains a cycle (the graph is then not schedulable).

    Computed once per graph (:func:`repro.graph.kernel.derived`); each call
    returns a fresh list.
    """
    memo = derived(g)
    order = memo.get(("topological_order",))
    if order is None:
        order = memo[("topological_order",)] = tuple(_kahn(g))
    return list(order)


def _kahn(g: DFG) -> list[str]:
    names = g.node_names()
    position = {n: i for i, n in enumerate(names)}
    indeg = [0] * len(names)
    succs: list[list[int]] = [[] for _ in names]
    for e in g.zero_delay_edges():
        v = position[e.dst]
        indeg[v] += 1
        succs[position[e.src]].append(v)

    # Kahn's algorithm, always taking the ready node inserted first.
    ready = [i for i, d in enumerate(indeg) if not d]
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(names[i])
        for v in succs[i]:
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, v)
    if len(order) != g.num_nodes:
        cyclic = sorted(set(names) - set(order))
        raise DFGError(f"zero-delay cycle through nodes {cyclic}")
    return order


def validate(g: DFG) -> None:
    """Check that ``g`` is a legal loop body; raise :class:`DFGError` if not."""
    if g.num_nodes == 0:
        raise DFGError("graph has no nodes")
    topological_order(g)  # raises on zero-delay cycles


def is_valid(g: DFG) -> bool:
    """Boolean form of :func:`validate`."""
    try:
        validate(g)
    except DFGError:
        return False
    return True
