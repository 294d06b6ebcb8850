"""Leiserson–Saxe ``W``/``D`` matrices for retiming feasibility.

For an ordered node pair ``(u, v)`` connected by at least one path,

* ``W(u, v)`` is the minimum total delay over all paths ``u -> v``;
* ``D(u, v)`` is the maximum total *computation time* (including both
  endpoints) among the minimum-delay paths.

These matrices reduce "can ``G`` be retimed to cycle period ``<= c``?" to a
system of difference constraints (see :mod:`repro.retiming.optimal`): a
retiming pushes ``r(u) - r(v)`` extra delays onto every ``u -> v`` path (in
this paper's sign convention ``d_r(e(u->v)) = d(e) + r(u) - r(v)``), so a
pair with ``D(u, v) > c`` must retain at least one delay on all its
minimum-delay paths.

:func:`wd_kernel` runs one Dijkstra on delays per source.  A minimum-delay
path is made of *tight* edges (``W(s, u) + d(e) = W(s, v)``), and the tight
edges are acyclic in ``(W, zero-delay topological index)`` order — a tight
cycle would be a zero-delay cycle — so the longest-time pass that gives
``D`` rides along in the Dijkstra's pop order.  Its reference,
:func:`wd_matrices_python`, is the all-pairs shortest path over the
lexicographic edge weight ``(d(e), -t(src(e)))`` (Floyd–Warshall), exactly
as in the original retiming paper [Leiserson & Saxe, Algorithmica 1991];
the test-suite pins the two against each other.
"""

from __future__ import annotations

import heapq

from .dfg import DFG
from .kernel import shared_kernel
from .validate import topological_order

__all__ = ["wd_kernel", "wd_matrices_python"]

_INF = float("inf")


def wd_kernel(
    g: DFG,
) -> tuple[dict[tuple[str, str], int], dict[tuple[str, str], int]]:
    """Compute the ``(W, D)`` matrices of ``g``.

    Returns two dictionaries keyed by ``(u, v)`` node-name pairs; pairs with
    no connecting path are absent.  The diagonal is included with
    ``W(u, u) = 0`` and ``D(u, u) = t(u)`` (the trivial path).  Raises
    :class:`~repro.graph.dfg.DFGError` on a zero-delay cycle.
    """
    kernel = shared_kernel(g)
    names = kernel.names
    times = kernel.times
    n = kernel.num_nodes
    index = {name: i for i, name in enumerate(names)}
    topo = [0] * n
    for i, name in enumerate(topological_order(g)):
        topo[index[name]] = i
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, t, d in zip(kernel.src, kernel.dst, kernel.delay):
        out[s].append((t, d))

    W: dict[tuple[str, str], int] = {}
    D: dict[tuple[str, str], int] = {}
    for s in range(n):
        # dist[v]: the least delay found so far.  reach[v]: the most time
        # over the tight paths into v without t(v), until v is popped;
        # D(s, v) after.
        dist = [None] * n
        reach = [0] * n
        done = [False] * n
        dist[s] = 0
        heap = [(0, topo[s], s)]
        while heap:
            w, _, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            # Every tight edge into u left a node popped before u.
            time = reach[u] + times[u]
            reach[u] = time
            for v, d in out[u]:
                cand = w + d
                if dist[v] is None or cand < dist[v]:
                    dist[v] = cand
                    reach[v] = time
                    heapq.heappush(heap, (cand, topo[v], v))
                elif cand == dist[v] and time > reach[v]:
                    reach[v] = time
        source = names[s]
        for v in range(n):
            if done[v]:
                pair = (source, names[v])
                W[pair] = dist[v]
                D[pair] = reach[v]
    return W, D


def wd_matrices_python(
    g: DFG,
) -> tuple[dict[tuple[str, str], int], dict[tuple[str, str], int]]:
    """Pure-python reference implementation (tuple-weight Floyd–Warshall)."""
    names = g.node_names()
    # dist[u][v] = (min path delay, -max time among min-delay paths),
    # where "time" counts source nodes along the path (t(v) added at the end).
    dist: dict[str, dict[str, tuple[float, float]]] = {
        u: {v: (_INF, _INF) for v in names} for u in names
    }
    for u in names:
        dist[u][u] = (0, -0)
    for e in g.edges():
        w = (e.delay, -g.node(e.src).time)
        if w < dist[e.src][e.dst]:
            dist[e.src][e.dst] = w

    for k in names:
        dk = dist[k]
        for i in names:
            dik = dist[i][k]
            if dik[0] is _INF:
                continue
            di = dist[i]
            for j in names:
                dkj = dk[j]
                if dkj[0] is _INF:
                    continue
                cand = (dik[0] + dkj[0], dik[1] + dkj[1])
                if cand < di[j]:
                    di[j] = cand

    W: dict[tuple[str, str], int] = {}
    D: dict[tuple[str, str], int] = {}
    for u in names:
        for v in names:
            delay, neg_time = dist[u][v]
            if delay is _INF:
                continue
            W[(u, v)] = int(delay)
            D[(u, v)] = int(-neg_time) + g.node(v).time
    return W, D

