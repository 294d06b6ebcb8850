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

The computation is an all-pairs shortest path over the lexicographic edge
weight ``(d(e), -t(src(e)))`` (Floyd–Warshall), exactly as in the original
retiming paper [Leiserson & Saxe, Algorithmica 1991].

Above :data:`_NUMPY_THRESHOLD` nodes :func:`wd_kernel` runs a packed
numpy Floyd–Warshall over the graph's shared
:class:`~repro.graph.kernel.EdgeKernel`; below it, the tuple-weight python
pass :func:`wd_matrices_python`, which the test-suite pins the packed
sweep against.
"""

from __future__ import annotations

from .dfg import DFG
from .kernel import EdgeKernel, shared_kernel

__all__ = ["wd_kernel", "wd_matrices_python", "distinct_d_values"]

_INF = float("inf")


#: Node count above which the packed numpy Floyd–Warshall is used.
#: Measured crossover (random graphs with |E| ~ 2|V|): the pure-python
#: pass wins below ~60 nodes thanks to its infinity short-circuit; numpy
#: wins 4.5x at 80 nodes and ~15x at 250.  Read at call time, so tests
#: can monkeypatch it to force either branch.
_NUMPY_THRESHOLD = 64


def wd_kernel(
    g: DFG,
) -> tuple[dict[tuple[str, str], int], dict[tuple[str, str], int]]:
    """Compute the ``(W, D)`` matrices of ``g``.

    Returns two dictionaries keyed by ``(u, v)`` node-name pairs; pairs with
    no connecting path are absent.  The diagonal is included with
    ``W(u, u) = 0`` and ``D(u, u) = t(u)`` (the trivial path).  Both
    implementations are exact and cross-checked in the test-suite.
    """
    if g.num_nodes > _NUMPY_THRESHOLD:
        wd = _packed_floyd_warshall(shared_kernel(g))
        if wd is not None:
            return wd
    return wd_matrices_python(g)


def _packed_floyd_warshall(kernel: EdgeKernel):
    """``(W, D)`` via Floyd–Warshall over the packed weight ``delay * K -
    time``, or ``None`` when no safe dtype exists.

    ``K = 2 * total_time + 1`` is tight: any cycle carries at least one
    delay (legal DFGs have no zero-delay cycles), contributing ``K`` to the
    packed weight while removing at most ``total_time < K`` — so optimal
    packed paths are simple, their times are bounded by ``total_time``, and
    integer comparison of packed sums equals lexicographic
    ``(delay, -time)`` comparison.  The tight ``K`` lets 500-node graphs
    run the O(V³) sweep in int32, roughly halving its memory traffic
    against the previous ``total_time * (|V| + 2) + 1`` packing.
    """
    import numpy as np

    nn = kernel.num_nodes
    if nn == 0:
        return ({}, {})
    K = 2 * kernel.total_time + 1
    # Real packed values live in [-total_time, total_delay * K]; INF
    # entries degrade by at most total_time per FW sweep.  Keep both
    # populations a factor 4 from the unreachability threshold INF // 2.
    bound = (kernel.total_delay + 2) * K + kernel.total_time
    degrade = (nn + 2) * kernel.total_time
    for dtype, inf in ((np.int32, 2**30 - 1), (np.int64, 2**61)):
        if bound < inf // 4 and degrade < inf // 4:
            break
    else:
        return None  # pathological magnitudes: fall back to the python pass

    src, dst, delay, src_time, times = kernel.np_arrays()
    dist = np.full((nn, nn), inf, dtype=dtype)
    np.fill_diagonal(dist, 0)  # trivial path: 0 delays, 0 source time
    w = (delay * K - src_time).astype(dtype)
    np.minimum.at(dist, (src.astype(np.intp), dst.astype(np.intp)), w)
    for k in range(nn):
        cand = dist[:, k : k + 1] + dist[k : k + 1, :]
        np.minimum(dist, cand, out=dist)

    reach = dist < inf // 2
    packed = dist.astype(np.int64)
    q, rem = np.divmod(packed, K)
    Wm = q + (rem != 0)
    Dm = (K - rem) % K + times[None, :]
    ii, jj = reach.nonzero()
    names = kernel.names
    pairs = [(names[i], names[j]) for i, j in zip(ii.tolist(), jj.tolist())]
    return (
        dict(zip(pairs, Wm[reach].tolist())),
        dict(zip(pairs, Dm[reach].tolist())),
    )


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


def distinct_d_values(g: DFG) -> list[int]:
    """Sorted distinct values of the ``D`` matrix.

    The minimum achievable cycle period under retiming is always one of
    these values, so they are the binary-search domain of the reference
    optimal retiming search.
    """
    return sorted(set(wd_kernel(g)[1].values()))
