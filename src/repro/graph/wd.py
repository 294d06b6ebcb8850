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

Two representations are available:

* :func:`wd_matrices` returns the classic pair-keyed dictionaries — the
  API every existing caller uses;
* :func:`wd_kernel` returns a :class:`WDKernel`: the same data kept as
  flat numpy matrices over the graph's shared
  :class:`~repro.graph.kernel.EdgeKernel`, with the dictionaries
  materialized lazily on first access.  The probe loops of the
  incremental feasibility solver consume the matrices directly, so the
  hot path never pays the O(V²) python dict construction.
"""

from __future__ import annotations

from .dfg import DFG
from .kernel import EdgeKernel, shared_kernel

__all__ = ["WDKernel", "wd_kernel", "wd_matrices", "wd_matrices_python", "distinct_d_values"]

_INF = float("inf")


#: Node count above which the packed numpy Floyd–Warshall is used.
#: Measured crossover (random graphs with |E| ~ 2|V|): the pure-python
#: pass wins below ~60 nodes thanks to its infinity short-circuit; numpy
#: wins 4.5x at 80 nodes and ~15x at 250.  Read at call time, so tests
#: can monkeypatch it to force either branch.
_NUMPY_THRESHOLD = 64


class WDKernel:
    """Shared ``(W, D)`` state of one graph, matrices first.

    Holds the graph's :class:`EdgeKernel` plus the ``W``/``D`` data as
    dense int64 matrices (``reach`` masking connected pairs).  Either side
    — matrices or pair-keyed dicts — is derived lazily from whichever one
    the constructor received, and cached, so long-lived holders (the
    request server's warm pool) pay each materialization at most once.

    Iterating a :class:`WDKernel` yields ``W`` then ``D``, so
    ``W, D = wd_kernel(g)`` unpacks exactly like the classic
    :func:`wd_matrices` tuple.
    """

    __slots__ = ("kernel", "_matrices", "_dicts", "_d_values")

    def __init__(self, kernel: EdgeKernel, *, matrices=None, dicts=None) -> None:
        if matrices is None and dicts is None:
            raise ValueError("WDKernel needs matrices or dicts")
        self.kernel = kernel
        self._matrices = matrices  # (Wm, Dm, reach) int64/bool numpy arrays
        self._dicts = dicts  # (W, D) pair-keyed dictionaries
        self._d_values: list[int] | None = None

    @property
    def W(self) -> dict[tuple[str, str], int]:
        return self._materialize_dicts()[0]

    @property
    def D(self) -> dict[tuple[str, str], int]:
        return self._materialize_dicts()[1]

    def __iter__(self):
        W, D = self._materialize_dicts()
        yield W
        yield D

    def matrices(self):
        """``(Wm, Dm, reach)`` — int64 matrices plus the reachability mask."""
        if self._matrices is None:
            import numpy as np

            index = self.kernel.index
            nn = self.kernel.num_nodes
            Wm = np.zeros((nn, nn), dtype=np.int64)
            Dm = np.zeros((nn, nn), dtype=np.int64)
            reach = np.zeros((nn, nn), dtype=bool)
            W, D = self._dicts
            for (u, v), w in W.items():
                i, j = index[u], index[v]
                Wm[i, j] = w
                Dm[i, j] = D[(u, v)]
                reach[i, j] = True
            self._matrices = (Wm, Dm, reach)
        return self._matrices

    def d_values(self) -> list[int]:
        """Sorted distinct values of ``D`` (the binary-search domain)."""
        if self._d_values is None:
            if self._dicts is not None:
                self._d_values = sorted(set(self._dicts[1].values()))
            else:
                import numpy as np

                _Wm, Dm, reach = self._matrices
                self._d_values = [int(v) for v in np.unique(Dm[reach])]
        return self._d_values

    def _materialize_dicts(self):
        if self._dicts is None:
            Wm, Dm, reach = self._matrices
            names = self.kernel.names
            ii, jj = reach.nonzero()
            pairs = [
                (names[i], names[j])
                for i, j in zip(ii.tolist(), jj.tolist())
            ]
            self._dicts = (
                dict(zip(pairs, Wm[reach].tolist())),
                dict(zip(pairs, Dm[reach].tolist())),
            )
        return self._dicts


def wd_kernel(g: DFG) -> WDKernel:
    """The :class:`WDKernel` of ``g``, built over its shared edge kernel.

    Dispatches exactly like :func:`wd_matrices`: the packed Floyd–Warshall
    above :data:`_NUMPY_THRESHOLD` nodes (matrices native, dicts lazy),
    the tuple-weight python pass below it (dicts native, matrices lazy).
    The python pass is the reference the test-suite pins the packed
    sweep against.
    """
    kernel = shared_kernel(g)
    if g.num_nodes > _NUMPY_THRESHOLD:
        matrices = _packed_floyd_warshall(kernel)
        if matrices is not None:
            return WDKernel(kernel, matrices=matrices)
    return WDKernel(kernel, dicts=wd_matrices_python(g))


def wd_matrices(g: DFG) -> tuple[dict[tuple[str, str], int], dict[tuple[str, str], int]]:
    """Compute the ``(W, D)`` matrices of ``g``.

    Returns two dictionaries keyed by ``(u, v)`` node-name pairs; pairs with
    no connecting path are absent.  The diagonal is included with
    ``W(u, u) = 0`` and ``D(u, u) = t(u)`` (the trivial path).  Dispatches
    to a vectorized implementation for larger graphs; both paths are exact
    and cross-checked in the test-suite.
    """
    wdk = wd_kernel(g)
    return (wdk.W, wdk.D)


def _packed_floyd_warshall(kernel: EdgeKernel):
    """``(Wm, Dm, reach)`` via Floyd–Warshall over the packed weight
    ``delay * K - time``, or ``None`` when no safe dtype exists.

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
        z = np.zeros((0, 0), dtype=np.int64)
        return (z, z.copy(), z.astype(bool))
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
        return None  # pathological magnitudes: fall back to python dicts

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
    Wm[~reach] = 0
    Dm[~reach] = 0
    return (Wm, Dm, reach)


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
    these values, so they are the binary-search domain of the optimal
    retiming algorithm.
    """
    return wd_kernel(g).d_values()
