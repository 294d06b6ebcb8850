"""Iteration bound of a cyclic data-flow graph.

The *iteration bound* ``B(G) = max_C T(C) / D(C)`` over all cycles ``C``
(``T`` = total computation time on the cycle, ``D`` = total delay count) is
the fundamental lower bound on the average time per loop iteration of any
static schedule.  A schedule is *rate-optimal* when its iteration period
equals ``B(G)``; when ``B(G)`` is non-integral that can only be achieved by
unfolding the loop by a factor ``f`` that makes ``f * B(G)`` integral
(Section 4 of the paper).

Two independent algorithms are provided:

* :func:`iteration_bound` — Howard's policy iteration for the maximum
  cycle ratio (Cochet-Terrasson et al. 1998; Dasdan 2004), in exact
  integer arithmetic over the shared
  :class:`~repro.graph.kernel.EdgeKernel`.  The same run yields the
  witness cycle that :func:`~repro.graph.critical_cycle.critical_cycle`
  returns.  This is the production path.
* :func:`iteration_bound_exhaustive` — direct enumeration of simple cycles
  via networkx; exponential in general, the differential-testing reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..observability import count
from .dfg import DFG, DFGError
from .kernel import shared_kernel

__all__ = [
    "iteration_bound",
    "iteration_bound_exhaustive",
    "minimum_unfolding_for_rate_optimality",
]


def iteration_bound(g: DFG) -> Fraction:
    """Exact iteration bound ``max_C T(C)/D(C)`` as a :class:`Fraction`.

    Returns ``Fraction(0)`` for acyclic graphs (no cycle constrains the
    rate).  Raises :class:`DFGError` if the graph has a zero-delay cycle
    (such graphs have no legal schedule at all).
    """
    return _howard(g)[0]


def _howard(g: DFG) -> tuple[Fraction, list[str]]:
    """``(B(G), C)``: the maximum cycle ratio and a cycle attaining it.

    Multi-chain policy iteration.  A *policy* picks one out-edge per node,
    so following it from any node ends on a policy cycle.  Value
    determination gives each node the ratio ``λ = p/q`` of the cycle it
    reaches and an integer potential ``x`` (scaled by ``q``) with
    ``x(u) = q·t(u) - p·d(e) + x(v)`` along its policy edge ``e``, rooted at
    ``x = 0`` on each cycle's earliest-inserted node.  Improvement first
    moves a node to a successor of larger ``λ``; only when none exists
    does it move a node to an equal-``λ`` successor of larger potential.

    The loop stops when neither move applies.  Then on every edge ``u ->
    v``, ``λ(v) <= λ(u)``, and where they are equal, ``x(u) >= q·t(u) -
    p·d + x(v)``.  Summed around any cycle, ``λ`` is constant and
    ``T(C)/D(C) <= λ``: an exact certificate that the largest policy-cycle
    ratio is ``B(G)``.

    The witness is the policy cycle of ratio ``B(G)`` that holds the
    earliest-inserted node among the tied cycles, rotated to start there.
    Edge scans count as ``kernel.relax_edges``, improvement rounds as
    ``kernel.relax_sweeps``.
    """
    from .validate import validate

    validate(g)
    kernel = shared_kernel(g)
    n = kernel.num_nodes
    times = kernel.times

    # Nodes that reach no cycle cannot lie on one: strip every node whose
    # out-edges all lead to stripped nodes.
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, t, d in zip(kernel.src, kernel.dst, kernel.delay):
        out[s].append((t, d))
        preds[t].append(s)
    live_out = [len(edges) for edges in out]
    alive = [True] * n
    stack = [v for v in range(n) if not live_out[v]]
    while stack:
        v = stack.pop()
        alive[v] = False
        for u in preds[v]:
            live_out[u] -= 1
            if not live_out[u]:
                stack.append(u)
    nodes = [v for v in range(n) if alive[v]]
    if not nodes:
        return Fraction(0), []
    succ = [[e for e in out[u] if alive[e[0]]] if alive[u] else [] for u in range(n)]
    scan = sum(len(succ[u]) for u in nodes)

    # Start from each node's first minimum-delay edge.
    policy = [min(edges, key=lambda e: e[1]) if edges else None for edges in succ]
    sweeps = scanned = 0
    while True:
        sweeps += 1
        # Value determination.
        cycles: list[list[int]] = []
        ratios: list[tuple[int, int]] = []
        cyc = [-1] * n
        x = [0] * n
        walk = [0] * n
        for start in nodes:
            if cyc[start] >= 0:
                continue
            path = []
            u = start
            while not walk[u]:
                walk[u] = start + 1
                path.append(u)
                u = policy[u][0]
            if walk[u] == start + 1 and cyc[u] < 0:
                loop = path[path.index(u):]
                del path[len(path) - len(loop):]
                i = loop.index(min(loop))
                loop = loop[i:] + loop[:i]
                total_t = sum(times[v] for v in loop)
                total_d = sum(policy[v][1] for v in loop)
                k = gcd(total_t, total_d)
                p, q = total_t // k, total_d // k
                c = len(cycles)
                cycles.append(loop)
                ratios.append((p, q))
                cyc[loop[0]] = c
                for v in reversed(loop[1:]):
                    w, d = policy[v]
                    x[v] = q * times[v] - p * d + x[w]
                    cyc[v] = c
            for v in reversed(path):
                w, d = policy[v]
                c = cyc[w]
                p, q = ratios[c]
                x[v] = q * times[v] - p * d + x[w]
                cyc[v] = c

        # Rank the distinct cycle ratios so that improvement compares ints.
        distinct = sorted(set(ratios), key=lambda r: Fraction(*r))
        rank_of = {r: i for i, r in enumerate(distinct)}
        cycle_rank = [rank_of[r] for r in ratios]
        rank = [cycle_rank[c] if c >= 0 else -1 for c in cyc]

        # Improvement: a larger ratio first, then a larger potential.
        changed = False
        for u in nodes:
            best, choice = rank[u], None
            for e in succ[u]:
                if rank[e[0]] > best:
                    best, choice = rank[e[0]], e
            if choice is not None:
                policy[u] = choice
                changed = True
        scanned += scan
        if not changed:
            scanned += scan
            for u in nodes:
                ru = rank[u]
                p, q = ratios[cyc[u]]
                base = q * times[u]
                best, choice = x[u], None
                for e in succ[u]:
                    v, d = e
                    if rank[v] == ru:
                        val = base - p * d + x[v]
                        if val > best:
                            best, choice = val, e
                if choice is not None:
                    policy[u] = choice
                    changed = True
        if not changed:
            break
    count("kernel.relax_edges", scanned)
    count("kernel.relax_sweeps", sweeps)

    top = max(cycle_rank)
    c = min(
        (c for c, r in enumerate(cycle_rank) if r == top),
        key=lambda c: cycles[c][0],
    )
    return Fraction(*ratios[c]), [kernel.names[v] for v in cycles[c]]


def iteration_bound_exhaustive(g: DFG) -> Fraction:
    """Iteration bound via explicit simple-cycle enumeration (networkx).

    Exponential in the worst case; intended for small graphs and as a
    ground-truth oracle in the test-suite.
    """
    import networkx as nx

    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.node_names())
    # Collapse parallel edges to their minimum delay: for maximizing
    # T(C)/D(C), only the smallest-delay parallel edge can be on a critical
    # cycle.
    min_delay: dict[tuple[str, str], int] = {}
    for e in g.edges():
        k = (e.src, e.dst)
        if k not in min_delay or e.delay < min_delay[k]:
            min_delay[k] = e.delay
    for (u, v), d in min_delay.items():
        nxg.add_edge(u, v, delay=d)

    best = Fraction(0)
    found = False
    for cycle in nx.simple_cycles(nxg):
        time = sum(g.node(n).time for n in cycle)
        delay = sum(
            nxg.edges[cycle[i], cycle[(i + 1) % len(cycle)]]["delay"]
            for i in range(len(cycle))
        )
        if delay == 0:
            raise DFGError(f"zero-delay cycle through {sorted(cycle)}")
        ratio = Fraction(time, delay)
        if not found or ratio > best:
            best, found = ratio, True
    return best


def minimum_unfolding_for_rate_optimality(g: DFG, max_factor: int = 64) -> int:
    """Smallest unfolding factor ``f`` with ``f * B(G)`` integral.

    A rate-optimal *integral* cycle period for the unfolded graph requires
    ``f * B(G)`` to be an integer; the smallest such ``f`` is the
    denominator of the iteration bound.  ``max_factor`` guards against
    pathological graphs.
    """
    bound = iteration_bound(g)
    if bound == 0:
        return 1
    f = bound.denominator
    if f > max_factor:
        raise DFGError(
            f"rate-optimality needs unfolding factor {f} > max_factor={max_factor}"
        )
    return f
