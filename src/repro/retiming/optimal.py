"""Optimal retiming: minimum cycle period via the Leiserson–Saxe reduction.

``retime_for_period(G, c)`` finds a legal retiming with cycle period
``<= c`` by Leiserson–Saxe FEAS over the graph's shared
:class:`~repro.graph.kernel.EdgeKernel`: simulate clock period ``c`` and
pull a delay onto the inputs of every node whose zero-delay completion
time exceeds ``c`` (in this library's sign convention, ``d_r(e(u->v)) =
d(e) + r(u) - r(v)``, that *decrements* ``r(v)``).  Each pass is one Kahn
pass, ``O(|V| + |E|)``, and ``|V| - 1`` decrementing passes suffice.  The
same kernel, ``_feas(kernel, c, f)``, answers retime-then-unfold at
factor ``f`` (:func:`repro.unfolding.orders.retime_unfold_for_period`)
and, with nodes held to equal values in groups, the register-constrained
searches of :mod:`repro.core.partial`.

Its reference, ``_retime_for_period_reference``, solves by Bellman–Ford
the difference constraints, after the ``O(|V|³)`` ``W``/``D`` build,

* ``r(v) - r(u) <= d(e)``          for every edge ``e(u -> v)`` (legality),
* ``r(v) - r(u) <= W(u, v) - 1``   for every pair with ``D(u, v) > c``
  (every minimum-delay ``u -> v`` path longer than ``c`` keeps a delay).

Both return the greatest non-positive solution of that system, so their
normalized witnesses are equal (``docs/THEORY.md`` §2 has the argument;
``tests/retiming/test_optimal.py`` pins it).

``minimize_cycle_period(G)`` binary-searches the integer ``c`` in ``[max
t(v), Phi(G)]`` with FEAS probes (``_least_feasible``, which ``retime_unfold``
shares) and returns the minimum period with a *normalized* witness.
"""

from __future__ import annotations

from ..graph.dfg import DFG, DFGError
from ..graph.kernel import EdgeKernel, shared_kernel
from ..graph.period import cycle_period
from ..graph.wd import wd_kernel
from ..observability import count, span
from .constraints import DifferenceConstraints
from .function import Retiming

__all__ = [
    "retime_for_period",
    "minimize_cycle_period",
    "minimum_cycle_period",
    "period_bounds",
    "solve_retiming",
]


def retime_for_period(g: DFG, c: int) -> Retiming | None:
    """A normalized legal retiming of ``g`` with cycle period ``<= c``,
    or ``None`` if none exists.

    Nodes with computation time ``t(v) > c`` make any period ``<= c``
    impossible regardless of retiming; that case returns ``None``
    immediately.  The witness is self-checked: it is re-applied and its
    cycle period recomputed.
    """
    count("retiming.feasibility_checks")
    r = _feas_retiming(g, c)
    # ``apply`` raises on an illegal witness.
    assert r is None or cycle_period(r.apply()) <= c, "internal error: FEAS witness too slow"
    return r


def _feas_retiming(
    g: DFG, c: int, f: int = 1, groups: dict[str, int] | None = None
) -> Retiming | None:
    """:func:`_feas` on ``g``'s shared kernel, as a normalized retiming;
    ``groups`` maps every node to its group id."""
    kernel = shared_kernel(g)
    values = _feas(kernel, c, f, None if groups is None else [groups[v] for v in kernel.names])
    if values is None:
        return None
    return Retiming(g, dict(zip(kernel.names, values))).normalized()


def _least_feasible(lo: int, hi: int, probe) -> tuple[int, Retiming, int]:
    """Binary-search the least ``c`` in ``[lo, hi]`` whose ``probe(c)``
    returns a witness; ``probe(hi)`` must.  Returns ``(c, witness,
    probes run)``.  Feasibility must be monotone in ``c``."""
    best: tuple[int, Retiming] | None = None
    iterations = 0
    while lo <= hi:
        iterations += 1
        mid = (lo + hi) // 2
        r = probe(mid)
        if r is None:
            lo = mid + 1
        else:
            best, hi = (mid, r), mid - 1
    assert best is not None, "internal error: the upper bound is infeasible"
    return (*best, iterations)


def _feas(
    kernel: EdgeKernel, c: int, f: int = 1, groups: list[int] | None = None
) -> list[int] | None:
    """FEAS retiming values in :attr:`EdgeKernel.names` order with
    ``Phi(unfold(G_r, f)) <= c``, or ``None``.

    Each pass works on ``G_r`` as it stands at the pass's start.  For
    ``k = 0 .. f - 1`` it computes ``Delta_k(v)``, the longest time of a
    walk ending at ``v`` with retimed delay exactly ``k`` (nodes visited
    in zero-delay topological order), then lowers every ``v`` by ``f - k``
    for the least ``k`` with ``Delta_k(v) > c``.  Each lowering is forced
    and keeps the retiming legal; a pass that lowers nothing proves ``c``
    feasible, and pass ``|V|`` still lowering proves it infeasible
    (``docs/THEORY.md`` §4).  At ``f = 1`` this is Leiserson–Saxe FEAS.

    With ``groups`` (a group id per node, in the same order) the nodes of
    a group must share one value: after its drops, a pass lowers every
    group to its minimum and every edge's head to ``r(s) + d``, until
    nothing moves.  Those lowerings are forced too, and the same bound
    holds (``docs/THEORY.md`` §4, "Equal-value groups").
    """
    n = kernel.num_nodes
    times = kernel.times
    if any(t > c for t in times):
        return None
    edges = list(zip(kernel.src, kernel.dst, kernel.delay))
    r = [0] * n
    for passes in range(1, n + 1):
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for s, t, d in edges:
            if d + r[s] == r[t]:
                succ[s].append(t)
                indeg[t] += 1
        # k = 0, visiting in Kahn order: ``finish[v]`` holds v's latest
        # start until v is visited, then its finish.
        finish = [0] * n
        drop = [0] * n
        order = [v for v in range(n) if not indeg[v]]
        for u in order:
            done = finish[u] + times[u]
            finish[u] = done
            if done > c:
                drop[u] = f
            for t in succ[u]:
                if done > finish[t]:
                    finish[t] = done
                indeg[t] -= 1
                if not indeg[t]:
                    order.append(t)
        if f > 1:
            # Per node, its in-edges ``(u, j)`` with retimed delay 0 < j < f.
            delayed: list[list[tuple[int, int]]] = [[] for _ in range(n)]
            for s, t, d in edges:
                j = d + r[s] - r[t]
                if 0 < j < f:
                    delayed[t].append((s, j))
            layers = [finish]
            for k in range(1, f):
                finish = [-1] * n  # -1: no walk of retimed delay k ends here
                for u in order:
                    start = finish[u]
                    for s, j in delayed[u]:
                        if j <= k and layers[k - j][s] > start:
                            start = layers[k - j][s]
                    if start < 0:
                        continue
                    done = start + times[u]
                    finish[u] = done
                    if done > c and not drop[u]:
                        drop[u] = f - k
                    for t in succ[u]:
                        if done > finish[t]:
                            finish[t] = done
                layers.append(finish)
        if not any(drop):
            count("retiming.feas.passes", passes)
            return r
        r = [rv - dv for rv, dv in zip(r, drop)]
        moved = groups is not None
        while moved:
            # Group equality and legality rows weigh 0 and d >= 0, so
            # lowering to their fixpoint terminates.
            low: dict[int, int] = {}
            for rv, gid in zip(r, groups):
                low[gid] = min(low.get(gid, rv), rv)
            r = [low[gid] for gid in groups]
            moved = False
            for s, t, d in edges:
                if r[t] > r[s] + d:
                    r[t], moved = r[s] + d, True
    count("retiming.feas.passes", n)
    return None


def _retime_for_period_reference(g: DFG, c: int) -> Retiming | None:
    """:func:`retime_for_period` by the ``W``/``D`` difference-constraint
    solve: the reference of the FEAS fast path, with the same witness."""
    count("retiming.feasibility_checks")
    if any(v.time > c for v in g.nodes()):
        return None
    r = solve_retiming(g, period_bounds(*wd_kernel(g), c))
    assert r is None or cycle_period(r.apply()) <= c, (
        "internal error: LS reduction violated"
    )
    return r


def period_bounds(W, D, c: int) -> list[tuple[str, str, int]]:
    """The Leiserson–Saxe period-``c`` constraints ``r(v) - r(u) <=
    W(u, v) - 1`` for every pair with ``D(u, v) > c``, as ``(v, u, k)``."""
    return [(v, u, W[(u, v)] - 1) for (u, v), d in D.items() if d > c]


def solve_retiming(g: DFG, bounds) -> Retiming | None:
    """The normalized greatest solution of legality (``r(v) - r(u) <=
    d(e)`` per edge) plus ``bounds``, whose ``(a, b, k)`` means ``r(a) -
    r(b) <= k``; ``None`` if that system is infeasible."""
    system = DifferenceConstraints()
    for n in g.node_names():
        system.add_variable(n)
    for e in g.edges():
        system.add(e.dst, e.src, e.delay)
    for a, b, k in bounds:
        system.add(a, b, k)
    solution = system.solve()
    if solution is None:
        return None
    return Retiming(g, {n: int(val) for n, val in solution.items()}).normalized()


def minimize_cycle_period(g: DFG) -> tuple[int, Retiming]:
    """The minimum cycle period achievable by retiming, with a witness.

    Binary-searches the integer ``c`` in ``[max t(v), Phi(G)]`` with FEAS
    (the zero retiming meets ``Phi(G)``).  The least feasible integer is
    the optimum, and FEAS's witness there is the reference's
    (``docs/THEORY.md`` §2).  The returned retiming is normalized.
    """
    if not g.num_nodes:
        raise DFGError("graph has no nodes")
    with span("retiming.minimize", graph=g.name, nodes=g.num_nodes) as sp:
        c, r, iterations = _least_feasible(
            max(shared_kernel(g).times), cycle_period(g), lambda c: _feas_retiming(g, c)
        )
        sp.set(period=c, iterations=iterations)
    count("retiming.iterations", iterations)
    return c, r


def minimum_cycle_period(g: DFG) -> int:
    """Just the minimum achievable cycle period (no witness)."""
    return minimize_cycle_period(g)[0]
