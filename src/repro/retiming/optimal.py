"""Optimal retiming: minimum cycle period via the Leiserson–Saxe reduction.

``retime_for_period(G, c)`` finds a legal retiming with cycle period
``<= c`` by Leiserson–Saxe FEAS over the graph's shared
:class:`~repro.graph.kernel.EdgeKernel`: simulate clock period ``c`` and
pull a delay onto the inputs of every node whose zero-delay completion
time exceeds ``c`` (in this library's sign convention, ``d_r(e(u->v)) =
d(e) + r(u) - r(v)``, that *decrements* ``r(v)``).  Each pass is one Kahn
pass, ``O(|V| + |E|)``, and ``|V| - 1`` decrementing passes suffice.

Its reference, ``_retime_for_period_reference``, solves by Bellman–Ford
the difference constraints, after the ``O(|V|³)`` ``W``/``D`` build,

* ``r(v) - r(u) <= d(e)``          for every edge ``e(u -> v)`` (legality),
* ``r(v) - r(u) <= W(u, v) - 1``   for every pair with ``D(u, v) > c``
  (every minimum-delay ``u -> v`` path longer than ``c`` keeps a delay).

Both return the greatest non-positive solution of that system, so their
normalized witnesses are equal (``docs/THEORY.md`` §2 has the argument;
``tests/retiming/test_optimal.py`` pins it).

``minimize_cycle_period(G)`` binary-searches the sorted distinct values of
the ``D`` matrix — the optimum is always one of them — and returns the
minimum period with a witnessing *normalized* retiming.  Both search
strategies return the same period and witness (pinned by the tests):

``method="incremental"`` (default)
    Compute ``(W, D)`` once, then drive the binary search through the
    warm-started :class:`~repro.retiming.incremental.IncrementalFeasibility`
    solver, which exploits that the per-probe constraint systems are nested
    in ``c``.  The asymptotically and practically fastest path.
``method="reference"``
    Every probe is a fresh ``_retime_for_period_reference``: ``(W, D)``
    rebuilt, the system solved, the witness self-verified.  Kept as the
    differential-testing reference and benchmark baseline.
"""

from __future__ import annotations

from ..graph.dfg import DFG, DFGError
from ..graph.kernel import EdgeKernel, shared_kernel
from ..graph.period import cycle_period
from ..graph.wd import WDKernel, wd_kernel
from ..observability import count, span
from .constraints import DifferenceConstraints
from .function import Retiming
from .incremental import IncrementalFeasibility

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
    if any(v.time > c for v in g.nodes()):
        return None

    kernel = shared_kernel(g)
    values = _feas(kernel, c)
    if values is None:
        return None
    r = Retiming(g, dict(zip(kernel.names, values))).normalized()
    # ``apply`` raises on an illegal witness.
    assert cycle_period(r.apply()) <= c, "internal error: FEAS witness too slow"
    return r


def _feas(kernel: EdgeKernel, c: int) -> list[int] | None:
    """FEAS retiming values in :attr:`EdgeKernel.names` order, or ``None``.

    A decremented node's zero-delay successors finish later still, so they
    are decremented with it and the retiming stays legal.  A pass with no
    decrement proves period ``<= c``; one still decrementing after
    ``|V| - 1`` decrementing passes proves ``c`` infeasible.
    """
    n = kernel.num_nodes
    times = kernel.times
    edges = list(zip(kernel.src, kernel.dst, kernel.delay))
    r = [0] * n
    for passes in range(1, n + 1):
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for s, t, d in edges:
            if d + r[s] == r[t]:
                succ[s].append(t)
                indeg[t] += 1
        start = [0] * n
        ready = [v for v in range(n) if not indeg[v]]
        feasible = True
        while ready:
            u = ready.pop()
            finish = start[u] + times[u]
            if finish > c:
                r[u] -= 1
                feasible = False
            for t in succ[u]:
                if finish > start[t]:
                    start[t] = finish
                indeg[t] -= 1
                if not indeg[t]:
                    ready.append(t)
        if feasible:
            count("retiming.feas.passes", passes)
            return r
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


def minimize_cycle_period(
    g: DFG,
    *,
    method: str = "incremental",
    verify: bool = False,
    wd: WDKernel | None = None,
) -> tuple[int, Retiming]:
    """The minimum cycle period achievable by retiming, with a witness.

    Binary search over the sorted distinct ``D``-matrix values (the optimum
    is one of them, by Leiserson–Saxe Theorem 8 adapted to this sign
    convention).  The returned retiming is normalized.

    ``method`` selects the probe strategy (see the module docstring); both
    strategies return identical results.  ``verify=True`` additionally
    re-applies every feasible probe's witness and checks its period (always
    on for ``method="reference"``, matching the original behavior).
    ``wd`` supplies a precomputed :class:`~repro.graph.wd.WDKernel`
    (ignored by ``method="reference"``), so long-lived callers such as the
    request server keep the matrices warm across calls.
    """
    if method not in ("incremental", "reference"):
        raise ValueError(f"unknown minimize_cycle_period method {method!r}")

    with span("retiming.minimize", graph=g.name, nodes=g.num_nodes) as sp:
        if method == "reference":
            from ..graph.wd import distinct_d_values

            candidates = distinct_d_values(g)

            def probe(c: int) -> Retiming | None:
                return _retime_for_period_reference(g, c)

        else:
            if wd is None:
                wd = wd_kernel(g)
            candidates = wd.d_values()
            solver = IncrementalFeasibility(wd)

            def probe(c: int) -> Retiming | None:
                solution = solver.try_period(c)
                if solution is None:
                    return None
                r = Retiming(g, solution).normalized()
                if verify:
                    assert cycle_period(r.apply()) <= c, (
                        "internal error: incremental solver violated "
                        "the LS reduction"
                    )
                return r

        lo, hi = 0, len(candidates) - 1
        best: tuple[int, Retiming] | None = None
        iterations = 0
        while lo <= hi:
            iterations += 1
            mid = (lo + hi) // 2
            c = candidates[mid]
            r = probe(c)
            if r is not None:
                best = (c, r)
                hi = mid - 1
            else:
                lo = mid + 1
        if best is None:  # no candidate periods: only an empty graph has none
            raise DFGError("graph has no nodes")
        # The optimum is the *achieved* period of the witness, which can be
        # strictly below the candidate bound that the search proved feasible.
        c, r = best
        achieved = cycle_period(r.apply())
        sp.set(period=achieved, iterations=iterations)
    count("retiming.iterations", iterations)
    return achieved, r


def minimum_cycle_period(g: DFG) -> int:
    """Just the minimum achievable cycle period (no witness)."""
    return minimize_cycle_period(g)[0]
