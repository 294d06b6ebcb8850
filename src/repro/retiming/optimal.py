"""Optimal retiming: minimum cycle period via the Leiserson–Saxe reduction.

``retime_for_period(G, c)`` answers "is there a legal retiming with cycle
period ``<= c``" constructively, by solving the difference-constraint system

* ``r(v) - r(u) <= d(e)``               for every edge ``e(u -> v)``
  (legality: retimed delays stay non-negative — recall this paper's sign
  convention ``d_r(e) = d(e) + r(u) - r(v)``), and
* ``r(v) - r(u) <= W(u, v) - 1``        for every pair with ``D(u, v) > c``
  (every minimum-delay path from ``u`` to ``v`` must retain a delay,
  breaking all zero-delay paths longer than ``c``).

``minimize_cycle_period(G)`` binary-searches the sorted distinct values of
the ``D`` matrix — the optimum is always one of them — and returns the
minimum period together with a witnessing *normalized* retiming.

Two search strategies are available (both provably return the same period
and the same normalized witness, which the test-suite pins exactly):

``method="incremental"`` (default)
    Compute ``(W, D)`` once, then drive the binary search through the
    warm-started :class:`~repro.retiming.incremental.IncrementalFeasibility`
    solver, which exploits that the per-probe constraint systems are nested
    in ``c``.  The asymptotically and practically fastest path.
``method="reference"``
    The original behavior: every probe rebuilds ``(W, D)`` from scratch and
    self-verifies its witness.  Kept as the differential-testing reference
    and benchmark baseline.
"""

from __future__ import annotations

from ..graph.dfg import DFG, DFGError
from ..graph.period import cycle_period
from ..graph.wd import WDKernel, wd_kernel
from ..observability import count, span
from .constraints import DifferenceConstraints
from .function import Retiming
from .incremental import IncrementalFeasibility

__all__ = ["retime_for_period", "minimize_cycle_period", "minimum_cycle_period"]


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

    W, D = wd_kernel(g)
    system = DifferenceConstraints()
    for n in g.node_names():
        system.add_variable(n)
    for e in g.edges():
        system.add(e.dst, e.src, e.delay)
    for (u, v), d_val in D.items():
        if d_val > c:
            system.add(v, u, W[(u, v)] - 1)

    solution = system.solve()
    if solution is None:
        return None
    r = Retiming(g, {n: int(val) for n, val in solution.items()}).normalized()
    assert cycle_period(r.apply()) <= c, "internal error: LS reduction violated"
    return r


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
                return retime_for_period(g, c)

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
