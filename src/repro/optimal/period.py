"""Exact-optimal retiming: certified minimum cycle period and code size.

This is the ground-truth side of the differential oracle.  Where
:func:`repro.retiming.optimal.minimize_cycle_period` binary-searches the
*distinct values of the D matrix* (correct by Leiserson–Saxe Theorem 8, but
that candidate-set argument is exactly the kind of clever step a bug could
hide in), the oracle here searches the **full integer lattice**

    ``[ L,  Phi(G) ]``   with   ``L = max(max_v t(v), ceil(B(G)))``

anchored at two independently provable facts:

* ``Phi(G)`` — the unretimed cycle period — is always feasible (the zero
  retiming is its witness), so the optimum has a finite upper bound;
* ``L`` is a valid lower bound on *any* retimed period: no period can beat
  the slowest single node, and on any cycle ``C`` the ``D(C)`` retained
  delays cut it into at most ``D(C)`` zero-delay segments whose times sum
  to ``T(C)``, so some segment takes ``>= T(C)/D(C)`` — hence
  ``ceil(B(G))`` (retiming preserves ``T(C)`` and ``D(C)``).

Feasibility at each lattice point is decided by a *fresh* Bellman–Ford
difference-constraint solve over the pure-python ``(W, D)`` matrices, and
every feasible probe's witness is re-applied and re-measured — the oracle
never trusts a reduction it did not just verify.  Feasibility is monotone
in ``c`` (a retiming with period ``<= c`` also has period ``<= c + 1``),
so the integer binary search is exact.

The result is an :class:`OptimalPeriod` *certificate*: the best witnessed
period, a certified lower bound, and a ``proven`` flag.  Under a
``timeout`` the search degrades gracefully — the certificate keeps
whatever bounds were established instead of hanging (``gap`` bounds how
far from optimal the witness can be).

:func:`minimize_max_retiming` extends the oracle to *code size*: among all
retimings achieving period ``c`` it finds one of provably minimal
``M_r = max_v r(v)``, by binary-searching the solution *spread* ``s`` with
all-pairs constraints ``r(u) - r(v) <= s`` added to the period system.
``(M_r^* + 1) * |V|`` is then the true optimal pipelined code size the
Theorem 4.4/4.5 tests pin against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..graph.dfg import DFG, DFGError
from ..graph.iteration_bound import iteration_bound
from ..graph.period import cycle_period
from ..graph.wd import wd_matrices_python
from ..observability import count, span
from ..retiming.function import Retiming
from ..retiming.optimal import period_bounds, solve_retiming

__all__ = [
    "OptimalPeriod",
    "optimal_cycle_period",
    "period_lower_bound",
    "minimize_max_retiming",
    "minimal_code_size",
]

def period_lower_bound(g: DFG) -> int:
    """``L = max(max_v t(v), ceil(B(G)))`` — a certified lower bound on the
    cycle period of *every* legal retiming of ``g``.

    Validates the graph first: empty graphs and zero-delay cycles raise
    :class:`~repro.graph.dfg.DFGError` with a clear message (via
    :func:`~repro.graph.iteration_bound.iteration_bound`).
    """
    bound = iteration_bound(g)  # validates; 0 for acyclic graphs
    return max(max(v.time for v in g.nodes()), math.ceil(bound))


@dataclass(frozen=True)
class OptimalPeriod:
    """Certificate returned by :func:`optimal_cycle_period`.

    ``period`` is always *witnessed* (``retiming`` achieves it) and
    ``optimum_lower`` is always *certified* (every smaller period was
    either proved infeasible by a negative-cycle certificate or excluded
    by the iteration bound), so the true optimum lies in
    ``[optimum_lower, period]`` unconditionally — ``proven`` just says the
    interval collapsed.
    """

    graph: str
    period: int
    optimum_lower: int
    proven: bool
    retiming: Retiming
    probes: int

    @property
    def gap(self) -> int:
        """Width of the optimality interval (0 iff ``proven``)."""
        return self.period - self.optimum_lower


def _checked(r: Retiming | None, c: int, what: str) -> Retiming | None:
    """``r`` after re-applying it and re-measuring its period, so a bug in
    the reduction cannot yield a false "feasible"."""
    if r is not None and (achieved := cycle_period(r.apply())) > c:
        raise AssertionError(
            f"oracle self-check failed: {what} for c={c} achieves {achieved}"
        )
    return r


def optimal_cycle_period(g: DFG, *, timeout: float | None = None) -> OptimalPeriod:
    """The certified minimum cycle period achievable by retiming ``g``, by
    the integer lattice binary search described in the module docstring.

    ``timeout`` (seconds) bounds the search: on expiry the best bounds
    established so far are returned with ``proven=False`` instead of
    hanging — a *bounded-gap certificate*, never a wrong answer.
    """
    with span("oracle.period", graph=g.name, nodes=g.num_nodes) as sp:
        lower = period_lower_bound(g)
        best_r = Retiming.zero(g).normalized()
        best_c = cycle_period(g)
        probes = 0
        if best_c > lower:
            # Lazy (W, D): the gap == 0 short-circuit above never pays the
            # O(V^3) cost.  The Floyd–Warshall reference on purpose —
            # independent of the Dijkstra build the heuristic may take.
            wd = wd_matrices_python(g)
            deadline = None if timeout is None else time.monotonic() + timeout
            lo, hi = lower, best_c - 1
            while lo <= hi:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                probes += 1
                c = (lo + hi) // 2
                # A fresh solve per probe, self-checked.
                r = _checked(solve_retiming(g, period_bounds(*wd, c)), c, "witness")
                if r is None:
                    lo = c + 1  # infeasibility is monotone downward
                else:
                    best_c = cycle_period(r.apply())
                    best_r = r
                    hi = best_c - 1
            lower = lo
        sp.set(period=best_c, lower=lower, probes=probes)
    count("oracle.period_probes", probes)
    return OptimalPeriod(
        graph=g.name,
        period=best_c,
        optimum_lower=lower,
        proven=best_c == lower,
        retiming=best_r,
        probes=probes,
    )


def minimize_max_retiming(g: DFG, c: int) -> Retiming | None:
    """A normalized retiming of ``g`` with cycle period ``<= c`` and
    **provably minimal** ``M_r = max_v r(v)``, or ``None`` if period ``c``
    is not achievable at all.

    A normalized retiming's ``M_r`` equals its value *spread*
    ``max r - min r``, so the minimum is found by binary-searching the
    spread ``s``: the period system stays feasible with the all-pairs
    constraints ``r(u) - r(v) <= s`` added iff some period-``c`` retiming
    has spread ``<= s``.  The search space is ``s in [0, |V| - 1]`` —
    every Leiserson–Saxe constraint weight is ``>= -1`` (``W >= 0`` and
    ``d(e) >= 0``), so the Bellman–Ford solution has values in
    ``[-(|V| - 1), 0]`` and spread at most ``|V| - 1``.
    """
    if any(v.time > c for v in g.nodes()):
        return None
    W, D = wd_matrices_python(g)
    names = g.node_names()

    def solve_with_spread(s: int | None) -> Retiming | None:
        spread = [] if s is None else [
            (u, v, s) for u in names for v in names if u != v
        ]
        r = solve_retiming(g, period_bounds(W, D, c) + spread)
        return _checked(r, c, "spread witness")

    base = solve_with_spread(None)
    if base is None:
        return None
    best = base
    lo, hi = 0, base.max_value - 1
    while lo <= hi:
        s = (lo + hi) // 2
        r = solve_with_spread(s)
        if r is None:
            lo = s + 1
        else:
            best = r
            hi = r.max_value - 1
    return best


def minimal_code_size(g: DFG, c: int | None = None) -> tuple[int, Retiming]:
    """The provably minimal pipelined code size ``(M_r^* + 1) * |V|`` at
    cycle period ``c`` (default: the proven optimal period), with the
    witnessing retiming.

    Raises :class:`~repro.graph.dfg.DFGError` if period ``c`` is not
    achievable.
    """
    if c is None:
        c = optimal_cycle_period(g).period
    r = minimize_max_retiming(g, c)
    if r is None:
        raise DFGError(f"{g.name}: no retiming achieves cycle period {c}")
    return (r.max_value + 1) * g.num_nodes, r
