"""Combining retiming and unfolding, in both orders.

The paper (Theorems 4.4/4.5, Tables 3/4) compares two pipelines:

* **unfold-retime** (``G -> G_f -> retime``): unfold first, then run optimal
  retiming on the unfolded graph.  Straightforward — but every copy of a
  node may receive a distinct retiming value, which multiplies code size.
* **retime-unfold** (``G -> G_r -> unfold``): find a retiming of the
  *original* graph such that unfolding the retimed graph achieves the target
  cycle period.  Per Chao & Sha [JVSP 1995] the best achievable period is the
  same, while the paper shows the code size is never worse
  (``S_{r,f} <= S_{f,r}``).

The retime-unfold optimizer here is *exact*, based on the following
characterization proved by unwinding the unfolding rule: a walk ``p`` from
``u`` to ``v`` in the retimed graph ``G_r`` survives as a zero-delay path of
``unfold(G_r, f)`` iff its total retimed delay satisfies ``d_r(p) <= f - 1``.
Hence ``Phi(unfold(G_r, f)) <= c`` iff every walk with computation time
``> c`` keeps at least ``f`` delays::

    d(p) + r(u) - r(v) >= f      for every u->v walk p with T(p) > c

which is a system of difference constraints ``r(v) - r(u) <= W_c(u,v) - f``
with ``W_c(u,v) = min { d(p) : T(p) > c }``.  ``retime_unfold_for_period``
relaxes it a pass at a time by FEAS generalised to ``f`` and never builds
``W_c``; its reference, ``_retime_unfold_for_period_reference``, builds
``W_c`` by a per-source Dijkstra and solves the system.  Both return its
greatest solution (``docs/THEORY.md`` §4); at ``f = 1`` it is (an exact
form of) the Leiserson–Saxe condition.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from ..graph.dfg import DFG, DFGError
from ..graph.iteration_bound import iteration_bound
from ..graph.period import cycle_period
from ..retiming.function import Retiming
from ..retiming.optimal import (
    _feas_retiming,
    _least_feasible,
    minimize_cycle_period,
    retime_for_period,
    solve_retiming,
)
from .unfold import unfold

__all__ = [
    "OrderedResult",
    "unfold_retime",
    "retime_unfold",
    "retime_unfold_for_period",
    "min_delay_exceeding_time",
]


@dataclass(frozen=True)
class OrderedResult:
    """Result of one retiming+unfolding pipeline.

    Attributes
    ----------
    order:
        ``"retime-unfold"`` or ``"unfold-retime"``.
    factor:
        The unfolding factor ``f``.
    retiming:
        The normalized retiming used — over the *original* nodes for
        retime-unfold, over the *unfolded copies* for unfold-retime.
    graph:
        The final transformed graph (always an unfolded graph whose body
        represents ``f`` original iterations).
    period:
        Cycle period of ``graph`` (schedule length of one unfolded body).
    iteration_period:
        ``period / f`` — average time per *original* iteration.
    """

    order: str
    factor: int
    retiming: Retiming
    graph: DFG
    period: int
    iteration_period: Fraction


def unfold_retime(g: DFG, f: int, period: int | None = None) -> OrderedResult:
    """Unfold ``g`` by ``f`` and then retime the unfolded graph.

    With ``period`` given, finds a retiming of ``G_f`` achieving that cycle
    period (raising :class:`DFGError` if impossible); otherwise minimizes.
    """
    gf = unfold(g, f)
    if period is None:
        achieved, r = minimize_cycle_period(gf)
    else:
        r_opt = retime_for_period(gf, period)
        if r_opt is None:
            raise DFGError(f"{g.name}: unfold-retime cannot reach period {period} at f={f}")
        r = r_opt
        achieved = cycle_period(r.apply())
    return OrderedResult(
        order="unfold-retime",
        factor=f,
        retiming=r,
        graph=r.apply(),
        period=achieved,
        iteration_period=Fraction(achieved, f),
    )


def min_delay_exceeding_time(g: DFG, c: int) -> dict[tuple[str, str], int]:
    """``W_c(u, v) = min { d(p) : walks p from u to v with T(p) > c }``.

    Walk time counts every node visit (including both endpoints once per
    visit).  Pairs with no such walk are absent from the result.  Runs one
    Dijkstra per source over ``(node, min(T, c+1))`` states; legal graphs
    have no zero-delay cycles, so delays strictly increase around any cycle
    and the search terminates.
    """
    cap = c + 1  # saturated time: reaching `cap` means T > c
    names = g.node_names()
    out_edges = {n: g.out_edges(n) for n in names}
    times = {n: g.node(n).time for n in names}
    result: dict[tuple[str, str], int] = {}

    for source in names:
        # dist[(v, tau)] = min walk delay from source to v with saturated
        # accumulated time tau.
        start_tau = min(times[source], cap)
        dist: dict[tuple[str, int], int] = {(source, start_tau): 0}
        heap: list[tuple[int, str, int]] = [(0, source, start_tau)]
        best_at_cap: dict[str, int] = {}
        while heap:
            d, v, tau = heapq.heappop(heap)
            if dist.get((v, tau), math.inf) < d:
                continue
            if tau == cap:
                # Saturated: record and keep exploring only if cheaper
                # saturated walks to successors may exist (they do: continue
                # relaxing from saturated states too).
                if d < best_at_cap.get(v, math.inf):
                    best_at_cap[v] = d
            for e in out_edges[v]:
                ntau = min(tau + times[e.dst], cap)
                nd = d + e.delay
                key = (e.dst, ntau)
                if nd < dist.get(key, math.inf):
                    dist[key] = nd
                    heapq.heappush(heap, (nd, e.dst, ntau))
        for v, d in best_at_cap.items():
            result[(source, v)] = d
    return result


def retime_unfold_for_period(g: DFG, f: int, c: int) -> Retiming | None:
    """A normalized retiming ``r`` of ``g`` with
    ``Phi(unfold(G_r, f)) <= c``, or ``None`` if none exists."""
    if f < 1:
        raise DFGError(f"unfolding factor must be >= 1, got {f}")
    r = _feas_retiming(g, c, f)
    assert r is None or cycle_period(unfold(r.apply(), f)) <= c, (
        "internal error: FEAS witness too slow after unfolding"
    )
    return r


def _retime_unfold_for_period_reference(g: DFG, f: int, c: int) -> Retiming | None:
    """:func:`retime_unfold_for_period` by the ``W_c`` difference-constraint
    solve: the reference of the FEAS fast path, with the same witness.  A
    node slower than ``c`` is its own walk with ``W_c = 0 < f``, so the
    system is infeasible."""
    wc = min_delay_exceeding_time(g, c)
    r = solve_retiming(g, [(v, u, w - f) for (u, v), w in wc.items()])
    assert r is None or cycle_period(unfold(r.apply(), f)) <= c, (
        "internal error: W_c reduction violated"
    )
    return r


def retime_unfold(
    g: DFG, f: int, period: int | None = None, minimized: Retiming | None = None
) -> OrderedResult:
    """Retime ``g`` first, then unfold by ``f`` (the code-size-friendly order).

    With ``period`` given, finds a retiming whose unfolded graph achieves
    that cycle period (raising :class:`DFGError` if impossible); otherwise
    minimizes the unfolded cycle period exactly by binary search.  The
    search's upper bound unfolds ``minimize_cycle_period(g)``'s retiming;
    a caller that already holds that retiming passes it as ``minimized``
    and the search skips recomputing it.
    """
    if period is not None:
        r = retime_unfold_for_period(g, f, period)
        if r is None:
            raise DFGError(f"{g.name}: retime-unfold cannot reach period {period} at f={f}")
    else:
        bound = iteration_bound(g)
        lo = max(
            max(v.time for v in g.nodes()),
            math.ceil(bound * f) if bound > 0 else 1,
        )
        # Upper bound: unfold the LS-optimal retiming of g, which meets it.
        r0 = minimized if minimized is not None else minimize_cycle_period(g)[1]
        hi = cycle_period(unfold(r0.apply(), f))
        _, r, _ = _least_feasible(lo, hi, lambda c: retime_unfold_for_period(g, f, c))
    final = unfold(r.apply(), f)
    achieved = cycle_period(final)
    return OrderedResult(
        order="retime-unfold",
        factor=f,
        retiming=r,
        graph=final,
        period=achieved,
        iteration_period=Fraction(achieved, f),
    )
