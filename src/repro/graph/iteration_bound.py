"""Iteration bound of a cyclic data-flow graph.

The *iteration bound* ``B(G) = max_C T(C) / D(C)`` over all cycles ``C``
(``T`` = total computation time on the cycle, ``D`` = total delay count) is
the fundamental lower bound on the average time per loop iteration of any
static schedule.  A schedule is *rate-optimal* when its iteration period
equals ``B(G)``; when ``B(G)`` is non-integral that can only be achieved by
unfolding the loop by a factor ``f`` that makes ``f * B(G)`` integral
(Section 4 of the paper).

Two independent algorithms are provided:

* :func:`iteration_bound` — Lawler-style parametric binary search whose
  positive-cycle oracle runs on *exact integer* edge weights
  ``q * T(C) - p * D(C)`` for probe ``λ = p/q`` over the shared
  :class:`~repro.graph.kernel.EdgeKernel` index-array adjacency; the result
  is snapped to an exact rational with bounded denominator and *verified*
  exactly.  This is the production hot path.
* :func:`iteration_bound_exhaustive` — direct enumeration of simple cycles
  via networkx; exponential in general, the differential-testing reference
  and a fallback.
"""

from __future__ import annotations

from fractions import Fraction

from ..observability import count
from .dfg import DFG, DFGError
from .kernel import EdgeKernel, shared_kernel

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

    Parametric binary search: each probe ``λ = p/q`` asks the integer
    oracle for a cycle with ``q*T(C) - p*D(C) > 0``; the bracket shrinks
    below the minimum spacing ``1/total_delay²`` of distinct candidate
    ratios, the unique surviving candidate is recovered with
    ``limit_denominator``, and the answer is verified exactly (a zero-weight
    cycle exists and no positive-weight cycle does).
    """
    from .validate import validate

    validate(g)

    total_delay = g.total_delay
    if total_delay == 0:
        # validate() guarantees no zero-delay cycle, so with no delays at
        # all the graph is acyclic.
        return Fraction(0)

    kernel = shared_kernel(g)

    # Quick acyclicity check: if no cycle at lam=0 exists (i.e. no cycle at
    # all, since weights are then all positive node times), bound is 0.
    if not kernel.has_positive_cycle(0, 1, strict=True):
        count("iteration_bound.probes", 1)
        return Fraction(0)

    lo = Fraction(0)  # B > 0 here: some cycle exists
    hi = Fraction(g.total_time)  # T(C) <= total_time, D(C) >= 1
    # Distinct candidate ratios have denominators <= total_delay, so once
    # the bracket is narrower than 1/total_delay^2 only one candidate fits.
    resolution = Fraction(1, 2 * total_delay * total_delay)
    probes = 1  # the acyclicity probe above
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        probes += 1
        if kernel.has_positive_cycle(mid.numerator, mid.denominator, strict=True):
            lo = mid
        else:
            hi = mid
    count("iteration_bound.probes", probes + 2)  # + the two verify probes

    candidate = ((lo + hi) / 2).limit_denominator(total_delay)
    if _verify_bound_kernel(kernel, candidate):
        return candidate

    # Extremely defensive fallback; unreachable for well-formed inputs but
    # keeps the function total.
    return iteration_bound_exhaustive(g)


def _verify_bound_kernel(kernel: EdgeKernel, lam: Fraction) -> bool:
    """``lam`` is the iteration bound iff a zero-weight cycle exists and no
    positive-weight cycle exists at ``lam``."""
    p, q = lam.numerator, lam.denominator
    return kernel.has_positive_cycle(p, q, strict=False) and not (
        kernel.has_positive_cycle(p, q, strict=True)
    )


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
