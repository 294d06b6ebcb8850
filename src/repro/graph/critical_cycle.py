"""Critical-cycle extraction: *which* recurrence limits the loop rate.

:func:`repro.graph.iteration_bound` returns the value ``max_C T(C)/D(C)``;
this module returns a witness cycle attaining it.  Designers need the
witness — it names the recurrence to attack (algebraic transformation,
extra delay insertion, pipelined functional units), and the CLI's ``info``
command prints it.

Both come from one run of the policy iteration in
:mod:`repro.graph.iteration_bound`, which ends with the witness in hand.
"""

from __future__ import annotations

from .dfg import DFG
from .iteration_bound import _howard

__all__ = ["critical_cycle", "cycle_stats"]


def cycle_stats(g: DFG, cycle: list[str]) -> tuple[int, int]:
    """``(T, D)`` of a cycle given as a node list (closing edge implied).

    Parallel edges contribute their minimum delay (the binding one).
    """
    time = sum(g.node(n).time for n in cycle)
    delay = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        delay += min(e.delay for e in g.out_edges(a) if e.dst == b)
    return time, delay


def critical_cycle(g: DFG) -> list[str]:
    """A cycle ``C`` with ``T(C)/D(C) == B(G)``, as a node list.

    Returns ``[]`` for acyclic graphs (bound 0).  Canonical for a given
    graph: among the critical cycles of the final policy, the one holding
    the earliest-inserted node, listed from that node along its edges.
    """
    return _howard(g)[1]
