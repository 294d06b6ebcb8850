"""The Leiserson–Saxe FEAS algorithm, adapted to the paper's sign convention.

``feas(G, c)`` decides whether cycle period ``c`` is achievable by retiming,
without building the ``W``/``D`` matrices: it iteratively simulates clock
period ``c`` and pulls a delay onto the incoming edges of every node whose
completion time exceeds ``c``.  In this library's sign convention
(``d_r(e(u->v)) = d(e) + r(u) - r(v)``) pulling a delay into node ``v``
means *decrementing* ``r(v)``.

FEAS runs in ``O(|V| |E|)`` per iteration and ``|V| - 1`` iterations, and is
used in the test-suite as an independent oracle against the W/D-based
:func:`repro.retiming.optimal.retime_for_period`.
"""

from __future__ import annotations

from ..graph.dfg import DFG
from ..graph.period import asap_times, cycle_period
from .function import Retiming

__all__ = ["feas"]


def feas(g: DFG, c: int) -> Retiming | None:
    """A normalized retiming achieving cycle period ``<= c``, else ``None``."""
    if any(v.time > c for v in g.nodes()):
        return None

    r = Retiming(g, _simulate(g, c))
    if not r.is_legal():
        # Cannot happen: decrementing r(v) only adds delays to v's incoming
        # edges and removes them from its outgoing edges that had at least
        # one (their sources were scheduled earlier) — but stay defensive.
        return None
    if cycle_period(r.apply()) <= c:
        return r.normalized()
    return None


def _simulate(g: DFG, c: int) -> dict[str, int]:
    """FEAS simulation: rebuild the retimed graph per iteration."""
    values: dict[str, int] = {n: 0 for n in g.node_names()}
    for _ in range(max(1, g.num_nodes - 1)):
        r = Retiming(g, values)
        retimed = r.apply()
        start = asap_times(retimed)
        changed = False
        for node in retimed.nodes():
            if start[node.name] + node.time > c:
                values[node.name] -= 1
                changed = True
        if not changed:
            break
    return values
