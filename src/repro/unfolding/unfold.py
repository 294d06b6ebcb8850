"""The unfolding (loop unrolling at the DFG level) transformation.

Unfolding a DFG ``G`` by factor ``f`` produces ``G_f`` in which every node
``u`` is replicated into copies ``u#0 .. u#{f-1}``; copy ``j`` computes the
loop instances congruent to ``j`` (copy ``j`` at outer iteration ``k``
computes instance ``k*f + j`` of ``u``, counting instances from the same
origin as the outer iterations).

For an edge ``e(u -> v)`` with delay ``d``, the consumer copy ``v#j``
reads instance ``(k*f + j) - d``, which is produced by copy
``u#((j - d) mod f)`` exactly ``ceil((d - j) / f)`` outer iterations
earlier.  Hence ``G_f`` has, for each ``j in 0..f-1``, the edge::

    u#((j - d) mod f)  ->  v#j     with delay ceil((d - j) / f)

This is the classical Chao–Sha / Parhi unfolding rule; it preserves the
total delay count per original edge (``sum_j ceil((d - j)/f) = d``) and
multiplies the iteration bound by ``f`` (so the bound on the iteration
*period* ``Phi(G_f)/f`` is unchanged).
"""

from __future__ import annotations

from ..graph.dfg import DFG, DFGError
from ..graph.kernel import derived
from ..observability import OBS, span

__all__ = ["unfold", "copy_name", "parse_copy_name", "unfolded_edge_delay"]

_SEP = "#"


def copy_name(node: str, j: int) -> str:
    """Name of copy ``j`` of ``node`` in an unfolded graph."""
    return f"{node}{_SEP}{j}"


def parse_copy_name(name: str) -> tuple[str, int]:
    """Inverse of :func:`copy_name`: ``("u#2") -> ("u", 2)``.

    Raises :class:`DFGError` for names that are not unfolded-copy names.
    """
    base, sep, idx = name.rpartition(_SEP)
    if not sep or not idx.isdigit():
        raise DFGError(f"{name!r} is not an unfolded-copy name")
    return base, int(idx)


def unfolded_edge_delay(d: int, j: int, f: int) -> int:
    """Delay of the copy-``j`` instance of an edge with original delay ``d``
    when unfolding by ``f``: ``ceil((d - j) / f)``."""
    return -((j - d) // f)


def unfold(g: DFG, f: int, name: str | None = None) -> DFG:
    """The unfolded graph ``G_f``.

    ``f = 1`` returns a renamed copy (every node becomes ``u#0``) so that
    downstream code can treat all factors uniformly.

    Built once per ``(g, f, name)`` for as long as ``g`` lives
    (:func:`repro.graph.kernel.derived`): every later call returns the
    same graph object, so it is shared and read-only — callers must never
    add nodes or edges to it.  The ``unfold.*`` counters count every
    call, built or shared; only a build records an ``unfold`` span.
    """
    if f < 1:
        raise DFGError(f"unfolding factor must be >= 1, got {f}")
    if name is None:
        name = f"{g.name}_x{f}"
    memo = derived(g)
    key = ("unfold", f, name)
    gf = memo.get(key)
    if gf is None:
        gf = memo[key] = _build(g, f, name)
    if OBS.enabled:
        m = OBS.metrics
        m.counter("unfold.calls", "unfolding transformations applied").inc()
        m.counter("unfold.copies", "node copies created by unfolding").inc(
            g.num_nodes * f
        )
    return gf


def _build(g: DFG, f: int, name: str) -> DFG:
    with span("unfold", graph=g.name, factor=f):
        gf = DFG(name)
        for node in g.nodes():
            for j in range(f):
                gf.add_node(
                    copy_name(node.name, j), time=node.time, op=node.op, imm=node.imm
                )
        for e in g.edges():
            for j in range(f):
                src_copy = (j - e.delay) % f
                gf.add_edge(
                    copy_name(e.src, src_copy),
                    copy_name(e.dst, j),
                    delay=unfolded_edge_delay(e.delay, j, f),
                )
    return gf
