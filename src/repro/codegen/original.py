"""Code generation for the untransformed (original) loop.

The original loop of a DFG ``G`` executes, for ``i = 1 .. n``, every node
``v`` once per iteration in a topological order of the zero-delay subgraph;
node ``v`` computes ``v[i]`` from ``u[i - d(e)]`` for each in-edge
``e(u -> v)``.  This program is the semantic reference every transformation
is checked against.
"""

from __future__ import annotations

from ..graph.dfg import DFG
from ..graph.kernel import derived
from ..graph.validate import topological_order
from .ir import ComputeInstr, Guard, IndexExpr, Loop, LoopProgram, Operand

__all__ = ["original_loop", "compute_for_node"]


def compute_for_node(
    g: DFG,
    node: str,
    dest_index: IndexExpr,
    guard: Guard | None = None,
) -> ComputeInstr:
    """The :class:`ComputeInstr` computing instance ``dest_index`` of ``node``.

    Source operands are derived from the node's in-edges in insertion order
    (the operand order fixed by the DFG): in-edge ``e(u -> v)`` with
    *original* delay ``d`` contributes ``u[dest_index - d]``.  All code
    generators share this helper, so instance-level data dependencies are
    identical across every program form by construction.

    Built once per ``(node, dest_index, guard)`` for as long as ``g`` lives
    (:func:`repro.graph.kernel.derived`): equal instructions across a
    graph's programs are the same object, so the VM compiles each once.
    """
    memo = derived(g)
    key = ("instr", node, dest_index, guard)
    instr = memo.get(key)
    if instr is None:
        n = g.node(node)
        srcs = tuple(
            Operand(e.src, IndexExpr(dest_index.base, dest_index.offset - e.delay))
            for e in g.in_edges(node)
        )
        instr = memo[key] = ComputeInstr(
            dest=Operand(node, dest_index),
            op=n.op,
            imm=n.imm,
            srcs=srcs,
            guard=guard,
            node=node,
        )
    return instr


def original_loop(g: DFG) -> LoopProgram:
    """The reference program: ``for i = 1 to n``, all nodes in topo order."""
    order = topological_order(g)
    body = tuple(compute_for_node(g, v, IndexExpr.loop(0)) for v in order)
    return LoopProgram(
        name=f"{g.name}.original",
        pre=(),
        loop=Loop(start=IndexExpr.const(1), end=IndexExpr.trip(0), step=1, body=body),
        post=(),
        meta={"kind": "original", "graph": g.name},
    )
