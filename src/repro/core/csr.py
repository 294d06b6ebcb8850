"""Code-size reduction for software-pipelined (retimed) loops.

Implements Section 3.2 / Theorems 4.1–4.3: the prologue and epilogue of a
pipelined loop are removed *completely* by conditionally executing the loop
body for ``n + M_r`` iterations, with one conditional register per distinct
retiming value.  Node ``v`` is guarded by the register of class ``r(v)``,
initialized to ``M_r - r(v)`` and decremented every iteration — so ``v``
starts executing at iteration ``1 - r(v)`` (covering the prologue) and stops
after instance ``n`` (covering the epilogue).

Resulting code size: ``|V| + 2 * |N_r|`` (body + one setup and one
decrement per register) versus ``(M_r + 1) * |V|`` for the plain pipelined
program — Table 1's "CR" column.
"""

from __future__ import annotations

from ..graph.dfg import DFG
from ..graph.validate import topological_order
from ..codegen.ir import LoopProgram
from ..observability import count, span
from ..retiming.function import Retiming
from .codesize import PER_ITERATION
from .predicated import predicated_program

__all__ = ["csr_pipelined_loop"]


def csr_pipelined_loop(g: DFG, r: Retiming) -> LoopProgram:
    """The conditional-register form of the pipelined loop for retiming ``r``.

    Unlike :func:`repro.codegen.pipelined_loop`, the result runs correctly
    for *every* trip count ``n >= 0`` — guards simply disable everything
    out of range, so even ``n < M_r`` needs no special casing.
    """
    count("csr.programs")
    with span("csr.rewrite", graph=g.name, nodes=g.num_nodes):
        r = r.normalized()
        r.check_legal()
        order = [(v, 0) for v in topological_order(r.apply())]
        shifts = {(v, 0): r[v] for v in g.node_names()}
        return predicated_program(
            g,
            f=1,
            shifts=shifts,
            body_order=order,
            mode=PER_ITERATION,
            name=f"{g.name}.csr_pipelined",
            meta={
                "kind": "csr-pipelined",
                "retiming": r.as_dict(),
                "max_retiming": r.max_value,
            },
        )
