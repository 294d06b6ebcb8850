"""Code-size reduction for unfolded loops (Section 3.3).

One conditional register suffices to remove the ``(n mod f) * |V|``
remainder instructions of an unfolded loop: the register is initialized to
0 and decremented by ``f`` every iteration, and the copy in slot ``j``
checks it at offset ``-j``, so in the final (partial) iteration exactly the
in-range copies execute.  The loop simply runs ``ceil(n / f)`` iterations
(``for i = 1 to n by f``) for any trip count — no residue specialization.

The paper's "we can totally reduce ``(n mod f) * L_orig - 2`` instructions"
corresponds to the overhead of exactly 2 instructions here: one ``setup``
and one decrement.
"""

from __future__ import annotations

from ..graph.dfg import DFG, DFGError
from ..graph.validate import topological_order
from ..codegen.ir import LoopProgram
from .codesize import PER_ITERATION
from .predicated import predicated_program

__all__ = ["csr_unfolded_loop"]


def csr_unfolded_loop(g: DFG, f: int) -> LoopProgram:
    """The single-register conditional form of the unfolded loop."""
    if f < 1:
        raise DFGError(f"unfolding factor must be >= 1, got {f}")
    order_nodes = topological_order(g)
    order = [(v, j) for j in range(f) for v in order_nodes]
    shifts = {(v, j): j for v in g.node_names() for j in range(f)}
    return predicated_program(
        g,
        f=f,
        shifts=shifts,
        body_order=order,
        mode=PER_ITERATION,
        name=f"{g.name}.csr_unfolded_x{f}",
        meta={"kind": "csr-unfolded"},
    )
