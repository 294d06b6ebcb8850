"""Code-size reduction for retimed-and-unfolded loops (Theorems 4.6/4.7).

**retime-unfold** (:func:`csr_retimed_unfolded_loop`): the copy of node
``v`` in slot ``j`` carries shift ``j + r(v)``, so all ``f`` copies of a
node share the register of class ``r(v)`` — the register count stays
``|N_r|``, exactly Theorem 4.7's ``P_{r,f} = P_r``.  The default
``per-copy`` decrement convention reproduces the paper's Figure 7(a) and the
``f * |V| + |N_r| * (f + 1)`` sizes of Tables 2 and 4; ``per-iteration``
gives the leaner ``f * |V| + 2 * |N_r|`` accounting of Table 3.

**unfold-retime** (:func:`csr_unfold_retimed_loop`): each *copy* ``v#j`` has
its own retiming value ``r'(v#j)``, shift ``j + f * r'(v#j)``, and register
class ``f * r'(v#j)`` — so the register count is the number of distinct
``r'`` values over all copies, which can exceed ``|N_r|``.  This is the
paper's argument (end of Section 3.4) for retiming before unfolding.
Because zero-delay dependencies of the retimed unfolded graph may cross
slots in either direction, this form always uses the order-insensitive
``per-iteration`` convention with a topological body order.
"""

from __future__ import annotations

from ..graph.dfg import DFG, DFGError
from ..graph.validate import topological_order
from ..codegen.ir import LoopProgram
from ..retiming.function import Retiming
from ..unfolding.unfold import copy_name, parse_copy_name, unfold
from .codesize import PER_COPY, PER_ITERATION
from .predicated import predicated_program

__all__ = ["csr_retimed_unfolded_loop", "csr_unfold_retimed_loop"]


def csr_retimed_unfolded_loop(
    g: DFG, r: Retiming, f: int, mode: str = PER_COPY
) -> LoopProgram:
    """Conditional form of the retime-then-unfold loop.

    ``r`` is a retiming of ``g``; ``f`` the unfolding factor.  Register
    count is ``|N_r|`` regardless of ``f``.
    """
    if f < 1:
        raise DFGError(f"unfolding factor must be >= 1, got {f}")
    r = r.normalized()
    r.check_legal()
    order_nodes = topological_order(r.apply())
    order = [(v, j) for j in range(f) for v in order_nodes]
    shifts = {(v, j): j + r[v] for v in g.node_names() for j in range(f)}
    return predicated_program(
        g,
        f=f,
        shifts=shifts,
        body_order=order,
        mode=mode,
        name=f"{g.name}.csr_retimed_unfolded_x{f}",
        meta={
            "kind": "csr-retimed-unfolded",
            "retiming": r.as_dict(),
            "max_retiming": r.max_value,
        },
    )


def csr_unfold_retimed_loop(g: DFG, r_gf: Retiming, f: int) -> LoopProgram:
    """Conditional form of the unfold-then-retime loop.

    ``r_gf`` retimes the copies of ``unfold(g, f)``.  Register count is the
    number of distinct copy retiming values.
    """
    if f < 1:
        raise DFGError(f"unfolding factor must be >= 1, got {f}")
    gf = unfold(g, f)
    if set(r_gf.graph.node_names()) != set(gf.node_names()):
        raise DFGError("retiming is not over the unfolded copies of g")
    r_gf = r_gf.normalized()
    r_gf.check_legal()
    order = [parse_copy_name(c) for c in topological_order(r_gf.apply())]
    shifts = {
        (v, j): j + f * r_gf[copy_name(v, j)]
        for v in g.node_names()
        for j in range(f)
    }
    return predicated_program(
        g,
        f=f,
        shifts=shifts,
        body_order=order,
        mode=PER_ITERATION,
        name=f"{g.name}.csr_unfold_retimed_x{f}",
        meta={
            "kind": "csr-unfold-retimed",
            "retiming": r_gf.as_dict(),
            "max_retiming": r_gf.max_value,
        },
    )
