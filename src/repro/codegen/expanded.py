"""Expanded code generation for every transformed loop, from one slot table.

Each transform is a *slot table*: slots ``(v, j, rho)`` in body order, copy
``j < w`` of node ``v`` with normalized retiming value ``rho``; one
pipelined iteration spans ``w`` original iterations and the steady state is
unrolled ``u`` times:

=============================  ============================  =====  =====
generator                      slots, in body order          ``w``  ``u``
=============================  ============================  =====  =====
:func:`pipelined_loop`         ``(v, 0, r(v))``, topo G_r    1      1
:func:`unfolded_loop`          ``(v, 0, 0)``, topo G         1      f
:func:`retimed_unfolded_loop`  ``(v, 0, r(v))``, topo G_r    1      f
:func:`unfold_retimed_loop`    ``(v, j, r'(v#j))``           f      1
=============================  ============================  =====  =====

:func:`_expanded` emits all four: copy ``t < u`` of a slot computes
instance ``i + t*w + w*rho + j`` in the body, and the prologue (``pre``),
the leftover and epilogue iterations and the peeled ``residue`` instances
(``post``) bring the size to ``(M + u + leftover) * |slots| + residue *
|V|`` with ``M = max rho`` — Theorems 4.4/4.5, counted in
``docs/THEORY.md`` §1.  Each program is specialized on a trip-count residue
(``meta``, checked by the VM).  :mod:`repro.core.predicated` emits the CSR
forms of the same tables; :func:`~repro.codegen.original_loop` stays a
separate loop, the reference every program is checked against.
"""

from __future__ import annotations

from typing import Sequence

from ..graph.dfg import DFG, DFGError
from ..graph.validate import topological_order
from ..retiming.function import Retiming
from ..unfolding.unfold import parse_copy_name, unfold
from .ir import IndexExpr, Loop, LoopProgram
from .original import compute_for_node

__all__ = [
    "pipelined_loop",
    "retimed_unfolded_loop",
    "unfold_retimed_loop",
    "unfolded_loop",
]

#: ``(node, copy, normalized retiming value)``.
_Slot = tuple[str, int, int]


def _check_factor(f: int, peel: int | None = None, what: str = "residue") -> None:
    """Raise unless ``f >= 1`` and, when given, ``0 <= peel < f``."""
    if f < 1:
        raise DFGError(f"unfolding factor must be >= 1, got {f}")
    if peel is not None and not 0 <= peel < f:
        raise DFGError(f"{what} must be in [0, {f}), got {peel}")


def _plain_slots(g: DFG) -> list[_Slot]:
    """``(v, 0, 0)`` for every node, in ``g``'s topological order."""
    return [(v, 0, 0) for v in topological_order(g)]


def _retimed_slots(r: Retiming) -> tuple[Retiming, list[_Slot]]:
    """``r`` normalized and checked legal, and ``(v, 0, r(v))`` in the
    topological order of ``G_r``."""
    r = r.normalized()
    r.check_legal()
    return r, [(v, 0, r[v]) for v in topological_order(r.apply())]


def _copy_slots(g: DFG, r_gf: Retiming, f: int) -> tuple[Retiming, list[_Slot]]:
    """``r_gf`` (a retiming of ``unfold(g, f)``) normalized and checked
    legal, and ``(v, j, r'(v#j))`` in the topological order of the retimed
    unfolded graph."""
    if set(r_gf.graph.node_names()) != set(unfold(g, f).node_names()):
        raise DFGError("retiming is not over the unfolded copies of g")
    r_gf = r_gf.normalized()
    r_gf.check_legal()
    slots = []
    for c in topological_order(r_gf.apply()):
        v, j = parse_copy_name(c)
        slots.append((v, j, r_gf[c]))
    return r_gf, slots


def _expanded(
    g: DFG,
    slots: Sequence[_Slot],
    w: int,
    u: int,
    name: str,
    meta: dict,
    leftover: int = 0,
    residue: int = 0,
) -> LoopProgram:
    """The program of a slot table: ``pre`` runs outer iterations
    ``K = 1-M .. 0``, ``post`` runs ``K = 1-M-leftover .. 0`` and then the
    ``residue`` peeled instances in ``g``'s topological order."""
    m = max((rho for _, _, rho in slots), default=0)
    pre = tuple(
        compute_for_node(g, v, IndexExpr.const((k + rho - 1) * w + j + 1))
        for k in range(1 - m, 1)
        for v, j, rho in slots
        if k + rho >= 1
    )
    body = tuple(
        compute_for_node(g, v, IndexExpr.loop(t * w + w * rho + j))
        for t in range(u)
        for v, j, rho in slots
    )
    post = [
        compute_for_node(g, v, IndexExpr.trip(-residue + (k + rho - 1) * w + j + 1))
        for k in range(1 - m - leftover, 1)
        for v, j, rho in slots
        if k + rho <= 0
    ]
    if residue:
        order = topological_order(g)
        post += [
            compute_for_node(g, v, IndexExpr.trip(k)) for k in range(1 - residue, 1) for v in order
        ]
    return LoopProgram(
        name=name,
        pre=pre,
        loop=Loop(
            start=IndexExpr.const(1),
            end=IndexExpr.trip(-residue - (m + leftover + 1) * w + 1),
            step=u * w,
            body=body,
        ),
        post=tuple(post),
        meta=meta,
    )


def pipelined_loop(g: DFG, r: Retiming) -> LoopProgram:
    """The software-pipelined program for retiming ``r`` of graph ``g``.

    ``r`` must be legal; it is normalized internally.  The generated program
    is only runnable for trip counts ``n >= M_r`` (recorded as
    ``meta["min_n"]``; the conditional-register form
    :func:`repro.core.csr_pipelined_loop` has no such restriction).
    """
    r, slots = _retimed_slots(r)
    m = r.max_value
    meta = {
        "kind": "pipelined",
        "graph": g.name,
        "retiming": r.as_dict(),
        "max_retiming": m,
        "min_n": m,
    }
    return _expanded(g, slots, 1, 1, f"{g.name}.pipelined", meta)


def unfolded_loop(g: DFG, f: int, residue: int = 0) -> LoopProgram:
    """The unfolded program for factor ``f`` and trip-count residue
    ``residue = n mod f``.

    The program is runnable only for trip counts with that residue (checked
    by the VM via ``meta``).
    """
    _check_factor(f, residue)
    meta = {
        "kind": "unfolded",
        "graph": g.name,
        "factor": f,
        "residue": residue,
        # VM contract: (n - residue_shift) mod factor == residue.
        "residue_shift": 0,
        "min_n": residue,
    }
    name = f"{g.name}.unfolded_x{f}"
    return _expanded(g, _plain_slots(g), 1, f, name, meta, leftover=residue)


def retimed_unfolded_loop(g: DFG, r: Retiming, f: int, leftover: int = 0) -> LoopProgram:
    """Retime-then-unfold program for retiming ``r`` (of ``g``), factor
    ``f`` and pipelined-trip-count residue ``leftover = (n - M_r) mod f``.
    """
    _check_factor(f, leftover, "leftover")
    r, slots = _retimed_slots(r)
    m = r.max_value
    meta = {
        "kind": "retimed-unfolded",
        "graph": g.name,
        "retiming": r.as_dict(),
        "max_retiming": m,
        "factor": f,
        "residue": leftover,
        "residue_shift": m,  # VM contract: (n - M_r) mod f == leftover
        "min_n": m + leftover,
    }
    name = f"{g.name}.retimed_unfolded_x{f}"
    return _expanded(g, slots, 1, f, name, meta, leftover=leftover)


def unfold_retimed_loop(g: DFG, r_gf: Retiming, f: int, residue: int = 0) -> LoopProgram:
    """Unfold-then-retime program.

    ``r_gf`` is a (normalized, legal) retiming of ``unfold(g, f)`` — its
    keys are copy names ``v#j``.  ``residue = n mod f`` instances are peeled
    after the pipelined unfolded loop.

    The outer loop variable ``i`` advances by ``f`` per outer iteration;
    copy ``v#j`` with retiming value ``r'`` computes instance
    ``i + f * r' + j``.
    """
    _check_factor(f, residue)
    r_gf, slots = _copy_slots(g, r_gf, f)
    m = r_gf.max_value
    meta = {
        "kind": "unfold-retimed",
        "graph": g.name,
        "retiming": r_gf.as_dict(),
        "max_retiming": m,
        "factor": f,
        "residue": residue,
        "residue_shift": 0,
        "min_n": residue + (m + 1) * f,
    }
    name = f"{g.name}.unfold_retimed_x{f}"
    return _expanded(g, slots, f, 1, name, meta, residue=residue)
