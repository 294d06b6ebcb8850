"""Generic conditional-register code generator.

Every CSR (code-size-reduction) form in the paper is an instance of one
scheme, implemented here once.  The transformed loop body contains ``f``
*slots* (``f = 1`` for plain retiming); the copy of node ``v`` in slot ``j``
carries an *instance shift* ``sigma(v, j)``: at loop index ``i`` (stepping
by ``f`` from ``base``), it computes instance ``i + sigma(v, j)`` of ``v``,
guarded so that only instances ``1 .. n`` execute.

Let ``c(v, j) = sigma(v, j) - j`` be the copy's *register class* and
``C = max c``.  With ``base = 1 - C`` and one conditional register per
distinct class, initialized by ``setup p_c = C - c : -LC``, the guard window
``-LC < p <= 0`` enables exactly the in-range instances:

* slot ``j`` of loop iteration ``k`` sees ``p_c = 1 - (base + k f + j + c)``
  — which is ``<= 0`` iff the instance is ``>= 1`` and ``> -LC`` iff the
  instance is ``<= n``.

The loop ``for i = base to n by f`` runs ``ceil((n + C)/f)`` iterations for
*every* trip count — no prologue, no epilogue, no remainder, no
residue-specialization — which is precisely the paper's "optimal code size"
claim (Theorems 4.3 and 4.7).

Two decrement conventions are supported, matching the two accountings the
paper's tables use:

``per-copy`` (Figure 7(a); Tables 2 and 4)
    every register is decremented by 1 after each slot; overhead
    ``|classes| * (f + 1)``; requires the body to be emitted slot-major.
``per-iteration`` (Figure 5(b); Tables 1 and 3)
    every register is decremented by ``f`` once per iteration, and each
    instruction's guard carries offset ``-j`` instead; overhead
    ``2 * |classes|``; any dependency-respecting body order is legal.

Instantiations: every transformed loop is a slot table (see
:mod:`repro.codegen.expanded`, which emits its expanded program) with ``w``
copies per pipelined iteration, unrolled ``u`` times.  Its CSR form has
``f = u * w`` slots, in ``t``-major body order: slot ``t * w + j`` of
``v`` carries ``sigma = t * w + w * rho + j``.

=====================  =============================  ===  ===  =================
form                   ``sigma(v, j)``                w    u    classes
=====================  =============================  ===  ===  =================
retimed (Thm 4.3)      ``r(v)`` (``f = 1``)           1    1    ``N_r``
unfolded (Sec 3.3)     ``j``                          1    f    ``{0}`` (1 reg)
retime-unfold (4.7)    ``j + r(v)``                   1    f    ``N_r``
unfold-retime          ``j + f * r'(v#j)``            f    1    ``f * N_{r'}``
=====================  =============================  ===  ===  =================

All ``f`` copies of a retime-unfold node share the register of class
``r(v)`` (Theorem 4.7's ``P_{r,f} = P_r``); each unfold-retime copy has its
own class, and since its zero-delay dependencies may cross slots either
way, that form always uses ``per-iteration``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..codegen.expanded import _check_factor, _copy_slots, _plain_slots, _retimed_slots
from ..codegen.ir import DecInstr, Guard, IndexExpr, Instr, Loop, LoopProgram, SetupInstr
from ..codegen.original import compute_for_node
from ..graph.dfg import DFG, DFGError
from ..observability import count, span
from ..retiming.function import Retiming
from .codesize import PER_COPY, PER_ITERATION

__all__ = [
    "csr_pipelined_loop",
    "csr_retimed_unfolded_loop",
    "csr_unfold_retimed_loop",
    "csr_unfolded_loop",
    "predicated_program",
]


def predicated_program(
    g: DFG,
    f: int,
    shifts: Mapping[tuple[str, int], int],
    body_order: Sequence[tuple[str, int]],
    mode: str = PER_COPY,
    name: str | None = None,
    meta: dict | None = None,
) -> LoopProgram:
    """Build the predicated (CSR) program.

    Parameters
    ----------
    g:
        The original graph — instance-level dependencies (``u[m - d]``) and
        node operations come from here.
    f:
        Number of slots in the body (the unfolding factor; 1 for plain
        retiming).
    shifts:
        ``(node, slot) -> sigma``; must cover every node for every slot
        ``0 .. f-1``.
    body_order:
        Emission order of the ``(node, slot)`` copies; must be a
        permutation of ``shifts``' keys and respect all intra-iteration
        dependencies of the transformed loop (the public wrappers in
        :mod:`repro.core` construct provably safe orders).
    mode:
        :data:`PER_COPY` or :data:`PER_ITERATION` (see module docstring).
    """
    if f < 1:
        raise DFGError(f"slot count must be >= 1, got {f}")
    expected = {(v, j) for v in g.node_names() for j in range(f)}
    if set(shifts) != expected:
        raise DFGError("shifts must cover every (node, slot) pair exactly")
    if sorted(body_order) != sorted(expected):
        raise DFGError("body_order must be a permutation of the (node, slot) pairs")
    if mode not in (PER_COPY, PER_ITERATION):
        raise DFGError(f"unknown decrement mode {mode!r}")
    if mode == PER_COPY:
        slots = [j for (_, j) in body_order]
        if slots != sorted(slots):
            raise DFGError("per-copy mode requires a slot-major body order")

    classes = sorted({shifts[(v, j)] - j for (v, j) in expected}, reverse=True)
    c_max = classes[0]
    base = 1 - c_max
    register_of = {c: f"p{k + 1}" for k, c in enumerate(classes)}

    pre: tuple[Instr, ...] = tuple(
        SetupInstr(register=register_of[c], init=c_max - c) for c in classes
    )

    body: list[Instr] = []
    if mode == PER_COPY:
        for j in range(f):
            for v, jj in body_order:
                if jj != j:
                    continue
                c = shifts[(v, j)] - j
                body.append(
                    compute_for_node(
                        g, v, IndexExpr.loop(shifts[(v, j)]), guard=Guard(register_of[c])
                    )
                )
            for c in classes:
                body.append(DecInstr(register=register_of[c], amount=1))
    else:
        for v, j in body_order:
            c = shifts[(v, j)] - j
            body.append(
                compute_for_node(
                    g,
                    v,
                    IndexExpr.loop(shifts[(v, j)]),
                    guard=Guard(register_of[c], offset=-j),
                )
            )
        for c in classes:
            body.append(DecInstr(register=register_of[c], amount=f))

    full_meta = {
        "kind": "predicated",
        "graph": g.name,
        "factor": f,
        "mode": mode,
        "classes": classes,
        "registers": len(classes),
        "min_n": 0,
        **(meta or {}),
    }
    return LoopProgram(
        name=name if name is not None else f"{g.name}.csr",
        pre=pre,
        loop=Loop(
            start=IndexExpr.const(base),
            end=IndexExpr.trip(0),
            step=f,
            body=tuple(body),
        ),
        post=(),
        meta=full_meta,
    )


def _from_slots(
    g: DFG, slots: Sequence, w: int, u: int, mode: str, name: str, meta: dict
) -> LoopProgram:
    """The CSR program of a slot table (module docstring)."""
    shifts = {}
    order = []
    for t in range(u):
        for v, j, rho in slots:
            shifts[(v, t * w + j)] = t * w + w * rho + j
            order.append((v, t * w + j))
    return predicated_program(g, u * w, shifts, order, mode=mode, name=name, meta=meta)


def csr_pipelined_loop(g: DFG, r: Retiming) -> LoopProgram:
    """The conditional-register form of the pipelined loop for retiming ``r``.

    Unlike :func:`repro.codegen.pipelined_loop`, the result runs correctly
    for *every* trip count ``n >= 0`` — guards simply disable everything
    out of range, so even ``n < M_r`` needs no special casing.
    """
    count("csr.programs")
    with span("csr.rewrite", graph=g.name, nodes=g.num_nodes):
        r, slots = _retimed_slots(r)
        meta = {"kind": "csr-pipelined", "retiming": r.as_dict(), "max_retiming": r.max_value}
        return _from_slots(g, slots, 1, 1, PER_ITERATION, f"{g.name}.csr_pipelined", meta)


def csr_unfolded_loop(g: DFG, f: int) -> LoopProgram:
    """The single-register conditional form of the unfolded loop."""
    _check_factor(f)
    name = f"{g.name}.csr_unfolded_x{f}"
    return _from_slots(g, _plain_slots(g), 1, f, PER_ITERATION, name, {"kind": "csr-unfolded"})


def csr_retimed_unfolded_loop(
    g: DFG, r: Retiming, f: int, mode: str = PER_COPY
) -> LoopProgram:
    """Conditional form of the retime-then-unfold loop.

    ``r`` is a retiming of ``g``; ``f`` the unfolding factor.  Register
    count is ``|N_r|`` regardless of ``f``.
    """
    _check_factor(f)
    r, slots = _retimed_slots(r)
    meta = {
        "kind": "csr-retimed-unfolded",
        "retiming": r.as_dict(),
        "max_retiming": r.max_value,
    }
    return _from_slots(g, slots, 1, f, mode, f"{g.name}.csr_retimed_unfolded_x{f}", meta)


def csr_unfold_retimed_loop(g: DFG, r_gf: Retiming, f: int) -> LoopProgram:
    """Conditional form of the unfold-then-retime loop.

    ``r_gf`` retimes the copies of ``unfold(g, f)``.  Register count is the
    number of distinct copy retiming values.
    """
    _check_factor(f)
    r_gf, slots = _copy_slots(g, r_gf, f)
    meta = {
        "kind": "csr-unfold-retimed",
        "retiming": r_gf.as_dict(),
        "max_retiming": r_gf.max_value,
    }
    name = f"{g.name}.csr_unfold_retimed_x{f}"
    return _from_slots(g, slots, f, 1, PER_ITERATION, name, meta)
