"""One-call compilation driver: loop in, optimal-size pipelined loop out.

Ties the whole library together the way a downstream user wants it::

    from repro import compile_loop
    result = compile_loop(g, resources=ResourceModel(units={"alu": 2, "mul": 1}))
    print(format_program(result.program))

The driver explores unfolding factors, software-pipelines each candidate —
exact retiming when resources are unconstrained, iterative modulo
scheduling otherwise — applies the conditional-register transformation,
enforces optional code-size and register-count budgets, **verifies the
winner on the VM**, and returns the program with its statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codegen.ir import LoopProgram
from .core.predicated import (
    csr_pipelined_loop,
    csr_retimed_unfolded_loop,
    csr_unfold_retimed_loop,
)
from .core.verify import assert_equivalent
from .graph.dfg import DFG, DFGError
from .retiming.function import Retiming
from .schedule.modulo import modulo_schedule
from .schedule.resources import ResourceModel
from .unfolding.orders import retime_unfold
from .unfolding.unfold import unfold

__all__ = ["CompilationResult", "compile_loop"]


@dataclass(frozen=True)
class CompilationResult:
    """Outcome of :func:`compile_loop`.

    Attributes
    ----------
    program:
        The verified conditional-register loop program.
    graph:
        The input graph.
    retiming:
        The retiming used (over original nodes, or over unfolded copies
        when resource-constrained and ``factor > 1``).
    factor:
        Chosen unfolding factor.
    period:
        Schedule length of one (unfolded) loop body in time units.
    iteration_period:
        ``period / factor`` — average time per original iteration.
    code_size / registers:
        Static size and conditional-register count of ``program``.
    verified_n:
        The trip count the program was verified at before being returned.
    """

    program: LoopProgram
    graph: DFG
    retiming: Retiming
    factor: int
    period: int
    iteration_period: Fraction
    code_size: int
    registers: int
    verified_n: int


def _candidate(g: DFG, f: int, resources: ResourceModel) -> tuple[LoopProgram, Retiming, int]:
    """Build the CSR program for factor ``f``; returns (program, retiming,
    body period)."""
    if resources.is_unconstrained():
        res = retime_unfold(g, f)
        r = res.retiming
        if f == 1:
            return csr_pipelined_loop(g, r), r, res.period
        return csr_retimed_unfolded_loop(g, r, f), r, res.period
    if f == 1:
        ms = modulo_schedule(g, resources)
        return csr_pipelined_loop(g, ms.retiming), ms.retiming, ms.ii
    ms = modulo_schedule(unfold(g, f), resources)
    return csr_unfold_retimed_loop(g, ms.retiming, f), ms.retiming, ms.ii


def compile_loop(
    g: DFG,
    resources: ResourceModel | None = None,
    max_unfold: int = 4,
    code_budget: int | None = None,
    max_registers: int | None = None,
    verify_n: int = 7,
) -> CompilationResult:
    """Compile ``g`` to its fastest conditional-register loop within budget.

    Candidates are unfolding factors ``1 .. max_unfold``; the winner is the
    feasible candidate with the smallest iteration period, ties broken by
    smaller code size then smaller factor.  Raises :class:`DFGError` when
    no candidate fits the budgets (the identity program always exists, so
    this only happens when budgets are genuinely too tight).
    """
    if resources is None:
        resources = ResourceModel.unconstrained()
    if max_unfold < 1:
        raise DFGError("max_unfold must be >= 1")

    best: CompilationResult | None = None
    for f in range(1, max_unfold + 1):
        program, r, period = _candidate(g, f, resources)
        size = program.code_size
        regs = len(program.registers())
        if code_budget is not None and size > code_budget:
            continue
        if max_registers is not None and regs > max_registers:
            continue
        ip = Fraction(period, f)
        cand = CompilationResult(
            program=program,
            graph=g,
            retiming=r,
            factor=f,
            period=period,
            iteration_period=ip,
            code_size=size,
            registers=regs,
            verified_n=verify_n,
        )
        if (
            best is None
            or (cand.iteration_period, cand.code_size, cand.factor)
            < (best.iteration_period, best.code_size, best.factor)
        ):
            best = cand

    if best is None:
        raise DFGError(
            f"{g.name}: no configuration fits code_budget={code_budget}, "
            f"max_registers={max_registers} within max_unfold={max_unfold}"
        )
    assert_equivalent(g, best.program, verify_n)
    return best
