"""Closed-form code-size models (Section 4 of the paper).

All sizes count static instructions, the paper's metric ("the number of
nodes in a schedule including prologue and epilogue", plus setup/decrement
overhead for conditional code).  Every model here is validated in the
test-suite against instruction counts of actually generated programs.

Notation: ``L = |V|`` (original loop body size), ``M_r = max_v r(v)`` for a
normalized retiming, ``N_r`` the set of distinct retiming values, ``f`` the
unfolding factor, ``Q`` a remainder-iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.dfg import DFG
from ..retiming.function import Retiming

__all__ = [
    "PER_COPY",
    "PER_ITERATION",
    "size_original",
    "size_pipelined",
    "size_unfolded",
    "size_retime_unfold",
    "size_unfold_retime",
    "size_csr_pipelined",
    "size_csr_unfolded",
    "size_csr_retime_unfold",
    "size_csr_unfold_retime",
    "remainder_iterations",
    "CodeSizeReport",
    "report_retimed",
    "report_retimed_unfolded",
]

#: The two decrement conventions of :func:`~repro.core.predicated.predicated_program`
#: (see its module docstring), which the CSR size models take as ``mode``.
PER_COPY = "per-copy"
PER_ITERATION = "per-iteration"


def size_original(g: DFG) -> int:
    """``L = |V|``."""
    return g.num_nodes


def size_pipelined(g: DFG, r: Retiming) -> int:
    """``(M_r + 1) * L`` — prologue + body + epilogue (Table 1, "Ret.")."""
    r = r.normalized()
    return (r.max_value + 1) * g.num_nodes


def remainder_iterations(n: int, f: int, shift: int = 0) -> int:
    """Remainder iterations peeled by unfolding: ``(n - shift) mod f``.

    ``shift = 0`` is the paper's ``n mod f``; retime-then-unfold programs
    peel relative to the pipelined trip count (``shift = M_r``).
    """
    return (n - shift) % f


def size_unfolded(g: DFG, f: int, remainder: int = 0) -> int:
    """``f * L + Q * L`` with ``Q`` remainder iterations."""
    return (f + remainder) * g.num_nodes


def size_retime_unfold(g: DFG, r: Retiming, f: int, remainder: int = 0) -> int:
    """Theorem 4.5: ``S_{r,f} = (M_r + f) * L + Q_f`` with
    ``Q_f = remainder * L``."""
    r = r.normalized()
    return (r.max_value + f + remainder) * g.num_nodes


def size_unfold_retime(g: DFG, r_gf: Retiming, f: int, remainder: int = 0) -> int:
    """Theorem 4.4: ``S_{f,r} = (M_{r'} + 1) * L * f + Q_f``."""
    r_gf = r_gf.normalized()
    return (r_gf.max_value + 1) * g.num_nodes * f + remainder * g.num_nodes


def size_csr_pipelined(g: DFG, r: Retiming) -> int:
    """``L + 2 * |N_r|`` — Table 1, "CR"."""
    return g.num_nodes + 2 * r.normalized().registers_needed()


def size_csr_unfolded(g: DFG, f: int) -> int:
    """``f * L + 2`` — Section 3.3's single-register scheme."""
    return f * g.num_nodes + 2


def size_csr_retime_unfold(g: DFG, r: Retiming, f: int, mode: str = PER_COPY) -> int:
    """CSR size of the retime-unfold loop.

    ``per-copy`` (Figure 7(a), Tables 2/4): ``f * L + |N_r| * (f + 1)``;
    ``per-iteration`` (Table 3): ``f * L + 2 * |N_r|``.
    """
    regs = r.normalized().registers_needed()
    if mode == PER_COPY:
        return f * g.num_nodes + regs * (f + 1)
    if mode == PER_ITERATION:
        return f * g.num_nodes + 2 * regs
    raise ValueError(f"unknown decrement mode {mode!r}")


def size_csr_unfold_retime(g: DFG, r_gf: Retiming, f: int) -> int:
    """CSR size of the unfold-retime loop (per-iteration convention):
    ``f * L + 2 * |N_{r'}|`` with ``N_{r'}`` the distinct *copy* values."""
    regs = r_gf.normalized().registers_needed()
    return f * g.num_nodes + 2 * regs


@dataclass(frozen=True)
class CodeSizeReport:
    """One benchmark row of the paper's tables.

    ``reduction_pct`` is ``100 * (expanded - csr) / expanded`` — the
    paper's "% Red." column.
    """

    name: str
    original: int
    expanded: int
    csr: int
    registers: int

    @property
    def reduction_pct(self) -> float:
        if self.expanded == 0:
            return 0.0
        return 100.0 * (self.expanded - self.csr) / self.expanded


def report_retimed(g: DFG, r: Retiming) -> CodeSizeReport:
    """Table-1-style row for a retimed loop."""
    r = r.normalized()
    return CodeSizeReport(
        name=g.name,
        original=size_original(g),
        expanded=size_pipelined(g, r),
        csr=size_csr_pipelined(g, r),
        registers=r.registers_needed(),
    )


def report_retimed_unfolded(
    g: DFG, r: Retiming, f: int, remainder: int = 0, mode: str = PER_COPY
) -> CodeSizeReport:
    """Table-2-style row for a retimed-then-unfolded loop."""
    r = r.normalized()
    return CodeSizeReport(
        name=g.name,
        original=size_original(g),
        expanded=size_retime_unfold(g, r, f, remainder),
        csr=size_csr_retime_unfold(g, r, f, mode),
        registers=r.registers_needed(),
    )
