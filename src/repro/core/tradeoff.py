"""Code-size / performance trade-off exploration (end of Section 4).

The paper closes with two inverse formulas — given a code-size budget
``L_req``, the maximum unfolding factor for a retimed loop is
``M_f = floor(L_req / L_orig) - M_r``, and given a factor the maximum
pipeline depth is ``M_r = floor(L_req / L_orig) - f`` — and suggests using
them to explore the design space.  This module implements the formulas and
a concrete explorer that sweeps unfolding factors, computes the exact best
iteration period per factor (via :func:`repro.unfolding.retime_unfold`) and
reports plain and CSR code sizes, so a designer can pick the fastest
configuration that fits memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..graph.dfg import DFG, DFGError
from ..retiming.function import Retiming
from ..unfolding.orders import retime_unfold
from .codesize import (
    size_csr_retime_unfold,
    size_retime_unfold,
)
from .codesize import PER_COPY

__all__ = [
    "max_unfolding_factor",
    "max_retiming_depth",
    "TradeoffPoint",
    "design_space",
    "best_under_budget",
]


def max_unfolding_factor(l_req: int, l_orig: int, m_r: int) -> int:
    """``M_f = floor(L_req / L_orig) - M_r`` (may be <= 0: budget too small)."""
    if l_orig < 1:
        raise DFGError("original code size must be >= 1")
    return l_req // l_orig - m_r


def max_retiming_depth(l_req: int, l_orig: int, f: int) -> int:
    """``M_r = floor(L_req / L_orig) - f`` (may be < 0: budget too small)."""
    if l_orig < 1:
        raise DFGError("original code size must be >= 1")
    return l_req // l_orig - f


@dataclass(frozen=True)
class TradeoffPoint:
    """One design point of the code-size/performance space.

    ``size_plain`` is Theorem 4.5's retime-unfold size (without remainder);
    ``size_csr`` the conditional-register size (per-copy convention).
    """

    factor: int
    retiming: Retiming
    period: int
    iteration_period: Fraction
    registers: int
    size_plain: int
    size_csr: int


def design_space(g: DFG, max_factor: int = 4) -> list[TradeoffPoint]:
    """Sweep unfolding factors ``1 .. max_factor`` with exact best retiming.

    Each point's iteration period is the true optimum for that factor
    (retime-then-unfold, which matches unfold-then-retime by Chao–Sha).
    """
    points: list[TradeoffPoint] = []
    for f in range(1, max_factor + 1):
        result = retime_unfold(g, f)
        r = result.retiming
        points.append(
            TradeoffPoint(
                factor=f,
                retiming=r,
                period=result.period,
                iteration_period=result.iteration_period,
                registers=r.registers_needed(),
                size_plain=size_retime_unfold(g, r, f),
                size_csr=size_csr_retime_unfold(g, r, f, mode=PER_COPY),
            )
        )
    return points


def best_under_budget(
    points: list[TradeoffPoint],
    l_req: int,
    use_csr: bool = True,
    max_registers: int | None = None,
) -> TradeoffPoint | None:
    """The fastest point whose code size (CSR or plain) fits ``l_req``.

    Ties in iteration period break toward smaller code; ``max_registers``
    additionally filters points needing more conditional registers than the
    target machine has.  Returns ``None`` when nothing fits.
    """
    feasible = [
        p
        for p in points
        if (p.size_csr if use_csr else p.size_plain) <= l_req
        and (max_registers is None or p.registers <= max_registers)
    ]
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda p: (p.iteration_period, p.size_csr if use_csr else p.size_plain),
    )
