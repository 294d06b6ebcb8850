"""Retiming engine: functions, constraint solving, optimal algorithms.

Implements the paper's Section 2.2 machinery in the paper's own sign
convention (``d_r(e(u->v)) = d(e) + r(u) - r(v)``): retiming functions and
their legality/normalization (:class:`Retiming`), the Bellman–Ford
difference-constraint solver, Leiserson–Saxe optimal retiming (FEAS with
its W/D constraint-solve reference), and rate-optimality analysis.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".constraints": ("DifferenceConstraints",),
        ".function": ("Retiming", "RetimingError"),
        ".optimal": ("minimize_cycle_period", "minimum_cycle_period", "retime_for_period"),
        ".rate_optimal": ("RateOptimalResult", "rate_optimal_retiming"),
    },
)

__all__ = [
    "DifferenceConstraints",
    "Retiming",
    "RetimingError",
    "minimize_cycle_period",
    "minimum_cycle_period",
    "retime_for_period",
    "RateOptimalResult",
    "rate_optimal_retiming",
]
