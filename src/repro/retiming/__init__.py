"""Retiming engine: functions, constraint solving, optimal algorithms.

Implements the paper's Section 2.2 machinery in the paper's own sign
convention (``d_r(e(u->v)) = d(e) + r(u) - r(v)``): retiming functions and
their legality/normalization (:class:`Retiming`), the Bellman–Ford
difference-constraint solver, Leiserson–Saxe optimal retiming (FEAS with
its W/D constraint-solve reference), and rate-optimality analysis.
"""

from .constraints import DifferenceConstraints
from .function import Retiming, RetimingError
from .optimal import minimize_cycle_period, minimum_cycle_period, retime_for_period
from .rate_optimal import RateOptimalResult, rate_optimal_retiming

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
