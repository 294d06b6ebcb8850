"""Exact-optimal oracles for retiming and modulo scheduling.

The ground-truth side of the differential test battery: certified optima
(period, code size, initiation interval) that the heuristic stack —
:func:`repro.retiming.optimal.minimize_cycle_period`, rotation scheduling,
iterative modulo scheduling — is pinned against by ``python -m repro sweep
--oracle`` and the property suite under ``tests/optimal/``.

Two independent decision procedures cross-check each other:

* :mod:`repro.optimal.period` / :mod:`repro.optimal.modulo` — integer
  lattice binary search and branch-and-bound over difference-constraint
  feasibility, with self-verified witnesses and bounded-gap timeout
  degradation;
* :mod:`repro.optimal.brute` — budgeted exhaustive enumeration over a
  provably optimum-containing box (solver-verifies-solver).

See ``docs/OPTIMAL.md`` for the formulation and gap semantics.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".brute": (
            "BruteForceBudgetExceeded",
            "brute_force_cycle_period",
            "brute_force_initiation_interval",
            "brute_force_min_max_retiming",
            "enumerate_normalized_retimings",
        ),
        ".modulo": ("OptimalII", "optimal_initiation_interval"),
        ".period": (
            "OptimalPeriod",
            "minimal_code_size",
            "minimize_max_retiming",
            "optimal_cycle_period",
            "period_lower_bound",
        ),
    },
)

__all__ = [
    "BruteForceBudgetExceeded",
    "brute_force_cycle_period",
    "brute_force_initiation_interval",
    "brute_force_min_max_retiming",
    "enumerate_normalized_retimings",
    "OptimalII",
    "optimal_initiation_interval",
    "OptimalPeriod",
    "minimal_code_size",
    "minimize_max_retiming",
    "optimal_cycle_period",
    "period_lower_bound",
]
