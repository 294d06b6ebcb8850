"""Name-indexed registry of all workload graphs.

One stop for benchmarks, examples, and tools: ``get_workload("iir")``
returns a fresh graph; :data:`BENCHMARKS` lists the six Table-1/2 filters
in the paper's row order.
"""

from __future__ import annotations

from typing import Callable

from ..graph.dfg import DFG, DFGError
from .extra import biquad_cascade, fir_filter, lms_filter
from .figure8 import figure8
from .filters import (
    all_pole_filter,
    differential_equation,
    elliptic_filter,
    iir_filter,
    lattice_filter,
    volterra_filter,
)
from .paper_examples import figure1, figure2_example, figure4_loop

__all__ = [
    "BENCHMARKS", "WORKLOADS", "get_workload", "benchmark_graphs", "PAPER_LABELS",
    "UnknownWorkloadError",
]

#: The paper's Table 1/2 rows, in order.
BENCHMARKS: tuple[str, ...] = (
    "iir",
    "diffeq",
    "allpole",
    "elliptic",
    "lattice",
    "volterra",
)

#: Human-readable benchmark names as printed in the paper.
PAPER_LABELS: dict[str, str] = {
    "iir": "IIR Filter",
    "diffeq": "Differential Equation",
    "allpole": "All-pole Filter",
    "elliptic": "Elliptical Filter",
    "lattice": "4-stage Lattice Filter",
    "volterra": "Volter Filter",
}

WORKLOADS: dict[str, Callable[[], DFG]] = {
    "iir": iir_filter,
    "diffeq": differential_equation,
    "allpole": all_pole_filter,
    "elliptic": elliptic_filter,
    "lattice": lattice_filter,
    "volterra": volterra_filter,
    "fir": fir_filter,
    "lms": lms_filter,
    "biquad2": lambda: biquad_cascade(2),
    "biquad4": lambda: biquad_cascade(4),
    "figure1": figure1,
    "figure2": figure2_example,
    "figure4": figure4_loop,
    "figure8": figure8,
}


class UnknownWorkloadError(DFGError):
    """No workload of that name."""


def get_workload(name: str) -> DFG:
    """A fresh instance of the named workload graph."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    return builder()


def benchmark_graphs() -> list[DFG]:
    """Fresh instances of the six paper benchmarks, in table order."""
    return [get_workload(name) for name in BENCHMARKS]
