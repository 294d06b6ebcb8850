"""Workload graphs: the paper's DSP benchmarks and worked examples."""

from .. import _lazy_exports

# `figure8` shares its submodule's name, so it is bound now: importing the
# submodule later would otherwise set the package attribute to the module.
from .figure8 import figure8

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".extra": ("biquad_cascade", "fir_filter", "lms_filter"),
        ".filters": (
            "all_pole_filter",
            "differential_equation",
            "elliptic_filter",
            "iir_filter",
            "lattice_filter",
            "volterra_filter",
        ),
        ".paper_examples": ("figure1", "figure2_example", "figure4_loop"),
        ".registry": (
            "BENCHMARKS",
            "PAPER_LABELS",
            "WORKLOADS",
            "benchmark_graphs",
            "get_workload",
        ),
    },
)

__all__ = [
    "biquad_cascade",
    "fir_filter",
    "lms_filter",
    "figure8",
    "all_pole_filter",
    "differential_equation",
    "elliptic_filter",
    "iir_filter",
    "lattice_filter",
    "volterra_filter",
    "figure1",
    "figure2_example",
    "figure4_loop",
    "BENCHMARKS",
    "PAPER_LABELS",
    "WORKLOADS",
    "benchmark_graphs",
    "get_workload",
]
