"""Data-flow-graph substrate: graphs, validation, periods, bounds, W/D.

This package implements everything the paper's Section 2.1 assumes about
data-flow graphs: the graph structure itself (:class:`~repro.graph.DFG`),
legality validation, the cycle period and critical paths, the exact
iteration bound, and the Leiserson–Saxe ``W``/``D`` matrices that drive
optimal retiming.
"""

from .. import _lazy_exports

# These three functions share their submodule's name, so they are bound
# now: importing the submodule later would otherwise set the package
# attribute to the module.  Every other export resolves on first access.
from .critical_cycle import critical_cycle, cycle_stats
from .iteration_bound import (
    iteration_bound,
    iteration_bound_exhaustive,
    minimum_unfolding_for_rate_optimality,
)
from .validate import is_valid, topological_order, validate

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".dfg": ("DFG", "DFGError", "Edge", "MODULUS", "Node", "OpKind", "evaluate_op"),
        ".kernel": ("EdgeKernel",),
        ".period": ("alap_times", "asap_times", "critical_path", "cycle_period"),
        ".serialize": ("GraphFormatError", "from_json", "load_graph", "to_dot", "to_json"),
        ".wd": ("wd_kernel",),
    },
)

__all__ = [
    "critical_cycle",
    "cycle_stats",
    "DFG",
    "DFGError",
    "Edge",
    "Node",
    "OpKind",
    "evaluate_op",
    "MODULUS",
    "EdgeKernel",
    "iteration_bound",
    "iteration_bound_exhaustive",
    "minimum_unfolding_for_rate_optimality",
    "alap_times",
    "asap_times",
    "critical_path",
    "cycle_period",
    "is_valid",
    "topological_order",
    "validate",
    "wd_kernel",
    "GraphFormatError",
    "from_json",
    "load_graph",
    "to_dot",
    "to_json",
]
