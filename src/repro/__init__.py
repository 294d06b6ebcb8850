"""repro — optimal code-size reduction for software-pipelined DSP loops.

A complete, executable reproduction of Zhuge, Xiao, Shao, Sha &
Chantrapornchai (2002): retiming-based software pipelining, unfolding, and
the conditional-register framework that removes *all* code-size expansion
(prologue, epilogue, remainder iterations) those transformations introduce.

Quickstart::

    from repro import DFG, OpKind, minimize_cycle_period
    from repro import csr_pipelined_loop, assert_equivalent

    g = DFG("loop")
    g.add_node("A", op=OpKind.MUL, imm=3)
    g.add_node("B", op=OpKind.ADD, imm=7)
    g.add_node("C", op=OpKind.MUL, imm=2)
    g.add_edge("B", "A", 3)
    g.add_edge("A", "B", 0)
    g.add_edge("B", "C", 0)

    period, r = minimize_cycle_period(g)   # software-pipeline the loop
    program = csr_pipelined_loop(g, r)     # optimal-size predicated form
    assert_equivalent(g, program, n=100)   # prove it on the VM

Subpackages
-----------
``repro.graph``      data-flow graphs, cycle period, iteration bound, W/D
``repro.retiming``   retiming functions, optimal retiming (LS), FEAS
``repro.unfolding``  the G -> G_f transformation; both composition orders
``repro.schedule``   list scheduling, rotation scheduling, resources
``repro.codegen``    loop-program IR and plain code generators
``repro.machine``    the predicated virtual DSP machine
``repro.core``       the CSR framework, size models, trade-off explorer
``repro.workloads``  the paper's benchmarks and worked examples
``repro.analysis``   drivers regenerating the paper's tables
``repro.runner``     parallel cached experiment engine + differential sweeps
"""

import importlib
import sys


def _lazy_exports(package, exports):
    """PEP 562 ``(__getattr__, __dir__)`` for a package's exports.

    ``exports`` maps a submodule (relative, like ``".engine"``) to the
    names it provides.  Importing the package imports none of them; each
    submodule loads the first time one of its names is read (attribute
    access, ``from package import name`` or ``import *``), and the value
    is then cached on the package.  Names outside the table raise
    :class:`AttributeError`.  Every package uses it; it lives here
    because ``import repro`` must load no submodule.

    A name that equals its own submodule's name (``repro.graph.validate``)
    cannot be lazy: importing the submodule binds the module on the
    package, over the function, and ``__getattr__`` is never consulted.
    Such packages import those names directly.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__


# `import repro` loads no subpackage, so the CLI and pool workers pay only
# for what they run.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".graph": (
            "DFG",
            "DFGError",
            "Edge",
            "Node",
            "OpKind",
            "cycle_period",
            "iteration_bound",
            "topological_order",
            "validate",
        ),
        ".retiming": (
            "Retiming",
            "RetimingError",
                    "minimize_cycle_period",
            "rate_optimal_retiming",
            "retime_for_period",
        ),
        ".unfolding": ("retime_unfold", "unfold", "unfold_retime"),
        ".schedule": ("ResourceModel", "list_schedule", "rotation_schedule"),
        ".codegen": (
            "LoopProgram",
            "format_program",
            "original_loop",
            "pipelined_loop",
            "retimed_unfolded_loop",
            "unfold_retimed_loop",
            "unfolded_loop",
        ),
        ".machine": ("MachineError", "run_program"),
        ".core": (
            "assert_equivalent",
            "best_under_budget",
            "csr_pipelined_loop",
            "csr_retimed_unfolded_loop",
            "csr_unfold_retimed_loop",
            "csr_unfolded_loop",
            "design_space",
            "equivalent",
            "limit_registers",
        ),
        ".compiler": ("CompilationResult", "compile_loop"),
        ".frontend": ("ParseError", "parse_loop"),
        ".runner": ("ExperimentEngine", "Job", "ResultCache", "differential_sweep"),
        ".workloads": ("benchmark_graphs", "get_workload"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "DFG",
    "DFGError",
    "Edge",
    "Node",
    "OpKind",
    "cycle_period",
    "iteration_bound",
    "topological_order",
    "validate",
    "Retiming",
    "RetimingError",
    "minimize_cycle_period",
    "rate_optimal_retiming",
    "retime_for_period",
    "retime_unfold",
    "unfold",
    "unfold_retime",
    "ResourceModel",
    "list_schedule",
    "rotation_schedule",
    "LoopProgram",
    "format_program",
    "original_loop",
    "pipelined_loop",
    "retimed_unfolded_loop",
    "unfold_retimed_loop",
    "unfolded_loop",
    "MachineError",
    "run_program",
    "assert_equivalent",
    "best_under_budget",
    "csr_pipelined_loop",
    "csr_retimed_unfolded_loop",
    "csr_unfold_retimed_loop",
    "csr_unfolded_loop",
    "design_space",
    "equivalent",
    "limit_registers",
    "CompilationResult",
    "compile_loop",
    "ParseError",
    "parse_loop",
    "ExperimentEngine",
    "Job",
    "ResultCache",
    "differential_sweep",
    "benchmark_graphs",
    "get_workload",
    "__version__",
]
