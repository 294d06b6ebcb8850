"""Virtual DSP machine with conditional registers.

Stands in for the paper's predicated VLIW hardware: executes loop programs
from :mod:`repro.codegen`, enforcing the ``setup p = init : -LC`` predicate
window, single-assignment of array instances and write-range discipline —
so that "the transformed program computes the same arrays" is checked by
actually running both.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".registers": ("ConditionalRegisterFile", "MachineError"),
        ".vliw_vm": ("PackedResult", "run_packed"),
        ".vm": ("ExecutionTrace", "TraceEvent", "VMResult", "default_initial", "run_program"),
    },
)

__all__ = [
    "ConditionalRegisterFile",
    "MachineError",
    "ExecutionTrace",
    "TraceEvent",
    "PackedResult",
    "run_packed",
    "VMResult",
    "default_initial",
    "run_program",
]
