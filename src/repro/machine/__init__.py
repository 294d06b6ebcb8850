"""Virtual DSP machine with conditional registers.

Stands in for the paper's predicated VLIW hardware: executes loop programs
from :mod:`repro.codegen`, enforcing the ``setup p = init : -LC`` predicate
window, single-assignment of array instances and write-range discipline —
so that "the transformed program computes the same arrays" is checked by
actually running both.
"""

from .registers import ConditionalRegisterFile, MachineError
from .vliw_vm import PackedResult, run_packed
from .vm import ExecutionTrace, TraceEvent, VMResult, default_initial, run_program

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
