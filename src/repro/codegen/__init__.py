"""Loop-program IR and code generators for every transformed loop form.

:mod:`.original` emits the reference loop that every program is checked
against.  :mod:`.expanded` emits the software-pipelined loop (prologue,
body, epilogue), the unfolded loop (+ remainder) and both
retiming+unfolding orders from one slot table and one emitter.  The
conditional-register (CSR) forms of the same slot tables live in
:mod:`repro.core.predicated`, the executing VM in :mod:`repro.machine`.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".c_emitter": ("emit_c",),
        ".expanded": (
            "pipelined_loop",
            "retimed_unfolded_loop",
            "unfold_retimed_loop",
            "unfolded_loop",
        ),
        ".ir": (
            "ComputeInstr",
            "DecInstr",
            "Guard",
            "IndexBase",
            "IndexExpr",
            "Instr",
            "Loop",
            "LoopProgram",
            "Operand",
            "SetupInstr",
        ),
        ".original": ("compute_for_node", "original_loop"),
        ".printer": ("format_program",),
    },
)

__all__ = [
    "emit_c",
    "retimed_unfolded_loop",
    "unfold_retimed_loop",
    "ComputeInstr",
    "DecInstr",
    "Guard",
    "IndexBase",
    "IndexExpr",
    "Instr",
    "Loop",
    "LoopProgram",
    "Operand",
    "SetupInstr",
    "compute_for_node",
    "original_loop",
    "pipelined_loop",
    "format_program",
    "unfolded_loop",
]
