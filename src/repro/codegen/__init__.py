"""Loop-program IR and code generators for every transformed loop form.

Programs for: the original loop, the software-pipelined loop
(prologue/body/epilogue), the unfolded loop (+ remainder), and the two
retiming+unfolding orders.  The conditional-register (CSR) forms live in
:mod:`repro.core`, the executing VM in :mod:`repro.machine`.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".c_emitter": ("emit_c",),
        ".combined": ("retimed_unfolded_loop", "unfold_retimed_loop"),
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
        ".pipelined": ("pipelined_loop",),
        ".printer": ("format_program",),
        ".unfolded": ("unfolded_loop",),
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
