"""The paper's primary contribution: the code-size reduction framework.

Conditional-register code generation for retimed loops (Theorems 4.1–4.3),
unfolded loops (Section 3.3), and retimed-unfolded loops in both orders
(Theorems 4.6/4.7); the closed-form code-size models of Theorems 4.4/4.5;
semantic verification by execution; register-constrained retiming; and the
code-size/performance trade-off explorer.
"""

from .. import _lazy_exports

# Exports resolve on first access, so the size models (all the paper
# tables need) load without the code generators, the VM or the verifier.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".codesize": (
            "PER_COPY",
            "PER_ITERATION",
            "CodeSizeReport",
            "remainder_iterations",
            "report_retimed",
            "report_retimed_unfolded",
            "size_csr_pipelined",
            "size_csr_retime_unfold",
            "size_csr_unfold_retime",
            "size_csr_unfolded",
            "size_original",
            "size_pipelined",
            "size_retime_unfold",
            "size_unfold_retime",
            "size_unfolded",
        ),
        ".combined_csr": ("csr_retimed_unfolded_loop", "csr_unfold_retimed_loop"),
        ".csr": ("csr_pipelined_loop",),
        ".partial": ("RegisterConstrainedResult", "limit_registers"),
        ".predicated": ("predicated_program",),
        ".tradeoff": (
            "TradeoffPoint",
            "best_under_budget",
            "design_space",
            "max_retiming_depth",
            "max_unfolding_factor",
        ),
        ".unfolded_csr": ("csr_unfolded_loop",),
        ".verify": ("EquivalenceError", "assert_equivalent", "equivalent", "reference_result"),
    },
)

__all__ = [
    "CodeSizeReport",
    "remainder_iterations",
    "report_retimed",
    "report_retimed_unfolded",
    "size_csr_pipelined",
    "size_csr_retime_unfold",
    "size_csr_unfold_retime",
    "size_csr_unfolded",
    "size_original",
    "size_pipelined",
    "size_retime_unfold",
    "size_unfold_retime",
    "size_unfolded",
    "csr_retimed_unfolded_loop",
    "csr_unfold_retimed_loop",
    "csr_pipelined_loop",
    "RegisterConstrainedResult",
    "limit_registers",
    "PER_COPY",
    "PER_ITERATION",
    "predicated_program",
    "TradeoffPoint",
    "best_under_budget",
    "design_space",
    "max_retiming_depth",
    "max_unfolding_factor",
    "csr_unfolded_loop",
    "EquivalenceError",
    "assert_equivalent",
    "equivalent",
    "reference_result",
]
