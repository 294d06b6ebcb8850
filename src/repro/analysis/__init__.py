"""Experiment drivers and reporting for the paper's evaluation tables."""

from .. import _lazy_exports

# Exports resolve on first access, so `python -m repro.analysis` (an alias
# of the CLI) imports none of the table code until a command runs.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".experiments": (
            "PAPER_TABLE1",
            "PAPER_TABLE2",
            "PAPER_TABLE3",
            "PAPER_TABLE4",
            "TABLE_TITLES",
            "OrderComparison",
            "Table1Row",
            "Table2Row",
            "format_order_comparison",
            "format_table1",
            "format_table2",
            "table1_rows",
            "table2_rows",
            "table3_comparison",
            "table4_comparison",
        ),
        ".frames": ("Frame", "bootstrap_ci"),
        ".tables": (
            "FailedCell",
            "format_gap_table",
            "format_latex_table",
            "format_markdown_table",
            "format_table",
            "latex_escape",
        ),
    },
)

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "TABLE_TITLES",
    "FailedCell",
    "Frame",
    "OrderComparison",
    "Table1Row",
    "Table2Row",
    "bootstrap_ci",
    "format_order_comparison",
    "format_table1",
    "format_table2",
    "table1_rows",
    "table2_rows",
    "table3_comparison",
    "table4_comparison",
    "format_table",
    "format_gap_table",
    "format_latex_table",
    "format_markdown_table",
    "latex_escape",
]
