"""Every code-size cell of the paper tables, checked against emitted code.

``tables`` prices its cells with the closed forms of
:mod:`repro.core.codesize` and imports no code generator.  These tests
build, for each printed size, the program that cell counts, and assert
that the printed number is the program's ``code_size`` (and, for the
register columns, its conditional-register count).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    _orders_retimings,
    order_comparison_cells,
    table1_cells,
    table1_rows,
    table2_cells,
    table2_rows,
    table3_comparison,
    table4_comparison,
)
from repro.codegen import pipelined_loop, retimed_unfolded_loop, unfold_retimed_loop
from repro.core import PER_COPY, PER_ITERATION, csr_pipelined_loop, csr_retimed_unfolded_loop
from repro.workloads import BENCHMARKS, get_workload


@pytest.fixture(scope="module")
def rows1():
    return table1_rows()


def test_table1_cells_are_program_sizes(rows1):
    _, cells = table1_cells(rows1)
    for row, cell in zip(rows1, cells):
        g = get_workload(row.name)
        csr = csr_pipelined_loop(g, row.retiming)
        assert cell[3] == pipelined_loop(g, row.retiming).code_size, row.name
        assert cell[5] == csr.code_size, row.name
        assert cell[7] == len(csr.registers()), row.name


def test_table2_cells_are_program_sizes(rows1):
    f, n = 3, 101
    _, cells = table2_cells(table2_rows(f, n))
    assert len(cells) == len(BENCHMARKS)
    for row, cell in zip(rows1, cells):
        g = get_workload(row.name)
        csr = csr_retimed_unfolded_loop(g, row.retiming, f, PER_COPY)
        assert cell[2] == retimed_unfolded_loop(g, row.retiming, f, n % f).code_size, row.name
        assert cell[4] == csr.code_size, row.name
        assert cell[6] == len(csr.registers()), row.name


@pytest.mark.parametrize(
    "workload, table, periods, mode",
    [
        ("figure8", table3_comparison, lambda f: None, PER_ITERATION),
        ("lattice", table4_comparison, lambda f: 8 * f, PER_COPY),
    ],
    ids=["table3", "table4"],
)
def test_order_tables_cells_are_program_sizes(workload, table, periods, mode):
    cols = table()
    _, cells = order_comparison_cells(cols)
    g = get_workload(workload)
    for k, col in enumerate(cols, start=1):
        f = col.factor
        ur, _, r = _orders_retimings(g, f, periods(f))
        assert cells[0][k] == unfold_retimed_loop(g, ur.retiming, f).code_size, f
        assert cells[1][k] == retimed_unfolded_loop(g, r, f).code_size, f
        assert cells[2][k] == csr_retimed_unfolded_loop(g, r, f, mode).code_size, f
