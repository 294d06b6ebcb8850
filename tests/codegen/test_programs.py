"""Tests for the plain (non-CSR) code generators: structure and sizes.

Semantic equivalence of every generator is covered exhaustively in
``tests/integration``; these tests pin down program *structure* — loop
bounds, instruction counts, operand construction — against the paper's
figures and the closed-form size models.
"""

from __future__ import annotations

import pytest

from repro.codegen import (
    ComputeInstr,
    IndexBase,
    format_program,
    original_loop,
    pipelined_loop,
    retimed_unfolded_loop,
    unfold_retimed_loop,
    unfolded_loop,
)
from repro.codegen.original import compute_for_node
from repro.codegen.ir import IndexExpr
from repro.graph import DFGError
from repro.retiming import Retiming, minimize_cycle_period
from repro.unfolding import unfold_retime


class TestComputeForNode:
    def test_operands_follow_in_edges(self, fig2):
        instr = compute_for_node(fig2, "C", IndexExpr.loop(0))
        assert [str(s) for s in instr.srcs] == ["A[i]", "B[i-2]"]

    def test_dest(self, fig2):
        instr = compute_for_node(fig2, "A", IndexExpr.loop(3))
        assert str(instr.dest) == "A[i+3]"
        assert str(instr.srcs[0]) == "E[i-1]"

    def test_const_region(self, fig2):
        instr = compute_for_node(fig2, "A", IndexExpr.const(2))
        assert str(instr.srcs[0]) == "E[-2]"

    def test_equal_requests_share_one_instruction(self, fig2):
        from repro.codegen.ir import Guard

        a = compute_for_node(fig2, "C", IndexExpr.loop(1), Guard("p1", -1))
        assert compute_for_node(fig2, "C", IndexExpr.loop(1), Guard("p1", -1)) is a
        assert compute_for_node(fig2, "C", IndexExpr.loop(1), Guard("p1")) is not a
        assert compute_for_node(fig2, "C", IndexExpr.loop(1)).guard is None
        assert compute_for_node(fig2.copy(), "C", IndexExpr.loop(1), Guard("p1", -1)) == a

    def test_programs_of_one_graph_share_instructions(self, fig4):
        """The original body and a zero retiming's pipelined body compute
        the same instances with the same objects."""
        body = original_loop(fig4).loop.body
        again = pipelined_loop(fig4, Retiming(fig4)).loop.body
        assert all(x is y for x, y in zip(body, again))


class TestOriginalLoop:
    def test_size_is_node_count(self, bench_graph):
        assert original_loop(bench_graph).code_size == bench_graph.num_nodes

    def test_bounds(self, fig4):
        p = original_loop(fig4)
        assert str(p.loop.start) == "1"
        assert str(p.loop.end) == "n"
        assert p.loop.step == 1

    def test_body_in_topo_order(self, fig4):
        p = original_loop(fig4)
        assert [i.node for i in p.loop.body] == ["A", "B", "C"]

    def test_no_pre_post(self, fig4):
        p = original_loop(fig4)
        assert p.pre == () and p.post == ()


class TestPipelinedLoop:
    def test_paper_figure3a_structure(self, fig2):
        """Figure 3(a): 8 prologue instructions, 5-instruction body over
        i = 1 .. n-3, 7 epilogue instructions."""
        _, r = minimize_cycle_period(fig2)
        p = pipelined_loop(fig2, r)
        assert len(p.pre) == 8
        assert len(p.loop.body) == 5
        assert len(p.post) == 7
        assert str(p.loop.end) == "n-3"
        assert p.code_size == 20  # (M_r + 1) * |V| = 4 * 5

    def test_body_offsets_match_retiming(self, fig2):
        _, r = minimize_cycle_period(fig2)
        p = pipelined_loop(fig2, r)
        dests = {i.node: str(i.dest) for i in p.loop.body}
        assert dests == {
            "A": "A[i+3]",
            "B": "B[i+2]",
            "C": "C[i+2]",
            "D": "D[i+1]",
            "E": "E[i]",
        }

    def test_size_model(self, bench_graph):
        from repro.core import size_pipelined

        _, r = minimize_cycle_period(bench_graph)
        p = pipelined_loop(bench_graph, r)
        assert p.code_size == size_pipelined(bench_graph, r)

    def test_zero_retiming_degenerates_to_original(self, fig4):
        p = pipelined_loop(fig4, Retiming.zero(fig4))
        assert p.code_size == 3
        assert p.pre == () and p.post == ()

    def test_illegal_retiming_rejected(self, fig4):
        with pytest.raises(DFGError):
            pipelined_loop(fig4, Retiming(fig4, {"C": 5}))

    def test_min_n_recorded(self, fig2):
        _, r = minimize_cycle_period(fig2)
        assert pipelined_loop(fig2, r).meta["min_n"] == 3


class TestUnfoldedLoop:
    def test_size(self, fig4):
        p = unfolded_loop(fig4, 3, residue=2)
        assert p.code_size == (3 + 2) * 3

    def test_step_and_bounds(self, fig4):
        p = unfolded_loop(fig4, 3, residue=2)
        assert p.loop.step == 3
        assert str(p.loop.end) == "n-2"

    def test_residue_zero_has_no_post(self, fig4):
        p = unfolded_loop(fig4, 3, residue=0)
        assert p.post == ()

    def test_bad_residue_rejected(self, fig4):
        with pytest.raises(DFGError, match="residue"):
            unfolded_loop(fig4, 3, residue=3)

    def test_bad_factor_rejected(self, fig4):
        with pytest.raises(DFGError, match="factor"):
            unfolded_loop(fig4, 0)

    def test_slot_offsets(self, fig4):
        p = unfolded_loop(fig4, 2)
        dests = [str(i.dest) for i in p.loop.body]
        assert dests == ["A[i]", "B[i]", "C[i]", "A[i+1]", "B[i+1]", "C[i+1]"]


class TestCombinedLoops:
    def test_retimed_unfolded_size(self, fig4):
        from repro.core import size_retime_unfold

        _, r = minimize_cycle_period(fig4)
        for leftover in (0, 1, 2):
            p = retimed_unfolded_loop(fig4, r, 3, leftover)
            assert p.code_size == size_retime_unfold(fig4, r, 3, leftover)

    def test_unfold_retimed_size(self, fig4):
        from repro.core import size_unfold_retime

        res = unfold_retime(fig4, 3)
        for residue in (0, 1, 2):
            p = unfold_retimed_loop(fig4, res.retiming, 3, residue)
            assert p.code_size == size_unfold_retime(fig4, res.retiming, 3, residue)

    def test_unfold_retimed_needs_copy_retiming(self, fig4):
        with pytest.raises(DFGError, match="copies"):
            unfold_retimed_loop(fig4, Retiming.zero(fig4), 3)

    def test_retimed_unfolded_meta(self, fig4):
        _, r = minimize_cycle_period(fig4)
        p = retimed_unfolded_loop(fig4, r, 3, 1)
        assert p.meta["factor"] == 3
        assert p.meta["residue"] == 1
        assert p.meta["residue_shift"] == r.max_value


class TestPrinter:
    def test_format_contains_all_sections(self, fig2):
        _, r = minimize_cycle_period(fig2)
        text = format_program(pipelined_loop(fig2, r))
        assert "for i = 1 to n-3 do" in text
        assert "A[1]" in text  # prologue
        assert "end" in text
        assert "code size = 20" in text

    def test_format_shows_step(self, fig4):
        text = format_program(unfolded_loop(fig4, 3))
        assert "by 3" in text
