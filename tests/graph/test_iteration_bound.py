"""Tests for the exact iteration bound (two independent algorithms)."""

from __future__ import annotations

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DFG,
    DFGError,
    critical_cycle,
    cycle_stats,
    iteration_bound,
    iteration_bound_exhaustive,
    minimum_unfolding_for_rate_optimality,
)
from repro.graph.generators import line_dfg, ring_dfg

from ..conftest import dfgs, timed_dfgs

#: Examples of the policy-iteration oracle test; CI raises it to 500.
EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "60"))


class TestHandGraphs:
    def test_figure1(self, fig1):
        assert iteration_bound(fig1) == 1

    def test_figure2(self, fig2):
        # Cycles: A..E ring with 4 delays (T=5) and A->B->C cycle... B->C
        # has 2 delays; A-B-C-D-E-A: T=5, D=6.  Bound is max ratio = 1.
        assert iteration_bound(fig2) == 1

    def test_figure4(self, fig4):
        assert iteration_bound(fig4) == Fraction(2, 3)

    def test_figure8(self, fig8):
        assert iteration_bound(fig8) == Fraction(27, 4)

    def test_ring(self):
        assert iteration_bound(ring_dfg(5, 2)) == Fraction(5, 2)

    def test_line_is_bound_by_feedback(self):
        assert iteration_bound(line_dfg(6, delay_last=3)) == 2

    def test_acyclic_graph_has_zero_bound(self):
        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        assert iteration_bound(g) == 0
        assert iteration_bound_exhaustive(g) == 0

    def test_acyclic_with_delays_still_zero(self):
        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 5)
        assert iteration_bound(g) == 0

    def test_self_loop(self):
        g = DFG()
        g.add_node("A", time=3)
        g.add_edge("A", "A", 2)
        assert iteration_bound(g) == Fraction(3, 2)

    def test_parallel_edges_use_min_delay(self):
        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        g.add_edge("B", "A", 5)
        g.add_edge("B", "A", 1)  # tighter parallel edge dominates
        assert iteration_bound(g) == 2
        assert iteration_bound_exhaustive(g) == 2

    def test_benchmarks_positive(self, bench_graph):
        assert iteration_bound(bench_graph) > 0


class TestAlgorithmsAgree:
    @given(dfgs(max_nodes=6, max_extra_edges=5))
    @settings(max_examples=60, deadline=None)
    def test_lawler_matches_exhaustive_unit_time(self, g):
        assert iteration_bound(g) == iteration_bound_exhaustive(g)

    @given(timed_dfgs(max_nodes=5))
    @settings(max_examples=60, deadline=None)
    def test_lawler_matches_exhaustive_timed(self, g):
        assert iteration_bound(g) == iteration_bound_exhaustive(g)

    def test_benchmark_agreement(self, bench_graph):
        assert iteration_bound(bench_graph) == iteration_bound_exhaustive(bench_graph)


class TestPolicyIterationOracle:
    """One policy-iteration run gives both the bound and its witness;
    exhaustive cycle enumeration is the reference for both."""

    @given(
        st.one_of(
            dfgs(max_nodes=8, max_extra_edges=10, max_delay=4),
            dfgs(max_nodes=7, max_extra_edges=8, max_delay=4, max_time=5),
        )
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_bound_and_witness_match_exhaustive(self, g):
        bound = iteration_bound(g)
        assert bound == iteration_bound_exhaustive(g)
        witness = critical_cycle(g)
        if bound == 0:
            assert witness == []
            return
        assert len(set(witness)) == len(witness)
        for a, b in zip(witness, witness[1:] + witness[:1]):
            assert b in g.successors(a)
        time, delay = cycle_stats(g, witness)
        assert Fraction(time, delay) == bound

    def test_witness_is_canonical(self):
        """Of two tied critical cycles, the one holding the earliest
        inserted node, listed from that node."""
        edges = (("A", "B", 0), ("B", "A", 1), ("D", "C", 0), ("C", "D", 1))
        for order, expect in (("ABCD", ["A", "B"]), ("DCBA", ["D", "C"]),
                              ("BADC", ["B", "A"])):
            g = DFG()
            for n in order:
                g.add_node(n)
            for src, dst, delay in edges:
                g.add_edge(src, dst, delay)
            assert critical_cycle(g) == expect, order

    def test_zero_delay_cycle_raises_before_any_ratio(self):
        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        g.add_edge("B", "A", 0)
        with pytest.raises(DFGError, match="zero-delay cycle"):
            iteration_bound(g)
        with pytest.raises(DFGError, match="zero-delay cycle"):
            critical_cycle(g)


class TestMinimumUnfolding:
    def test_integral_bound_needs_no_unfolding(self, fig1):
        assert minimum_unfolding_for_rate_optimality(fig1) == 1

    def test_fractional_bound(self, fig4):
        assert minimum_unfolding_for_rate_optimality(fig4) == 3

    def test_figure8_needs_four(self, fig8):
        assert minimum_unfolding_for_rate_optimality(fig8) == 4

    def test_acyclic(self):
        g = DFG()
        g.add_node("A")
        assert minimum_unfolding_for_rate_optimality(g) == 1

    def test_max_factor_guard(self):
        g = DFG()
        g.add_node("A", time=97)
        g.add_edge("A", "A", 64)
        with pytest.raises(DFGError, match="max_factor"):
            minimum_unfolding_for_rate_optimality(g, max_factor=8)
