"""Tests for graph validation and topological ordering."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.graph import DFG, DFGError, is_valid, topological_order, validate

from ..conftest import dfgs


class TestTopologicalOrder:
    def test_chain(self):
        g = DFG()
        for n in "ABC":
            g.add_node(n)
        g.add_edge("A", "B", 0)
        g.add_edge("B", "C", 0)
        assert topological_order(g) == ["A", "B", "C"]

    def test_respects_zero_delay_edges_only(self, two_node_cycle):
        # B -> A has delays, so only A -> B constrains the order.
        assert topological_order(two_node_cycle) == ["A", "B"]

    def test_deterministic_tie_break_by_insertion(self):
        g = DFG()
        for n in ["Z", "M", "A"]:
            g.add_node(n)
        assert topological_order(g) == ["Z", "M", "A"]

    def test_newly_ready_nodes_take_their_insertion_place(self):
        """A node freed by a pop is ordered among the already-ready nodes
        by insertion index, not appended after them."""
        g = DFG()
        for n in ["S", "Z", "M", "A"]:
            g.add_node(n)
        g.add_edge("S", "A", 0)
        g.add_edge("S", "Z", 0)
        # Ready at first: S and M.  Popping S frees A and Z; Z was inserted
        # before M, A after it.
        assert topological_order(g) == ["S", "Z", "M", "A"]

    def test_zero_delay_cycle_rejected(self):
        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        g.add_edge("B", "A", 0)
        with pytest.raises(DFGError, match="zero-delay cycle"):
            topological_order(g)

    def test_zero_delay_self_loop_rejected(self):
        g = DFG()
        g.add_node("A")
        g.add_edge("A", "A", 0)
        with pytest.raises(DFGError, match="zero-delay cycle"):
            topological_order(g)

    def test_order_places_producers_first(self, fig2):
        order = topological_order(fig2)
        pos = {n: i for i, n in enumerate(order)}
        for e in fig2.zero_delay_edges():
            assert pos[e.src] < pos[e.dst]


class TestValidate:
    def test_valid_benchmark(self, bench_graph):
        validate(bench_graph)  # must not raise

    def test_empty_graph_invalid(self):
        with pytest.raises(DFGError, match="no nodes"):
            validate(DFG())

    def test_is_valid_boolean(self, two_node_cycle):
        assert is_valid(two_node_cycle)
        bad = DFG()
        bad.add_node("A")
        bad.add_edge("A", "A", 0)
        assert not is_valid(bad)

    @given(dfgs())
    def test_generated_graphs_are_valid(self, g):
        validate(g)

    @given(dfgs())
    def test_topological_order_is_permutation(self, g):
        order = topological_order(g)
        assert sorted(order) == sorted(g.node_names())

    @given(dfgs())
    def test_topological_order_respects_dependencies(self, g):
        pos = {n: i for i, n in enumerate(topological_order(g))}
        for e in g.zero_delay_edges():
            assert pos[e.src] < pos[e.dst]
