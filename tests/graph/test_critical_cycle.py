"""Tests for critical-cycle extraction."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings

from repro.graph import DFG, critical_cycle, cycle_stats, iteration_bound

from ..conftest import dfgs, timed_dfgs


class TestCriticalCycle:
    def test_figure1(self, fig1):
        c = critical_cycle(fig1)
        t, d = cycle_stats(fig1, c)
        assert Fraction(t, d) == 1

    def test_figure8_names_the_long_recurrence(self, fig8):
        c = critical_cycle(fig8)
        assert set(c) == {"A", "B", "C", "D", "E"}
        assert cycle_stats(fig8, c) == (27, 4)

    def test_acyclic_returns_empty(self):
        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        assert critical_cycle(g) == []

    def test_self_loop(self):
        g = DFG()
        g.add_node("A", time=3)
        g.add_edge("A", "A", 2)
        assert critical_cycle(g) == ["A"]

    def test_picks_tighter_of_two_cycles(self):
        g = DFG()
        for n in "ABC":
            g.add_node(n)
        g.add_edge("A", "B", 0)
        g.add_edge("B", "A", 2)  # ratio 1
        g.add_edge("B", "C", 0)
        g.add_edge("C", "B", 1)  # ratio 2 <- critical
        assert set(critical_cycle(g)) == {"B", "C"}

    def test_tutorial_smoother(self):
        """The values docs/TUTORIAL.md §1 prints."""
        from repro import parse_loop

        g = parse_loop(
            """
            X[i] = input(5)
            S[i] = X[i-2] + F[i-1]
            F[i] = S[i] * 3
            Y[i] = S[i] + F[i]
            """,
            name="smoother",
        )
        assert (iteration_bound(g), critical_cycle(g)) == (2, ["S", "F"])

    def test_benchmark_witnesses_attain_bound(self, bench_graph):
        c = critical_cycle(bench_graph)
        t, d = cycle_stats(bench_graph, c)
        assert Fraction(t, d) == iteration_bound(bench_graph)

    def test_cycle_is_closed_walk(self, bench_graph):
        c = critical_cycle(bench_graph)
        for a, b in zip(c, c[1:] + c[:1]):
            assert b in bench_graph.successors(a)

    @given(dfgs(max_nodes=6, max_extra_edges=5))
    @settings(max_examples=50, deadline=None)
    def test_random_unit_time(self, g):
        bound = iteration_bound(g)
        c = critical_cycle(g)
        if bound == 0:
            assert c == []
        else:
            t, d = cycle_stats(g, c)
            assert Fraction(t, d) == bound

    @given(timed_dfgs(max_nodes=5))
    @settings(max_examples=50, deadline=None)
    def test_random_timed(self, g):
        bound = iteration_bound(g)
        c = critical_cycle(g)
        if bound > 0:
            t, d = cycle_stats(g, c)
            assert Fraction(t, d) == bound
