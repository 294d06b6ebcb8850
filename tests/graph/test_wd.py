"""Tests for the Leiserson–Saxe W/D matrices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.graph import DFG, distinct_d_values, wd_kernel

from ..conftest import dfgs


def _brute_force_wd(g: DFG, max_len: int = 12):
    """Ground truth by bounded path enumeration (small graphs only)."""
    W: dict[tuple[str, str], int] = {}
    D: dict[tuple[str, str], int] = {}
    # BFS over (node, delay, time) path states, tracking min delay then max
    # time among min-delay simple-ish walks; bounded length keeps it finite.
    for u in g.node_names():
        frontier = [(u, 0, g.node(u).time)]
        best: dict[str, tuple[int, int]] = {u: (0, g.node(u).time)}
        for _ in range(max_len):
            nxt = []
            for node, d, t in frontier:
                for e in g.out_edges(node):
                    nd, nt = d + e.delay, t + g.node(e.dst).time
                    cur = best.get(e.dst)
                    if cur is None or (nd, -nt) < (cur[0], -cur[1]):
                        best[e.dst] = (nd, nt)
                        nxt.append((e.dst, nd, nt))
            frontier = nxt
        for v, (d, t) in best.items():
            W[(u, v)] = d
            D[(u, v)] = t
    return W, D


class TestWDMatrices:
    def test_figure1(self, fig1):
        W, D = wd_kernel(fig1)
        assert W[("A", "B")] == 0
        assert D[("A", "B")] == 2
        assert W[("B", "A")] == 2
        assert D[("B", "A")] == 2
        assert W[("A", "A")] == 0
        assert D[("A", "A")] == 1

    def test_diagonal(self, fig2):
        W, D = wd_kernel(fig2)
        for v in fig2.nodes():
            assert W[(v.name, v.name)] == 0
            assert D[(v.name, v.name)] == v.time

    def test_unreachable_pairs_absent(self):
        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        W, _ = wd_kernel(g)
        assert ("B", "A") not in W

    def test_w_picks_min_delay_path(self):
        g = DFG()
        for n in "ABC":
            g.add_node(n)
        g.add_edge("A", "B", 0)
        g.add_edge("B", "C", 3)
        g.add_edge("A", "C", 1)
        W, D = wd_kernel(g)
        assert W[("A", "C")] == 1
        assert D[("A", "C")] == 2  # direct edge path: t(A) + t(C)

    def test_d_maximizes_over_min_delay_paths(self):
        g = DFG()
        for n in "ABCD":
            g.add_node(n)
        # Two zero-delay routes A->D; the longer one defines D(A, D).
        g.add_edge("A", "B", 0)
        g.add_edge("B", "C", 0)
        g.add_edge("C", "D", 0)
        g.add_edge("A", "D", 0)
        W, D = wd_kernel(g)
        assert W[("A", "D")] == 0
        assert D[("A", "D")] == 4

    @given(dfgs(max_nodes=5, max_extra_edges=4, max_delay=2))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, g):
        W, D = wd_kernel(g)
        bW, bD = _brute_force_wd(g)
        for pair, w in bW.items():
            assert W[pair] == w
            assert D[pair] == bD[pair]

    def test_distinct_d_values_sorted_unique(self, fig2):
        vals = distinct_d_values(fig2)
        assert vals == sorted(set(vals))
        # Period candidates must include the achievable optimum (1) and the
        # original period (4).
        assert 1 in vals
        assert 4 in vals


class TestFastPathMatchesReference:
    """The per-source Dijkstra ``wd_kernel`` (fast path) against the
    tuple-weight Floyd–Warshall ``wd_matrices_python`` (reference): equal
    matrices, and equal key order."""

    @staticmethod
    def _assert_matches(g):
        from repro.graph.wd import wd_matrices_python

        fast, ref = wd_kernel(g), wd_matrices_python(g)
        assert fast == ref, g.name
        assert [list(m) for m in fast] == [list(m) for m in ref], g.name

    @staticmethod
    def _awkward_graph(rng, num_nodes):
        """A random graph spiced with the shapes a shortest-path pass can
        get wrong: a delayed self-loop and a parallel edge with a
        different delay."""
        from repro.graph.generators import random_dfg

        g = random_dfg(
            rng,
            num_nodes=num_nodes,
            extra_edges=2 * num_nodes,
            max_delay=3,
            max_time=3,
        )
        names = g.node_names()
        g.add_edge(names[0], names[0], delay=2)
        e = next(iter(g.edges()))
        g.add_edge(e.src, e.dst, delay=e.delay + 1)
        return g

    def test_registry(self):
        from repro.workloads import WORKLOADS

        for fn in WORKLOADS.values():
            self._assert_matches(fn())

    @given(dfgs(max_nodes=8, max_extra_edges=8, max_delay=4))
    @settings(max_examples=60, deadline=None)
    def test_random(self, g):
        self._assert_matches(g)

    def test_random_graphs_up_to_65_nodes(self):
        import random

        from repro.graph.generators import random_dfg

        rng = random.Random(0x3D)
        for num_nodes in (1, 2, 5, 13, 30, 47, 65):
            self._assert_matches(
                random_dfg(
                    rng,
                    num_nodes=num_nodes,
                    extra_edges=rng.randint(0, 2 * num_nodes),
                    max_delay=rng.choice((1, 4)),
                    max_time=rng.choice((1, 5)),
                )
            )

    def test_awkward_graphs(self):
        import random

        rng = random.Random(20020806)
        for num_nodes in (4, 6, 7, 9, 11, 12):
            self._assert_matches(self._awkward_graph(rng, num_nodes))

    def test_timed(self, fig8):
        self._assert_matches(fig8)

    def test_retiming_results_unchanged(self):
        """End-to-end: the reference period search over ``wd_kernel``
        reproduces the Table-1 statistics of the largest benchmark."""
        from repro.retiming import minimize_cycle_period
        from repro.workloads import get_workload

        c, r = minimize_cycle_period(get_workload("elliptic"), method="reference")
        assert c == 13
        assert (r.max_value, r.registers_needed()) == (1, 2)

    def test_zero_delay_cycle_raises(self):
        from repro.graph import DFGError

        g = DFG()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        g.add_edge("B", "A", 0)
        with pytest.raises(DFGError, match="zero-delay cycle"):
            wd_kernel(g)
