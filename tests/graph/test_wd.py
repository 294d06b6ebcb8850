"""Tests for the Leiserson–Saxe W/D matrices."""

from __future__ import annotations

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


def _packed_wd(g: DFG):
    """``(W, D)`` from the packed numpy Floyd–Warshall, whatever the
    graph's size (the dispatch threshold is bypassed)."""
    from repro.graph.kernel import shared_kernel
    from repro.graph.wd import _packed_floyd_warshall

    return _packed_floyd_warshall(shared_kernel(g))


class TestNumpyPath:
    """The packed numpy Floyd–Warshall (fast path) against the pure-python
    tuple-weight pass (reference)."""

    def test_dispatch_threshold(self):
        """Graphs above the threshold use the vectorized path; both paths
        must agree exactly."""
        from repro.graph.wd import wd_matrices_python
        from repro.workloads import get_workload

        for name in ("elliptic", "lattice", "volterra"):
            g = get_workload(name)
            assert _packed_wd(g) == wd_matrices_python(g)

    @given(dfgs(max_nodes=8, max_extra_edges=8, max_delay=4))
    @settings(max_examples=60, deadline=None)
    def test_numpy_matches_python_random(self, g):
        from repro.graph.wd import wd_matrices_python

        assert _packed_wd(g) == wd_matrices_python(g)

    def test_numpy_matches_python_timed(self, fig8):
        from repro.graph.wd import wd_matrices_python

        assert _packed_wd(fig8) == wd_matrices_python(fig8)
    def test_retiming_results_unchanged(self):
        """End-to-end: the optimizer over the numpy path reproduces the
        Table-1 statistics for the large benchmarks."""
        from repro.retiming import minimize_cycle_period
        from repro.workloads import get_workload

        g = get_workload("elliptic")
        c, r = minimize_cycle_period(g)
        assert c == 13
        assert (r.max_value, r.registers_needed()) == (1, 2)


class TestNumpyThresholdDispatch:
    """The python/numpy dispatch threshold, forced both ways."""

    @staticmethod
    def _awkward_graph(rng, num_nodes):
        """A random graph spiced with the dispatch-sensitive shapes:
        a delayed self-loop and a parallel edge with a different delay."""
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

    def test_both_paths_forced_on_identical_graphs(self, monkeypatch):
        """Force python and numpy paths on the same graphs by swinging the
        threshold; the matrices must agree exactly."""
        import random

        from repro.graph import wd

        rng = random.Random(20020806)
        for num_nodes in (4, 7, 9, 12):
            g = self._awkward_graph(rng, num_nodes)
            monkeypatch.setattr(wd, "_NUMPY_THRESHOLD", 10**9)
            via_python = wd.wd_kernel(g)
            monkeypatch.setattr(wd, "_NUMPY_THRESHOLD", 0)
            via_numpy = wd.wd_kernel(g)
            assert via_python == via_numpy

    def test_dispatch_straddles_threshold(self, monkeypatch):
        """With the threshold pinned between two graph sizes, the smaller
        graph exercises the python path and the larger the numpy path —
        both matching the python reference."""
        import random

        from repro.graph import wd
        from repro.graph.wd import wd_matrices_python

        monkeypatch.setattr(wd, "_NUMPY_THRESHOLD", 8)
        packed = wd._packed_floyd_warshall
        sizes = []

        def recording(kernel):
            sizes.append(kernel.num_nodes)
            return packed(kernel)

        monkeypatch.setattr(wd, "_packed_floyd_warshall", recording)
        rng = random.Random(99)
        small = self._awkward_graph(rng, 6)   # 6 <= 8: python path
        large = self._awkward_graph(rng, 11)  # 11 > 8: numpy path
        assert wd.wd_kernel(small) == wd_matrices_python(small)
        assert wd.wd_kernel(large) == wd_matrices_python(large)
        assert sizes == [11]
