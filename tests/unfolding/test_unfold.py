"""Tests for the unfolding transformation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DFG, DFGError, cycle_period, iteration_bound, validate
from repro.unfolding import copy_name, parse_copy_name, unfold, unfolded_edge_delay

from ..conftest import dfgs, timed_dfgs


class TestNaming:
    def test_copy_name_roundtrip(self):
        assert parse_copy_name(copy_name("A", 3)) == ("A", 3)

    def test_copy_name_with_hash_in_base(self):
        # rpartition keeps earlier '#' characters in the base name.
        assert parse_copy_name(copy_name("s#1", 2)) == ("s#1", 2)

    def test_parse_rejects_plain_names(self):
        with pytest.raises(DFGError):
            parse_copy_name("plain")


class TestEdgeDelayRule:
    @pytest.mark.parametrize(
        "d,j,f,expected",
        [
            (0, 0, 3, 0),
            (0, 2, 3, 0),
            (1, 0, 3, 1),
            (1, 1, 3, 0),
            (3, 0, 3, 1),
            (3, 2, 3, 1),
            (4, 0, 3, 2),
            (4, 1, 3, 1),
            (7, 2, 4, 2),
        ],
    )
    def test_ceil_rule(self, d, j, f, expected):
        assert unfolded_edge_delay(d, j, f) == expected

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=8),
    )
    def test_delay_conservation_identity(self, d, f):
        """sum_j ceil((d - j)/f) == d for j in 0..f-1."""
        assert sum(unfolded_edge_delay(d, j, f) for j in range(f)) == d


class TestUnfold:
    def test_counts(self, fig4):
        gf = unfold(fig4, 3)
        assert gf.num_nodes == 9
        assert gf.num_edges == 9

    def test_f1_is_renamed_copy(self, fig4):
        gf = unfold(fig4, 1)
        assert set(gf.node_names()) == {"A#0", "B#0", "C#0"}
        assert gf.total_delay == fig4.total_delay

    def test_invalid_factor(self, fig4):
        with pytest.raises(DFGError, match="factor"):
            unfold(fig4, 0)

    def test_figure4_by_3(self, fig4):
        """The paper's Figure 5(a): B[i-3] -> A[i] becomes a one-delay
        self-stage dependency after unfolding by 3."""
        gf = unfold(fig4, 3)
        delays = {(e.src, e.dst): e.delay for e in gf.edges()}
        # B -> A with d=3: copy j of A reads B copy j, one unfolded
        # iteration earlier.
        for j in range(3):
            assert delays[(f"B#{j}", f"A#{j}")] == 1
        # A -> B and B -> C (d=0): same slot, zero delay.
        for j in range(3):
            assert delays[(f"A#{j}", f"B#{j}")] == 0
            assert delays[(f"B#{j}", f"C#{j}")] == 0

    def test_node_attributes_copied(self, fig8):
        gf = unfold(fig8, 2)
        assert gf.node("B#0").time == 10
        assert gf.node("B#1").op == fig8.node("B").op

    @given(dfgs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_total_delay_preserved(self, g, f):
        assert unfold(g, f).total_delay == g.total_delay

    @given(dfgs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_unfolded_graph_is_legal(self, g, f):
        validate(unfold(g, f))

    @given(dfgs(max_nodes=5), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_iteration_bound_scales_by_f(self, g, f):
        """B(G_f) = f * B(G): unfolding preserves the per-original-iteration
        rate bound."""
        assert iteration_bound(unfold(g, f)) == f * iteration_bound(g)

    @given(timed_dfgs(max_nodes=4), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_iteration_bound_scales_timed(self, g, f):
        assert iteration_bound(unfold(g, f)) == f * iteration_bound(g)

    def test_unfolding_exposes_parallelism(self, fig4):
        """Figure 4's loop has bound 2/3; unfolded by 3 the bound is 2 and
        a period-2 unfolded body becomes possible (rate-optimal)."""
        gf = unfold(fig4, 3)
        assert iteration_bound(gf) == 2

    @given(dfgs(max_nodes=5), st.integers(min_value=2, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_cycle_period_never_increases_per_iteration(self, g, f):
        """Phi(G_f) <= f * Phi(G): the unfolded body is never slower than
        f plain iterations."""
        assert cycle_period(unfold(g, f)) <= f * cycle_period(g)


class TestSharedPerGraph:
    """``unfold`` builds once per ``(graph, f, name)`` while the graph lives."""

    def test_same_graph_and_factor_share_one_object(self, fig1):
        assert unfold(fig1, 2) is unfold(fig1, 2)
        assert unfold(fig1, 2) is not unfold(fig1, 3)
        assert unfold(fig1, 2, name="other") is not unfold(fig1, 2)
        assert unfold(fig1, 2, name="other").name == "other"

    def test_equal_graphs_do_not_share(self, fig1):
        assert unfold(fig1.copy(), 2) is not unfold(fig1, 2)
        assert unfold(fig1.copy(), 2) == unfold(fig1, 2)

    def test_entry_dies_with_its_graph(self, fig1):
        import gc
        import weakref

        from repro.graph.kernel import _DERIVED

        g = fig1.copy()
        gf = weakref.ref(unfold(g, 3))
        key = id(g)
        assert key in _DERIVED and gf() is not None
        del g
        gc.collect()
        assert gf() is None
        assert key not in _DERIVED

    def test_a_grown_graph_is_unfolded_afresh(self):
        g = DFG("grow")
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", delay=0)
        first = unfold(g, 2)
        g.add_edge("B", "A", delay=2)
        second = unfold(g, 2)
        assert second is not first
        assert second.num_edges == 2 * first.num_edges

    def test_counters_count_every_call(self, fig1):
        from repro import observability

        observability.OBS.reset()
        observability.enable(trace=False)
        try:
            g = fig1.copy()
            for _ in range(3):
                unfold(g, 2)
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
            observability.OBS.reset()
        assert counters["unfold.calls"] == 3
        assert counters["unfold.copies"] == 3 * 2 * g.num_nodes
