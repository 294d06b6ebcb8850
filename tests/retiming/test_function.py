"""Tests for retiming functions: legality, application, normalization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DFG, cycle_period
from repro.retiming import Retiming, RetimingError

from ..conftest import dfgs


class TestBasics:
    def test_defaults_to_zero(self, fig1):
        r = Retiming(fig1)
        assert r["A"] == 0 and r["B"] == 0
        assert r.max_value == 0

    def test_unknown_node_rejected(self, fig1):
        with pytest.raises(RetimingError, match="unknown nodes"):
            Retiming(fig1, {"Z": 1})

    def test_non_integer_rejected(self, fig1):
        with pytest.raises(RetimingError, match="int"):
            Retiming(fig1, {"A": 1.5})

    def test_lookup_unknown_node(self, fig1):
        r = Retiming(fig1)
        with pytest.raises(RetimingError, match="unknown node"):
            r["Z"]

    def test_zero_constructor(self, fig2):
        r = Retiming.zero(fig2)
        assert all(v == 0 for v in r.as_dict().values())

    def test_items_order(self, fig2):
        assert [n for n, _ in Retiming.zero(fig2).items()] == fig2.node_names()


class TestLegality:
    def test_figure1_retiming_legal(self, fig1):
        r = Retiming(fig1, {"A": 1})
        assert r.is_legal()
        retimed = r.apply()
        delays = {(e.src, e.dst): e.delay for e in retimed.edges()}
        assert delays == {("A", "B"): 1, ("B", "A"): 1}

    def test_illegal_retiming_detected(self, fig1):
        r = Retiming(fig1, {"B": 1})  # A->B d=0 becomes -1
        assert not r.is_legal()
        with pytest.raises(RetimingError, match="illegal retiming"):
            r.apply()

    def test_check_legal_names_edge(self, fig1):
        r = Retiming(fig1, {"B": 1})
        with pytest.raises(RetimingError, match="'A'->'B'"):
            r.check_legal()

    def test_constant_shift_always_legal(self, fig2):
        r = Retiming(fig2, {n: 7 for n in fig2.node_names()})
        assert r.is_legal()
        assert r.apply().total_delay == fig2.total_delay

    @given(dfgs(), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, g, k):
        """Adding a constant to every node leaves retimed delays unchanged."""
        r0 = Retiming.zero(g)
        rk = r0.shifted(k)
        assert rk.apply() == r0.apply()


class TestConservation:
    @given(dfgs())
    @settings(max_examples=50, deadline=None)
    def test_cycle_delay_conservation(self, g):
        """Any legal retiming preserves the total delay of every cycle —
        checked via conservation on each edge plus telescoping: the sum of
        (d_r - d) around any cycle is zero because r telescopes."""
        import networkx as nx

        # Build some legal retiming: push through a random prefix of nodes.
        names = g.node_names()
        values = {n: i % 2 for i, n in enumerate(names)}
        r = Retiming(g, values)
        if not r.is_legal():
            r = Retiming.zero(g)
        retimed = r.apply()
        nxg = g.to_networkx()
        for cycle in nx.simple_cycles(nx.DiGraph(nxg)):
            orig = _cycle_delay(g, cycle)
            new = _cycle_delay(retimed, cycle)
            assert orig == new

    def test_figure2_retimed_delays(self, fig2):
        """Exact retimed delays of the paper's example; the E->A->B->C->D->E
        cycle keeps its 6 delays (4 + 2) redistributed as 1+1+2+1+1."""
        r = Retiming(fig2, {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0})
        delays = {(e.src, e.dst): e.delay for e in r.apply().edges()}
        assert delays == {
            ("E", "A"): 1,
            ("A", "B"): 1,
            ("A", "C"): 1,
            ("B", "C"): 2,
            ("A", "D"): 2,
            ("C", "D"): 1,
            ("D", "E"): 1,
        }


def _cycle_delay(g: DFG, cycle: list[str]) -> int:
    total = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total += min(e.delay for e in g.out_edges(a) if e.dst == b)
    return total


class TestNormalization:
    def test_normalized_min_zero(self, fig2):
        r = Retiming(fig2, {"A": 5, "B": 4, "C": 4, "D": 3, "E": 2})
        n = r.normalized()
        assert n.min_value == 0
        assert n.max_value == 3
        assert n.as_dict() == {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0}

    def test_normalized_idempotent(self, fig2):
        r = Retiming(fig2, {"A": 3}).normalized()
        assert r.normalized() is r

    def test_normalization_preserves_retimed_graph(self, fig2):
        r = Retiming(fig2, {"A": 5, "B": 4, "C": 4, "D": 3, "E": 2})
        assert r.apply() == r.normalized().apply()


class TestPrologueEpilogue:
    def test_paper_example_counts(self, fig2):
        r = Retiming(fig2, {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0})
        assert r.prologue_copies("A") == 3
        assert r.epilogue_copies("A") == 0
        assert r.prologue_copies("E") == 0
        assert r.epilogue_copies("E") == 3
        assert r.prologue_size() == 8
        assert r.epilogue_size() == 7

    def test_prologue_plus_epilogue(self, fig2):
        r = Retiming(fig2, {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0})
        assert r.prologue_size() + r.epilogue_size() == r.max_value * fig2.num_nodes

    def test_unnormalized_rejected(self, fig2):
        r = Retiming(fig2, {n: 1 for n in fig2.node_names()})
        with pytest.raises(RetimingError, match="normalized"):
            r.prologue_size()

    def test_registers_needed(self, fig2):
        r = Retiming(fig2, {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0})
        assert r.distinct_values() == {0, 1, 2, 3}
        assert r.registers_needed() == 4


class TestCompose:
    def test_compose_applies_sequentially(self, fig1):
        r1 = Retiming(fig1, {"A": 1})
        r2 = Retiming(fig1, {"B": 1})
        combined = r1.compose(r2)
        assert combined.as_dict() == {"A": 1, "B": 1}
        # Retimed delays unchanged: constant retiming.
        assert combined.apply() == fig1.copy()

    def test_compose_different_graphs_rejected(self, fig1, fig2):
        with pytest.raises(RetimingError, match="different node sets"):
            Retiming.zero(fig1).compose(Retiming.zero(fig2))


class TestPeriodEffect:
    def test_retiming_reduces_period(self, fig1):
        assert cycle_period(fig1) == 2
        r = Retiming(fig1, {"A": 1})
        assert cycle_period(r.apply()) == 1

    def test_paper_retiming_period_one(self, fig2):
        r = Retiming(fig2, {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0})
        assert cycle_period(r.apply()) == 1


class TestApplyShared:
    """``Retiming.apply`` builds ``G_r`` once per retiming and name."""

    def test_apply_returns_one_object(self, fig1):
        r = Retiming(fig1, {"A": 1})
        assert r.apply() is r.apply()
        assert r.apply(name="x") is r.apply(name="x")
        assert r.apply(name="x") is not r.apply()
        assert r.apply(name="x").name == "x"

    def test_equal_retimings_build_equal_graphs(self, fig1):
        a, b = Retiming(fig1, {"A": 1}), Retiming(fig1, {"A": 1})
        assert a == b and a.apply() is not b.apply()
        assert a.apply() == b.apply()

    def test_an_illegal_retiming_raises_on_every_call(self, fig1):
        r = Retiming(fig1, {"B": 5})
        for _ in range(2):
            with pytest.raises(RetimingError, match="illegal"):
                r.apply()
