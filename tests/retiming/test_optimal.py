"""Tests for optimal retiming (W/D binary search) and the FEAS fast path
of ``retime_for_period`` against its W/D constraint-solve reference."""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.graph import DFG, DFGError, cycle_period, iteration_bound
from repro.optimal import optimal_cycle_period
from repro.retiming import (
    Retiming,
    minimize_cycle_period,
    minimum_cycle_period,
    retime_for_period,
)
from repro.retiming.optimal import _retime_for_period_reference
from repro.unfolding import unfold

from ..conftest import dfgs, timed_dfgs

EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "60"))


class TestRetimeForPeriod:
    def test_figure1_period_one(self, fig1):
        r = retime_for_period(fig1, 1)
        assert r is not None
        assert cycle_period(r.apply()) <= 1
        assert r.is_normalized

    def test_figure2_period_one(self, fig2):
        r = retime_for_period(fig2, 1)
        assert r is not None
        assert cycle_period(r.apply()) == 1

    def test_infeasible_below_node_time(self, fig8):
        assert retime_for_period(fig8, 9) is None  # node B takes 10

    def test_infeasible_below_bound(self, fig4):
        # Bound 2/3 per iteration but period must cover whole cycles: the
        # 3-node cycle with 3 delays can reach period 1; period 0 never.
        assert retime_for_period(fig4, 0) is None

    def test_feasible_at_original_period(self, bench_graph):
        r = retime_for_period(bench_graph, cycle_period(bench_graph))
        assert r is not None

    def test_result_is_legal_and_normalized(self, bench_graph):
        r = retime_for_period(bench_graph, cycle_period(bench_graph))
        assert r.is_legal()
        assert r.is_normalized


class TestMinimizeCyclePeriod:
    def test_figure1(self, fig1):
        c, r = minimize_cycle_period(fig1)
        assert c == 1
        assert cycle_period(r.apply()) == 1

    def test_figure2_paper_retiming(self, fig2):
        c, r = minimize_cycle_period(fig2)
        assert c == 1
        assert r.as_dict() == {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0}

    def test_figure8_non_unit(self, fig8):
        c, _ = minimize_cycle_period(fig8)
        # Bound 27/4 = 6.75, but the slowest node needs 10 time units.
        assert c >= 10

    def test_never_worse_than_original(self, bench_graph):
        c, _ = minimize_cycle_period(bench_graph)
        assert c <= cycle_period(bench_graph)

    def test_never_below_iteration_bound(self, bench_graph):
        c, _ = minimize_cycle_period(bench_graph)
        assert c >= iteration_bound(bench_graph)

    def test_minimum_cycle_period_shortcut(self, fig1):
        assert minimum_cycle_period(fig1) == 1

    @pytest.mark.parametrize(
        "search",
        [minimize_cycle_period, optimal_cycle_period],
        ids=["feas", "reference"],
    )
    def test_empty_graph_is_a_dfg_error(self, search):
        """The FEAS search and the exact oracle it is checked against."""
        with pytest.raises(DFGError, match="graph has no nodes"):
            search(DFG("empty"))

    @given(dfgs())
    @settings(max_examples=60, deadline=None)
    def test_optimal_is_feasible_and_tight(self, g):
        c, r = minimize_cycle_period(g)
        assert cycle_period(r.apply()) == c
        # One less must be infeasible (c is the minimum).
        if c > 1:
            assert retime_for_period(g, c - 1) is None

    @given(dfgs())
    @settings(max_examples=60, deadline=None)
    def test_optimal_at_least_ceil_bound(self, g):
        c, _ = minimize_cycle_period(g)
        bound = iteration_bound(g)
        assert c >= math.ceil(bound)


def _assert_same_witness(g: DFG, c: int) -> None:
    fast = retime_for_period(g, c)
    ref = _retime_for_period_reference(g, c)
    assert (fast is None) == (ref is None), f"disagree at c={c}"
    if fast is not None:
        assert fast.as_dict() == ref.as_dict(), f"witnesses differ at c={c}"
        assert cycle_period(fast.apply()) <= c


class TestFeasAgreement:
    @given(timed_dfgs(max_nodes=6, max_time=3), st.integers(2, 4))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_feas_agrees_with_wd_search(self, g, f):
        """FEAS and the W/D constraint solve return the same normalized
        witness (or both ``None``) for every period from 1 to the cycle
        period, on ``g`` and on its unfolding by ``f``."""
        for graph in (g, unfold(g, f)):
            for c in range(1, cycle_period(graph) + 1):
                _assert_same_witness(graph, c)

    def test_feas_on_benchmarks(self, bench_graph):
        c, r = minimize_cycle_period(bench_graph)
        assert retime_for_period(bench_graph, c) == r
        _assert_same_witness(bench_graph, c)
        _assert_same_witness(bench_graph, c - 1)

    def test_feas_infeasible(self, fig8):
        assert retime_for_period(fig8, 9) is None
        assert _retime_for_period_reference(fig8, 9) is None

    def test_feas_trivially_feasible(self, fig1):
        r = retime_for_period(fig1, 2)
        assert r is not None
        assert cycle_period(r.apply()) <= 2

    def test_feas_counts_at_most_one_pass_per_node(self, fig2):
        observability.OBS.reset()
        observability.enable()
        try:
            assert retime_for_period(fig2, 1) is not None
            assert retime_for_period(fig2, 0) is None
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
            observability.OBS.reset()
        assert counters["retiming.feasibility_checks"] == 2
        # c = 0 stops at the node-time check, before any pass.
        assert 1 <= counters["retiming.feas.passes"] <= fig2.num_nodes
