"""Edge cases and benchmark anchors for the exact period oracle."""

from __future__ import annotations

import math

import pytest

from repro.graph import DFG, DFGError, OpKind
from repro.graph.iteration_bound import iteration_bound
from repro.graph.period import cycle_period
from repro.core.codesize import size_pipelined
from repro.optimal import (
    OptimalPeriod,
    minimal_code_size,
    minimize_max_retiming,
    optimal_cycle_period,
    period_lower_bound,
)
from repro.retiming import minimize_cycle_period
from repro.retiming.optimal import _retime_for_period_reference


def test_single_node_graph():
    g = DFG("one")
    g.add_node("a", time=3, op=OpKind.ADD)
    g.add_edge("a", "a", 1)
    opt = optimal_cycle_period(g)
    assert opt.period == 3
    assert opt.proven
    assert opt.probes == 0  # already at the lower bound: no search at all


def test_zero_delay_cycle_is_a_clear_error():
    g = DFG("bad")
    g.add_node("a", op=OpKind.ADD)
    g.add_node("b", op=OpKind.ADD)
    g.add_edge("a", "b", 0)
    g.add_edge("b", "a", 0)
    with pytest.raises(DFGError, match="zero-delay cycle"):
        optimal_cycle_period(g)
    with pytest.raises(DFGError, match="zero-delay cycle"):
        period_lower_bound(g)


def test_gap_zero_short_circuit_skips_the_search():
    # A ring with a delay on every edge already runs at the iteration
    # bound, so the oracle must return without a single feasibility probe
    # (and without paying for the O(V^3) W/D matrices).
    g = DFG("spread-ring")
    for i in range(4):
        g.add_node(f"n{i}", op=OpKind.ADD)
    for i in range(4):
        g.add_edge(f"n{i}", f"n{(i + 1) % 4}", 1)
    assert cycle_period(g) == period_lower_bound(g)
    opt = optimal_cycle_period(g)
    assert opt.proven
    assert opt.probes == 0
    assert all(v == 0 for v in opt.retiming.as_dict().values())


def test_timeout_degrades_to_bounded_gap(two_node_cycle):
    # Phi = 2 > L = 1, so a zero-second budget cannot finish the search:
    # the certificate must keep valid bounds instead of hanging or lying.
    full = optimal_cycle_period(two_node_cycle)
    cut = optimal_cycle_period(two_node_cycle, timeout=0.0)
    assert not cut.proven
    assert cut.gap > 0
    assert cut.period == cycle_period(two_node_cycle)  # witnessed fallback
    assert cut.optimum_lower <= full.period <= cut.period
    assert cycle_period(cut.retiming.apply()) == cut.period


def test_certificate_gap_property(fig1):
    opt = optimal_cycle_period(fig1)
    assert isinstance(opt, OptimalPeriod)
    assert opt.gap == opt.period - opt.optimum_lower
    assert opt.proven == (opt.gap == 0)


def test_benchmarks_proven_and_match_heuristic(bench_graph):
    """On every paper benchmark the oracle proves optimality, agrees with
    the period search (whose witness is the reference solve's), and
    respects its own bounds."""
    opt = optimal_cycle_period(bench_graph)
    assert opt.proven
    assert opt.optimum_lower >= math.ceil(iteration_bound(bench_graph))
    period, r = minimize_cycle_period(bench_graph)
    assert period == opt.period
    assert r.as_dict() == _retime_for_period_reference(bench_graph, period).as_dict()
    assert cycle_period(opt.retiming.apply()) == opt.period


def test_minimize_max_retiming_infeasible_period(fig1):
    opt = optimal_cycle_period(fig1)
    if opt.period > 1:
        assert minimize_max_retiming(fig1, opt.period - 1) is None
    # Below the slowest node no period is achievable either.
    assert minimize_max_retiming(fig1, 0) is None


def test_minimal_code_size_never_exceeds_heuristic(bench_graph):
    """(M_r* + 1) * |V| at the optimal period is a true lower bound on
    what the heuristic optimizer's witness costs."""
    opt = optimal_cycle_period(bench_graph)
    size, r = minimal_code_size(bench_graph)
    assert cycle_period(r.apply()) <= opt.period
    assert size == (r.max_value + 1) * bench_graph.num_nodes
    _, r_heur = minimize_cycle_period(bench_graph)
    assert size <= size_pipelined(bench_graph, r_heur)


def test_minimal_code_size_unachievable_period_raises(fig1):
    with pytest.raises(DFGError, match="no retiming achieves"):
        minimal_code_size(fig1, c=0)
