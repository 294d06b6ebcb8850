"""Tests for rotation scheduling and its delay-push primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.graph import cycle_period
from repro.retiming import Retiming, RetimingError
from repro.schedule import (
    ResourceModel,
    can_push,
    check_schedule,
    list_schedule,
    push_nodes,
    pushable_nodes,
    rotation_schedule,
)

from ..conftest import dfgs


class TestRotation:
    def test_never_worse_than_list_schedule(self, bench_graph):
        model = ResourceModel(units={"alu": 2, "mul": 2})
        res = rotation_schedule(bench_graph, model)
        assert res.length <= res.initial_length

    def test_result_schedule_is_legal(self, bench_graph):
        model = ResourceModel(units={"alu": 2, "mul": 2})
        res = rotation_schedule(bench_graph, model)
        check_schedule(res.schedule, model)

    def test_retiming_is_legal_and_normalized(self, bench_graph):
        res = rotation_schedule(bench_graph)
        assert res.retiming.is_legal()
        assert res.retiming.is_normalized

    def test_unconstrained_reaches_ls_optimum(self, fig2):
        """On Figure 2's example, rotations reproduce the optimal period 1."""
        from repro.retiming import minimum_cycle_period

        res = rotation_schedule(fig2)
        assert res.length == minimum_cycle_period(fig2)

    def test_figure1(self, fig1):
        res = rotation_schedule(fig1)
        assert res.initial_length == 2
        assert res.length == 1
        assert res.rotations >= 1

    def test_zero_rotations_when_already_optimal(self):
        from repro.graph import DFG

        g = DFG()
        g.add_node("A")
        g.add_edge("A", "A", 1)
        res = rotation_schedule(g)
        assert res.length == 1
        assert res.rotations == 0

    def test_max_rotations_respected(self, fig2):
        res = rotation_schedule(fig2, max_rotations=0)
        assert res.rotations == 0
        assert res.length == cycle_period(fig2)

    @given(dfgs(max_nodes=6))
    @settings(max_examples=30, deadline=None)
    def test_pipelines_at_least_to_ls_bound_unconstrained(self, g):
        """Unconstrained rotation can only stop at or above the LS optimum,
        and never above the original period."""
        from repro.retiming import minimum_cycle_period

        res = rotation_schedule(g)
        assert minimum_cycle_period(g) <= res.length <= cycle_period(g)

    @given(dfgs(max_nodes=6))
    @settings(max_examples=30, deadline=None)
    def test_constrained_schedule_legal(self, g):
        model = ResourceModel(units={"alu": 1, "mul": 1})
        res = rotation_schedule(g, model)
        check_schedule(res.schedule, model)
        # The schedule belongs to the retimed graph.
        assert set(res.schedule.start) == set(g.node_names())


class TestEdgeCases:
    """Degenerate inputs: empty graphs, single nodes, rotation-proof DFGs."""

    def test_empty_graph_empty_schedule(self):
        from repro.graph import DFG
        from repro.schedule import StaticSchedule

        g = DFG("empty")
        res = rotation_schedule(g)
        assert res.length == 0
        assert res.rotations == 0
        assert res.retiming.as_dict() == {}
        # The empty schedule itself is well-defined.
        empty = StaticSchedule(graph=g, start={})
        assert empty.length == 0
        assert empty.first_row() == frozenset()
        assert empty.table() == []

    def test_single_node_no_edges(self):
        from repro.graph import DFG

        g = DFG("one")
        g.add_node("A", time=3)
        res = rotation_schedule(g)
        assert res.length == 3
        assert res.initial_length == 3
        assert res.retiming.is_legal()

    def test_single_node_self_loop(self):
        from repro.graph import DFG

        g = DFG("self")
        g.add_node("A", time=2)
        g.add_edge("A", "A", 1)
        res = rotation_schedule(g)
        assert res.length == 2
        check_schedule(res.schedule, ResourceModel.unconstrained())

    def test_rotation_proof_graph_stops_early(self):
        """A zero-delay external input into the whole first row makes every
        rotation illegal: the search must stop, not loop to max_rotations."""
        from repro.graph import DFG

        g = DFG("chain")
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B", 0)
        g.add_edge("B", "A", 2)
        res = rotation_schedule(g, max_rotations=50)
        assert res.retiming.is_legal()
        assert res.length <= cycle_period(g)

    def test_max_rotations_none_default_bound(self, fig8):
        res = rotation_schedule(fig8, max_rotations=None)
        assert res.rotations <= 2 * fig8.num_nodes


class TestCanPush:
    def test_needs_delay_on_every_incoming(self, fig1):
        # A's only in-edge (B->A) has 2 delays: pushable.
        assert can_push(fig1, {"A"})
        # B's in-edge (A->B) has 0 delays: not pushable.
        assert not can_push(fig1, {"B"})

    def test_set_push_ignores_internal_edges(self, fig1):
        # Pushing {A, B} together: entering edges are B->A (d=2, external?
        # no - both nodes inside). All edges internal => pushable.
        assert can_push(fig1, {"A", "B"})

    def test_pushable_nodes(self, fig2):
        # Only A has all in-edges carrying delays (E->A with d=4).
        assert pushable_nodes(fig2) == ["A"]


class TestPushNodes:
    def test_push_single(self, fig1):
        r = push_nodes(Retiming.zero(fig1), {"A"})
        assert r.as_dict() == {"A": 1, "B": 0}
        assert cycle_period(r.apply()) == 1

    def test_push_illegal_raises(self, fig1):
        with pytest.raises(RetimingError, match="illegal"):
            push_nodes(Retiming.zero(fig1), {"B"})

    def test_push_unknown_node(self, fig1):
        with pytest.raises(RetimingError, match="unknown node"):
            push_nodes(Retiming.zero(fig1), {"Z"})

    def test_push_negative_amount_undoes(self, fig1):
        r = push_nodes(Retiming.zero(fig1), {"A"})
        back = push_nodes(r, {"A"}, amount=-1)
        assert back.as_dict() == {"A": 0, "B": 0}

    def test_repeated_pushes_mirror_paper_pipeline(self, fig2):
        """Pushing the ready frontier repeatedly rebuilds the paper's
        retiming {A:3, B:2, C:2, D:1, E:0}."""
        r = Retiming.zero(fig2)
        for nodes in ({"A"}, {"A", "B", "C"}, {"A", "B", "C", "D"}):
            assert can_push(r.apply(), nodes)
            r = push_nodes(r, nodes)
        assert r.as_dict() == {"A": 3, "B": 2, "C": 2, "D": 1, "E": 0}
        assert cycle_period(r.apply()) == 1
