"""Tests for incremental delay pushing (the rotation primitive)."""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import cycle_period
from repro.retiming import Retiming, RetimingError, can_push, push_nodes, pushable_nodes

from ..conftest import dfgs


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


class TestIncrementalFeasibility:
    """The warm-started feasibility oracle must be indistinguishable from
    fresh per-probe solves: the fixpoint of a difference-constraint system
    is unique, so warm-started answers are pinned *exactly* equal."""

    @staticmethod
    def _solver_and_candidates(g):
        from repro.graph.wd import wd_kernel
        from repro.retiming.incremental import IncrementalFeasibility

        wd = wd_kernel(g)
        return IncrementalFeasibility(wd), wd.d_values()

    @given(dfgs(max_nodes=8, max_extra_edges=8, max_delay=4))
    @settings(max_examples=60, deadline=None)
    def test_descending_probes_equal_fresh_solves(self, g):
        """The binary search's natural pattern: descending c.  For every
        candidate, feasibility and the *normalized witness* must equal a
        fresh retime_for_period solve."""
        from repro.retiming import Retiming
        from repro.retiming.optimal import retime_for_period

        solver, candidates = self._solver_and_candidates(g)
        for c in reversed(candidates):
            fresh = retime_for_period(g, c)
            warm = solver.try_period(c)
            if fresh is None:
                assert warm is None
            else:
                assert warm is not None
                assert Retiming(g, warm).normalized().as_dict() == (
                    fresh.as_dict()
                )

    @given(
        dfgs(max_nodes=7, max_extra_edges=6, max_delay=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_probe_order(self, g, seed):
        """Probes above the committed best period take the cold path;
        results must not depend on probe order at all."""
        import random

        from repro.retiming import Retiming
        from repro.retiming.optimal import retime_for_period

        solver, candidates = self._solver_and_candidates(g)
        order = list(candidates) * 2  # revisits exercise warm == committed
        random.Random(seed).shuffle(order)
        for c in order:
            fresh = retime_for_period(g, c)
            warm = solver.try_period(c)
            if fresh is None:
                assert warm is None
            else:
                assert Retiming(g, warm).normalized().as_dict() == (
                    fresh.as_dict()
                )

    @given(
        dfgs(max_nodes=7, max_extra_edges=6, max_delay=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_under_arbitrary_probe_order(self, g, seed):
        """The dense numpy relaxation and the per-edge python relaxation
        answer every probe identically — feasibility *and* fixpoint — for
        any interleaving of cold and warm probes, including revisits."""
        import random

        from repro.retiming import incremental as inc_mod

        order = None
        results = {}
        saved = inc_mod._NUMPY_THRESHOLD
        try:
            for label, threshold in (("python", 10**9), ("numpy", 0)):
                inc_mod._NUMPY_THRESHOLD = threshold
                solver, candidates = self._solver_and_candidates(g)
                assert solver._use_numpy == (label == "numpy")
                if order is None:
                    order = list(candidates) * 2
                    random.Random(seed).shuffle(order)
                results[label] = [solver.try_period(c) for c in order]
        finally:
            inc_mod._NUMPY_THRESHOLD = saved
        assert results["python"] == results["numpy"]

    @given(dfgs(max_nodes=8, max_extra_edges=8, max_delay=4, max_time=4))
    @settings(max_examples=40, deadline=None)
    def test_minimize_methods_agree_exactly(self, g):
        """Both search strategies return the same period and the same
        normalized witness, with or without a precomputed WDKernel."""
        from repro.graph.wd import wd_kernel
        from repro.retiming.optimal import minimize_cycle_period

        p_ref, r_ref = minimize_cycle_period(g, method="reference")
        p_inc, r_inc = minimize_cycle_period(
            g, method="incremental", verify=True
        )
        p_wd, r_wd = minimize_cycle_period(g, verify=True, wd=wd_kernel(g))
        assert p_ref == p_inc == p_wd
        assert r_ref.as_dict() == r_inc.as_dict() == r_wd.as_dict()

    def test_numpy_and_python_backends_agree(self, monkeypatch):
        """Swing the numpy threshold so the same graph runs through
        both relaxation backends; fixpoints are pinned equal."""
        import random

        from repro.graph.generators import random_unit_time_dfg
        from repro.retiming import incremental as inc_mod

        g = random_unit_time_dfg(
            random.Random(5), num_nodes=30, extra_edges=30, max_delay=4
        )
        results = {}
        for label, threshold in (("python", 10**9), ("numpy", 0)):
            monkeypatch.setattr(inc_mod, "_NUMPY_THRESHOLD", threshold)
            solver, candidates = self._solver_and_candidates(g)
            assert solver._use_numpy == (label == "numpy")
            results[label] = [solver.try_period(c) for c in reversed(candidates)]
        assert results["python"] == results["numpy"]

    def test_unknown_method_rejected(self, fig2):
        import pytest as _pytest

        from repro.retiming.optimal import minimize_cycle_period

        with _pytest.raises(ValueError, match="unknown minimize_cycle_period"):
            minimize_cycle_period(fig2, method="spfa")

    def test_stats_counters_populated(self, fig2):
        solver, candidates = self._solver_and_candidates(fig2)
        for c in reversed(candidates):
            solver.try_period(c)
        assert solver.stats["probes"] == len(candidates)
        assert solver.stats["relaxations"] > 0
