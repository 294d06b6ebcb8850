"""FEAS at every unfolding factor against the constraint-solve references.

``retime_unfold_for_period(g, f, c)`` runs FEAS generalised to ``f`` on the
graph's shared edge kernel; ``retime_for_period(g, c)`` runs it at ``f = 1``.
Each answer must equal the ``W_c`` difference-constraint solve,
``_retime_unfold_for_period_reference``, and at ``f = 1`` also the
``W``/``D`` solve, ``_retime_for_period_reference``.  Every system has one
greatest non-positive solution, so feasibility *and* the normalized witness
are pinned exactly, whatever the probe order.
"""

from __future__ import annotations

import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.graph import cycle_period, iteration_bound
from repro.retiming import retime_for_period
from repro.retiming.optimal import _retime_for_period_reference
from repro.unfolding import retime_unfold_for_period, unfold
from repro.unfolding.orders import _retime_unfold_for_period_reference

from ..conftest import dfgs

EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "60"))


def _same(fast, ref, where: str) -> None:
    assert (fast is None) == (ref is None), where
    if fast is not None:
        assert fast.as_dict() == ref.as_dict(), where


class TestFeasWitness:
    @given(
        st.one_of(
            dfgs(max_nodes=8, max_extra_edges=8, max_delay=4),
            dfgs(max_nodes=6, max_extra_edges=6, max_delay=3, max_time=4),
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_probes_equal_the_reference_solves(self, g, rng):
        """Every ``c`` from 0 (always infeasible) to one past the unfolded
        cycle period, for ``f = 1 .. 4``, in shuffled order with revisits."""
        probes = [(f, c) for f in range(1, 5) for c in range(cycle_period(unfold(g, f)) + 2)]
        probes += rng.sample(probes, len(probes) // 3)
        rng.shuffle(probes)
        infeasible = 0
        for f, c in probes:
            ref = _retime_unfold_for_period_reference(g, f, c)
            infeasible += ref is None
            _same(retime_unfold_for_period(g, f, c), ref, f"f={f} c={c}")
            if f == 1:
                _same(retime_for_period(g, c), ref, f"c={c}")
                _same(_retime_for_period_reference(g, c), ref, f"W/D c={c}")
        assert infeasible

    def test_infeasible_probe_counts_one_pass_per_node(self, fig2):
        """An infeasible probe runs exactly ``|V|`` passes, the bound that
        ``docs/THEORY.md`` §4 proves, and none past it."""
        f = 3
        c = math.ceil(iteration_bound(fig2) * f) - 1  # below the bound
        assert c >= max(v.time for v in fig2.nodes())  # FEAS must run
        observability.OBS.reset()
        observability.enable()
        try:
            assert retime_unfold_for_period(fig2, f, c) is None
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
            observability.OBS.reset()
        assert _retime_unfold_for_period_reference(fig2, f, c) is None
        assert counters["retiming.feas.passes"] == fig2.num_nodes
