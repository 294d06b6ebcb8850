"""The FEAS period search against its references, exactly.

``minimize_cycle_period`` binary-searches the integers in ``[max t(v),
Phi(G)]`` with FEAS.  Its period must equal the exact oracle's
(``optimal_cycle_period``, a fresh ``W``/``D`` solve per lattice point),
and its witness the ``W``/``D`` constraint solve at that period: both are
the greatest solution of the same system (``docs/THEORY.md`` §2).
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.graph import cycle_period
from repro.optimal import optimal_cycle_period
from repro.retiming import minimize_cycle_period
from repro.retiming.optimal import _retime_for_period_reference
from repro.unfolding import unfold

from ..conftest import dfgs

EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "60"))


def _assert_same_search(g) -> None:
    period, r = minimize_cycle_period(g)
    opt = optimal_cycle_period(g)
    assert opt.proven and period == opt.period, g.name
    assert r.as_dict() == _retime_for_period_reference(g, period).as_dict(), g.name
    assert r.is_normalized
    assert cycle_period(r.apply()) == period


class TestPeriodSearch:
    @given(
        st.one_of(
            dfgs(max_nodes=8, max_extra_edges=8, max_delay=4),
            dfgs(max_nodes=8, max_extra_edges=8, max_delay=4, max_time=4),
        ),
        st.integers(2, 4),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_feas_search_equals_reference(self, g, f):
        """Same period and normalized witness on ``g`` and on its
        unfolding by ``f``."""
        _assert_same_search(g)
        _assert_same_search(unfold(g, f))

    def test_search_counts_feas_passes(self, fig2):
        """The fast search probes by FEAS alone: its passes are counted,
        and no ``W``/``D`` constraint solve runs."""
        observability.OBS.reset()
        observability.enable()
        try:
            assert minimize_cycle_period(fig2)[0] == 1
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
            observability.OBS.reset()
        # Candidates 1..4 (Phi = 4): probes 2, 1 and 1 is the optimum.
        assert counters["retiming.iterations"] == 2
        assert counters["retiming.feas.passes"] >= 2
        assert "retiming.feasibility_checks" not in counters
