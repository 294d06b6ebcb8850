"""The FEAS period search against its reference, exactly.

``minimize_cycle_period(method="feas")`` binary-searches the integers in
``[max t(v), Phi(G)]`` with FEAS; ``method="reference"`` searches the
distinct ``D`` values with a fresh ``W``/``D`` constraint solve per probe.
The least feasible integer is the optimum, and at the optimum both probes
return the greatest solution of the same system (``docs/THEORY.md`` §2),
so the period *and* the normalized witness must be equal.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.graph import cycle_period
from repro.retiming import minimize_cycle_period
from repro.unfolding import unfold

from ..conftest import dfgs

EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "60"))


def _assert_same_search(g) -> None:
    p_ref, r_ref = minimize_cycle_period(g, method="reference")
    p_feas, r_feas = minimize_cycle_period(g, method="feas")
    assert p_feas == p_ref, g.name
    assert r_feas.as_dict() == r_ref.as_dict(), g.name
    assert r_feas.is_normalized
    assert cycle_period(r_feas.apply()) == p_feas


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

    def test_unknown_method_rejected(self, fig2):
        with pytest.raises(ValueError, match="unknown minimize_cycle_period"):
            minimize_cycle_period(fig2, method="incremental")

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
