"""Sequences of FEAS probes on one graph against fresh reference solves.

The period search probes ``retime_for_period`` many times on the same
graph, and every probe reuses the graph's shared edge kernel.  Whatever
the order of the probes, each answer must equal a fresh ``W``/``D``
constraint solve at that period: the fixpoint of a difference-constraint
system is unique, so feasibility *and* the normalized witness are pinned
exactly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.wd import distinct_d_values
from repro.retiming import retime_for_period
from repro.retiming.optimal import _retime_for_period_reference

from ..conftest import dfgs


def _assert_probes_equal_fresh_solves(g, periods) -> None:
    for c in periods:
        fresh = _retime_for_period_reference(g, c)
        probed = retime_for_period(g, c)
        if fresh is None:
            assert probed is None, f"c={c}"
        else:
            assert probed is not None, f"c={c}"
            assert probed.as_dict() == fresh.as_dict(), f"c={c}"


class TestIncrementalFeasibility:
    @given(dfgs(max_nodes=8, max_extra_edges=8, max_delay=4))
    @settings(max_examples=60, deadline=None)
    def test_descending_probes_equal_fresh_solves(self, g):
        """The binary search's natural pattern: descending periods over
        the distinct ``D`` values."""
        _assert_probes_equal_fresh_solves(g, reversed(distinct_d_values(g)))

    @given(
        dfgs(max_nodes=7, max_extra_edges=6, max_delay=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_probe_order(self, g, seed):
        """Results must not depend on probe order, revisits included."""
        order = list(distinct_d_values(g)) * 2
        random.Random(seed).shuffle(order)
        _assert_probes_equal_fresh_solves(g, order)
