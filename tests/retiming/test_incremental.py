"""Sequences of FEAS probes on one graph against fresh reference solves.

A period search probes ``retime_for_period`` many times on the same
graph, and every probe reuses the graph's shared edge kernel.  Whatever
the order of the probes, each answer must equal a fresh ``W``/``D``
constraint solve at that period: the fixpoint of a difference-constraint
system is unique, so feasibility *and* the normalized witness are pinned
exactly.  The probed periods are the distinct ``D`` values, the
candidate optima of the Leiserson–Saxe search.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.wd import wd_kernel
from repro.retiming import retime_for_period
from repro.retiming.optimal import _retime_for_period_reference

from ..conftest import dfgs


def _d_values(g) -> list[int]:
    return sorted(set(wd_kernel(g)[1].values()))


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
        """Descending periods over the distinct ``D`` values."""
        _assert_probes_equal_fresh_solves(g, reversed(_d_values(g)))

    @given(
        dfgs(max_nodes=7, max_extra_edges=6, max_delay=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_probe_order(self, g, seed):
        """Results must not depend on probe order, revisits included."""
        order = _d_values(g) * 2
        random.Random(seed).shuffle(order)
        _assert_probes_equal_fresh_solves(g, order)
