"""Grouped FEAS against the grouped ``W_c`` constraint solve.

The register-constrained searches of ``repro.core.partial`` probe a period
with the nodes of each group held to one retiming value.  The fast path,
``_grouped``, runs FEAS with group equality and legality relaxed inside
each pass; its reference, ``_solve_unfold_grouped``, solves the ``W_c``
difference constraints plus the equalities by Bellman–Ford.  Both return
the greatest non-positive solution of one system, so the verdict *and* the
normalized witness must be equal on every probe.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.core.partial import _grouped, _solve_unfold_grouped
from repro.graph import cycle_period
from repro.unfolding import retime_unfold_for_period, unfold

from ..conftest import dfgs

EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "60"))


class TestGroupedFeasWitness:
    @given(
        st.one_of(
            dfgs(max_nodes=8, max_extra_edges=8, max_delay=4),
            dfgs(max_nodes=6, max_extra_edges=6, max_delay=3, max_time=4),
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_grouped_probes_equal_the_reference_solve(self, g, rng):
        """Every ``c`` from 0 to one past the unfolded cycle period, for
        ``f = 1 .. 3``, each under two random partitions into 1-3 groups."""
        names = g.node_names()
        infeasible = 0
        for f in range(1, 4):
            for c in range(cycle_period(unfold(g, f)) + 2):
                for _ in range(2):
                    k = rng.randint(1, 3)
                    groups = {v: rng.randrange(k) for v in names}
                    ref = _solve_unfold_grouped(g, f, c, groups)
                    fast = _grouped(g, f, c, groups)
                    where = f"f={f} c={c} groups={groups}"
                    assert (fast is None) == (ref is None), where
                    if ref is None:
                        infeasible += 1
                    else:
                        assert fast.as_dict() == ref.as_dict(), where
        assert infeasible

    def test_infeasible_grouped_probe_counts_one_pass_per_node(self, fig8):
        """Figure 8 at ``f = 2, c = 15`` needs two registers: the probe
        with every node in one group is infeasible, though the ungrouped
        probe is not, and it runs exactly ``|V|`` passes."""
        f, c = 2, 15
        assert retime_unfold_for_period(fig8, f, c) is not None
        one_group = {v: 0 for v in fig8.node_names()}
        observability.OBS.reset()
        observability.enable()
        try:
            assert _grouped(fig8, f, c, one_group) is None
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
            observability.OBS.reset()
        assert _solve_unfold_grouped(fig8, f, c, one_group) is None
        assert counters["retiming.feas.passes"] == fig8.num_nodes
