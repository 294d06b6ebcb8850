"""Differential battery: 200+ seeded graphs, heuristics pinned to the oracle.

Uses the *same* seeded graph generator as ``python -m repro sweep``
(:func:`repro.runner.difftest._graph_for_seed`), so every assertion here is
the in-process twin of what the oracle sweep checks at engine scale:

* ``minimize_cycle_period`` returns exactly the oracle's certified
  optimum, with the ``W``/``D`` reference solve's witness at it —
  bit-equal, on every graph;
* the Theorem 4.4/4.5 size inequality holds *at optimal code size*: with
  both orders' ``M_r`` independently minimized by exact search,
  ``S_{r,f} <= S_{f,r}`` still stands (the paper's claim is about optimal
  retimings, not about one solver's witnesses).
"""

from __future__ import annotations

import pytest

from repro.core.codesize import size_retime_unfold, size_unfold_retime
from repro.graph.period import cycle_period
from repro.graph.serialize import from_json
from repro.optimal import minimize_max_retiming, optimal_cycle_period
from repro.retiming import Retiming, minimize_cycle_period
from repro.retiming.constraints import DifferenceConstraints
from repro.retiming.optimal import _retime_for_period_reference
from repro.runner.difftest import _graph_for_seed
from repro.unfolding import (
    min_delay_exceeding_time,
    retime_unfold,
    unfold,
    unfold_retime,
)

NUM_SEEDS = 220
THEOREM_SEEDS = 60  # the exact-M_r battery is heavier: a prefix suffices


def _sweep_graph(seed: int):
    return from_json(_graph_for_seed(seed, max_nodes=6, max_extra_edges=5))


def _optimal_retime_unfold_m(g, f: int, c: int) -> int | None:
    """Provably minimal ``M_r`` over retimings of ``g`` whose *unfolded*
    graph achieves period ``c`` — the retime-unfold side of Theorems
    4.4/4.5 with the heuristic witness replaced by an exact one.

    Same spread binary search as ``minimize_max_retiming``, over the
    ``W_c``/``f`` constraint system of ``retime_unfold_for_period``.
    """
    if any(v.time > c for v in g.nodes()):
        return None
    wc = min_delay_exceeding_time(g, c)
    names = g.node_names()

    def solve(spread: int | None) -> Retiming | None:
        system = DifferenceConstraints()
        for n in names:
            system.add_variable(n)
        for e in g.edges():
            system.add(e.dst, e.src, e.delay)
        for (u, v), w in wc.items():
            system.add(v, u, w - f)
        if spread is not None:
            for u in names:
                for v in names:
                    if u != v:
                        system.add(u, v, spread)
        solution = system.solve()
        if solution is None:
            return None
        r = Retiming(g, {n: int(val) for n, val in solution.items()}).normalized()
        assert cycle_period(unfold(r.apply(), f)) <= c
        return r

    base = solve(None)
    if base is None:
        return None
    best = base.max_value
    lo, hi = 0, best - 1
    while lo <= hi:
        s = (lo + hi) // 2
        r = solve(s)
        if r is None:
            lo = s + 1
        else:
            best = r.max_value
            hi = r.max_value - 1
    return best


@pytest.mark.parametrize("chunk", range(0, NUM_SEEDS, 20))
def test_all_methods_bit_equal_to_oracle(chunk):
    for seed in range(chunk, chunk + 20):
        g = _sweep_graph(seed)
        opt = optimal_cycle_period(g)
        assert opt.proven, f"seed {seed}: oracle gap {opt.gap}"
        period, r = minimize_cycle_period(g)
        assert period == opt.period, (
            f"seed {seed}: the search returned {period}, oracle proved {opt.period}"
        )
        assert cycle_period(r.apply()) == opt.period
        ref = _retime_for_period_reference(g, period)
        assert r.as_dict() == ref.as_dict(), f"seed {seed}: witness differs"


@pytest.mark.parametrize("chunk", range(0, THEOREM_SEEDS, 10))
@pytest.mark.parametrize("f", [2, 3])
def test_order_inequality_at_optimal_code_size(chunk, f):
    """Theorem 4.4/4.5 with exact-minimal M_r on both sides, plus the
    sanity half: no heuristic witness beats its exact optimum."""
    for seed in range(chunk, chunk + 10):
        g = _sweep_graph(seed)
        gf = unfold(g, f)
        ur = unfold_retime(g, f)  # minimized unfolded period: the target c
        c = ur.period
        L = g.num_nodes

        r_fr = minimize_max_retiming(gf, c)
        assert r_fr is not None  # ur's own witness achieves c
        size_fr_opt = (r_fr.max_value + 1) * L * f

        m_rf = _optimal_retime_unfold_m(g, f, c)
        assert m_rf is not None, (
            f"seed {seed} f={f}: retime-unfold cannot reach period {c} "
            "reached by unfold-retime — Theorem 4.4 violated"
        )
        size_rf_opt = (m_rf + f) * L

        assert size_rf_opt <= size_fr_opt, (
            f"seed {seed} f={f}: optimal S_rf={size_rf_opt} > "
            f"optimal S_fr={size_fr_opt} at period {c}"
        )
        # Exactness is a floor for the production witnesses.
        assert size_unfold_retime(g, ur.retiming, f) >= size_fr_opt
        rf = retime_unfold(g, f, period=c)
        assert size_retime_unfold(g, rf.retiming, f) >= size_rf_opt
