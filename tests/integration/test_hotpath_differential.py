"""Differential pinning of the overhauled hot paths against the originals.

The acceptance bar for the hot-path overhaul: the fast engines — the
policy-iteration bound, the FEAS period search, compiled dispatch VM
— must be *bit-identical* to their references on the full workload
registry plus hundreds of random graphs.  These
sweeps are deterministic (seeded) so a divergence is a reproducible bug,
not a flake.
"""

from __future__ import annotations

import random

import pytest

from repro.codegen import original_loop, pipelined_loop
from repro.graph import iteration_bound, iteration_bound_exhaustive
from repro.graph.generators import random_dfg
from repro.machine import run_program
from repro.machine.vliw_vm import run_packed
from repro.optimal import optimal_cycle_period
from repro.retiming import minimize_cycle_period
from repro.retiming.optimal import _retime_for_period_reference
from repro.schedule import ResourceModel
from repro.workloads import WORKLOADS

#: Seeded random graphs shared by all sweeps (>= 200 per acceptance bar).
RANDOM_GRAPH_COUNT = 210


def _random_graphs():
    rng = random.Random(0xD5B)
    graphs = []
    for i in range(RANDOM_GRAPH_COUNT):
        graphs.append(
            random_dfg(
                rng,
                num_nodes=rng.randint(2, 10),
                extra_edges=rng.randint(0, 10),
                max_delay=4,
                max_time=rng.choice((1, 1, 5)),
                name=f"diff{i}",
            )
        )
    return graphs


def _registry_graphs():
    return [fn() for fn in WORKLOADS.values()]


class TestIterationBoundOracle:
    """Policy iteration vs exhaustive cycle enumeration."""

    def test_registry(self):
        for g in _registry_graphs():
            assert iteration_bound(g) == iteration_bound_exhaustive(g)

    def test_random_graphs(self):
        for g in _random_graphs():
            assert iteration_bound(g) == iteration_bound_exhaustive(g), g.name


def _assert_search_matches_references(g) -> None:
    """The FEAS period search's period equals the exact oracle's, and its
    witness the ``W``/``D`` constraint solve's at that period."""
    period, r = minimize_cycle_period(g)
    assert period == optimal_cycle_period(g).period, g.name
    assert r.as_dict() == _retime_for_period_reference(g, period).as_dict(), g.name


class TestMinimizePeriodEngines:
    """The period search against its references, pinned exactly equal."""

    def test_registry(self):
        for g in _registry_graphs():
            _assert_search_matches_references(g)

    def test_random_graphs(self):
        for g in _random_graphs():
            _assert_search_matches_references(g)


class TestVmDispatchSweep:
    """Threaded dispatch vs reference interpreter on random programs."""

    def test_random_graphs(self):
        rng = random.Random(4242)
        for g in _random_graphs():
            programs = [original_loop(g)]
            # Pipelining multi-time-unit graphs is out of codegen scope;
            # guard like the paper pipeline does.
            if all(v.time == 1 for v in g.nodes()):
                programs.append(
                    pipelined_loop(g, minimize_cycle_period(g)[1])
                )
            for p in programs:
                min_n = p.meta.get("min_n", 1) or 1
                n = max(min_n, rng.randint(1, 12))
                ref = run_program(p, n, dispatch=False)
                new = run_program(p, n)
                assert new.arrays == ref.arrays, (g.name, p.name)
                assert (new.executed, new.disabled) == (
                    ref.executed,
                    ref.disabled,
                ), (g.name, p.name)


class TestVliwDispatchSweep:
    """Packed executor: pre-compiled word slots vs reference, registry-wide."""

    MACHINE = ResourceModel(units={"alu": 2, "mul": 1})

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_registry_packed(self, name):
        g = WORKLOADS[name]()
        p = original_loop(g)
        min_n = p.meta.get("min_n", 1) or 1
        for n in (min_n, min_n + 9):
            ref = run_packed(
                p, n, self.MACHINE, control_slots=2, dispatch=False
            )
            new = run_packed(p, n, self.MACHINE, control_slots=2)
            assert new.arrays == ref.arrays
            assert (new.cycles, new.executed, new.disabled) == (
                ref.cycles,
                ref.executed,
                ref.disabled,
            )

    def test_random_graphs_packed(self):
        rng = random.Random(77)
        for g in _random_graphs()[:60]:
            p = original_loop(g)
            min_n = p.meta.get("min_n", 1) or 1
            n = max(min_n, rng.randint(1, 10))
            ref = run_packed(
                p, n, self.MACHINE, control_slots=2, dispatch=False
            )
            new = run_packed(p, n, self.MACHINE, control_slots=2)
            assert new.arrays == ref.arrays, g.name
            assert (new.cycles, new.executed, new.disabled) == (
                ref.cycles,
                ref.executed,
                ref.disabled,
            ), g.name
