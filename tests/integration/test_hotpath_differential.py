"""Differential pinning of the overhauled hot paths against the originals.

The acceptance bar for the hot-path overhaul: the fast engines — integer
parametric iteration bound, the FEAS period search, compiled dispatch VM
— must be *bit-identical* to their references on the full workload
registry plus hundreds of random graphs.  These
sweeps are deterministic (seeded) so a divergence is a reproducible bug,
not a flake.
"""

from __future__ import annotations

import random

import pytest

from repro.codegen import original_loop, pipelined_loop
from repro.graph import (
    EdgeKernel,
    iteration_bound,
    iteration_bound_exhaustive,
)
from repro.graph.generators import random_dfg
from repro.machine import run_program
from repro.machine.vliw_vm import run_packed
from repro.retiming import minimize_cycle_period
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
    """Integer parametric search vs exhaustive cycle enumeration."""

    def test_registry(self):
        for g in _registry_graphs():
            assert iteration_bound(g) == iteration_bound_exhaustive(g)

    def test_random_graphs(self):
        for g in _random_graphs():
            assert iteration_bound(g) == iteration_bound_exhaustive(g), g.name

    def test_kernel_cycle_oracle_matches_fraction_test(self):
        """The non-strict integer cycle test agrees with the exact
        ``Fraction`` bound on probe values around it."""
        for g in _registry_graphs():
            bound = iteration_bound_exhaustive(g)
            if bound == 0:
                continue
            kernel = EdgeKernel(g)
            for num, den, expect in (
                (bound.numerator, bound.denominator, True),   # ratio == λ
                (bound.numerator, bound.denominator * 2, True),  # λ halved
                (bound.numerator * 2, bound.denominator, False),  # λ doubled
            ):
                assert (
                    kernel.has_positive_cycle(num, den, strict=False) is expect
                ), (g.name, num, den)

    def test_numpy_and_python_relaxations_agree(self, monkeypatch):
        """The vectorized cycle test and the per-edge relaxation return the
        same verdicts, forced on the same graphs by swinging the threshold."""
        from repro.graph import kernel as kernel_mod

        for g in _registry_graphs() + _random_graphs()[:60]:
            bound = iteration_bound_exhaustive(g)
            kernel = EdgeKernel(g)
            probes = [
                (bound.numerator * a, bound.denominator * b, strict)
                for a, b in ((1, 1), (1, 2), (2, 1))
                for strict in (True, False)
            ]
            verdicts = {}
            for label, threshold in (("python", 10**9), ("numpy", -1)):
                monkeypatch.setattr(kernel_mod, "_NUMPY_THRESHOLD", threshold)
                verdicts[label] = [kernel.has_positive_cycle(*p) for p in probes]
                assert iteration_bound(g) == bound, (g.name, label)
            assert verdicts["python"] == verdicts["numpy"], g.name


class TestMinimizePeriodEngines:
    """feas / reference strategies, pinned exactly equal."""

    def test_registry(self):
        for g in _registry_graphs():
            p_ref, r_ref = minimize_cycle_period(g, method="reference")
            p_feas, r_feas = minimize_cycle_period(g, method="feas")
            assert p_ref == p_feas, g.name
            assert r_ref.as_dict() == r_feas.as_dict(), g.name

    def test_random_graphs(self):
        for g in _random_graphs():
            p_ref, r_ref = minimize_cycle_period(g, method="reference")
            p_feas, r_feas = minimize_cycle_period(g, method="feas")
            assert p_ref == p_feas, g.name
            assert r_ref.as_dict() == r_feas.as_dict(), g.name


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
