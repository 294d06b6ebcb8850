"""Differential battery: the dispatch VMs against the reference interpreters.

Total behavioral equivalence — same arrays, same executed/disabled (and
VLIW cycle) counters, same exceptions with the same messages — over
original, pipelined, CSR and unfolded programs from random graphs at
several trip counts, plus hand-built bodies that stress the error paths:
setup inside the body, constant destinations, malformed arities,
out-of-range writes and non-affine recurrences.
"""

from __future__ import annotations

import random

import pytest

from repro.codegen import original_loop, pipelined_loop, retimed_unfolded_loop
from repro.codegen.ir import (
    ComputeInstr,
    DecInstr,
    Guard,
    IndexBase,
    IndexExpr,
    Loop,
    LoopProgram,
    Operand,
    SetupInstr,
)
from repro.core.predicated import csr_pipelined_loop
from repro.graph import OpKind
from repro.graph.generators import random_dfg
from repro.machine.vm import run_program
from repro.retiming import minimize_cycle_period
from repro.workloads import WORKLOADS

from .test_dispatch import _assert_packed_outcome, _assert_same_outcome


def _program_variants(g, rng):
    """Original, software-pipelined and CSR forms (CSR exercises guards)."""
    yield original_loop(g)
    _, r = minimize_cycle_period(g)
    yield pipelined_loop(g, r)
    yield csr_pipelined_loop(g, r)
    # Unfolded bodies write each array from several instructions per
    # iteration.
    yield retimed_unfolded_loop(g, r, rng.choice((2, 3)))


class TestTraceDifferential:
    def test_random_program_battery(self):
        """200+ program/trip-count differential runs, dispatch vs reference."""
        rng = random.Random(0xC0DE)
        runs = 0
        for i in range(20):
            g = random_dfg(rng, num_nodes=rng.randint(3, 12), name=f"t{i}")
            for p in _program_variants(g, rng):
                min_n = p.meta.get("min_n", 1) or 1
                factor = p.meta.get("factor") or 1
                shift = p.meta.get("residue_shift", 0)
                for k in (0, 1, rng.randint(2, 5)):
                    n = min_n + k * factor
                    if factor > 1 and (n - shift) % factor != (min_n - shift) % factor:
                        continue
                    _assert_same_outcome(p, n)
                    runs += 1
        assert runs >= 200

    def test_registry_workloads_sequential(self, bench_graph):
        _, r = minimize_cycle_period(bench_graph)
        p = csr_pipelined_loop(bench_graph, r)
        min_n = p.meta.get("min_n", 1) or 1
        for n in (min_n, min_n + 1, min_n + 29):
            _assert_same_outcome(p, n)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_registry_workloads_packed(self, name):
        g = WORKLOADS[name]()
        _, r = minimize_cycle_period(g)
        p = csr_pipelined_loop(g, r)
        min_n = p.meta.get("min_n", 1) or 1
        for n in (min_n, min_n + 23):
            _assert_packed_outcome(p, n)

    def test_random_packed_battery(self):
        rng = random.Random(0xF00D)
        for i in range(12):
            g = random_dfg(rng, num_nodes=rng.randint(3, 9), name=f"pk{i}")
            p = original_loop(g)
            min_n = p.meta.get("min_n", 1) or 1
            _assert_packed_outcome(p, min_n + rng.randint(0, 9))

    def test_zero_trip_count(self, fig8):
        """An empty trip must leave pre/post semantics untouched."""
        _, r = minimize_cycle_period(fig8)
        for p in (original_loop(fig8), csr_pipelined_loop(fig8, r)):
            lo = p.loop.start.resolve(None, 0)
            hi = p.loop.end.resolve(None, 0)
            min_n = p.meta.get("min_n", 0) or 0
            if hi < lo and min_n == 0:
                _assert_same_outcome(p, 0)

    def test_custom_initial_values(self, fig8):
        """A non-default initial function must reach every live-in read
        bit-identically."""
        p = original_loop(fig8)
        _assert_same_outcome(p, 9, initial=lambda a, i: (len(a) * 1000 + i) % 97)
        _assert_same_outcome(p, 9, initial=lambda a, i: -3 * i)  # negative values

    def test_raising_initial_falls_back(self, fig8):
        """An initial function that raises must surface the same exception
        on both paths."""

        def bad(array, index):
            raise ValueError(f"no live-in for {array}[{index}]")

        p = original_loop(fig8)
        _assert_same_outcome(p, 5, initial=bad)


class TestTraceFallbackShapes:
    """Hand-built bodies that hit the VMs' error and edge paths."""

    def _loop(self, body, start=1, end_off=0):
        return Loop(
            start=IndexExpr(IndexBase.CONST, start),
            end=IndexExpr(IndexBase.N, end_off),
            step=1,
            body=tuple(body),
        )

    def test_setup_inside_body(self):
        body = [
            SetupInstr(register="p", init=0),
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 0)),
                op=OpKind.SOURCE,
                imm=5,
                srcs=(),
                guard=Guard("p"),
            ),
        ]
        p = LoopProgram(name="setup-body", pre=(), loop=self._loop(body), post=())
        _assert_same_outcome(p, 6)

    def test_constant_dest_in_body(self):
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.CONST, 1)),
                op=OpKind.SOURCE,
                imm=5,
                srcs=(),
            )
        ]
        p = LoopProgram(name="const-dest", pre=(), loop=self._loop(body), post=())
        _assert_same_outcome(p, 1)  # n=1: single write, no double-write error
        _assert_same_outcome(p, 3)  # n=3: double write must raise identically

    def test_malformed_arity_falls_back(self):
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 0)),
                op=OpKind.MAC,  # MAC needs >= 2 inputs: DFGError at exec
                imm=5,
                srcs=(Operand("A", IndexExpr(IndexBase.I, -1)),),
            )
        ]
        p = LoopProgram(name="bad-mac", pre=(), loop=self._loop(body), post=())
        _assert_same_outcome(p, 4)

    def test_out_of_range_write_error_parity(self):
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 2)),  # writes n+2
                op=OpKind.SOURCE,
                imm=5,
                srcs=(),
            )
        ]
        p = LoopProgram(name="oob-body", pre=(), loop=self._loop(body), post=())
        _assert_same_outcome(p, 4)

    def test_nonaffine_recurrence_falls_back_correctly(self):
        """x[i] = x[i-1] * x[i-2]: a recurrence that multiplies two
        loop-carried values."""
        body = [
            ComputeInstr(
                dest=Operand("X", IndexExpr(IndexBase.I, 0)),
                op=OpKind.MUL,
                imm=3,
                srcs=(
                    Operand("X", IndexExpr(IndexBase.I, -1)),
                    Operand("X", IndexExpr(IndexBase.I, -2)),
                ),
            )
        ]
        p = LoopProgram(name="nonaffine", pre=(), loop=self._loop(body), post=())
        result = _assert_same_outcome(p, 12)
        assert result is not None and result.executed == 12

    def test_affine_self_recurrence_is_traced(self):
        """x[i] = 7*x[i-1] + 11 over a long trip."""
        body = [
            ComputeInstr(
                dest=Operand("X", IndexExpr(IndexBase.I, 0)),
                op=OpKind.MAC,
                imm=11,
                srcs=(
                    Operand("X", IndexExpr(IndexBase.I, -1)),
                    Operand("C", IndexExpr(IndexBase.CONST, 1)),
                ),
            )
        ]
        p = LoopProgram(name="affine-rec", pre=(), loop=self._loop(body), post=())
        _assert_same_outcome(p, 500)

    def test_guard_windows_cover_never_and_always(self):
        """Guards that are always-off, always-on and windowed mid-trip."""
        pre = [
            SetupInstr(register="off", init=5),  # never in (-n, 0]
            SetupInstr(register="on", init=0),  # always active (never dec'd)
            SetupInstr(register="win", init=3),  # activates at iteration 4
        ]
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 0)),
                op=OpKind.SOURCE,
                imm=2,
                srcs=(),
                guard=Guard("off"),
            ),
            ComputeInstr(
                dest=Operand("B", IndexExpr(IndexBase.I, 0)),
                op=OpKind.SOURCE,
                imm=4,
                srcs=(),
                guard=Guard("on"),
            ),
            ComputeInstr(
                dest=Operand("C", IndexExpr(IndexBase.I, 0)),
                op=OpKind.COPY,
                imm=1,
                srcs=(Operand("B", IndexExpr(IndexBase.I, 0)),),
                guard=Guard("win", offset=1),
            ),
            ComputeInstr(
                dest=Operand("D", IndexExpr(IndexBase.I, 0)),
                op=OpKind.COPY,
                imm=0,
                srcs=(Operand("C", IndexExpr(IndexBase.I, -1)),),
                guard=Guard("win"),
            ),
        ]
        body.append(DecInstr(register="win", amount=1))
        p = LoopProgram(
            name="windows", pre=tuple(pre), loop=self._loop(body), post=()
        )
        result = _assert_same_outcome(p, 9)
        assert result is not None
        assert result.disabled > 0  # the windows really masked instances


class TestTraceSwitchesAndCounters:
    def test_trace_flag_still_uses_reference_path(self, fig8):
        p = original_loop(fig8)
        traced = run_program(p, 9, trace=True)
        assert traced.trace is not None
        dispatched = run_program(p, 9)
        assert dispatched.arrays == traced.arrays
