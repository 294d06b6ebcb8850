"""Tests for the pre-compiled threaded-dispatch execution engine.

The contract is total behavioral equivalence with the reference
interpreter — same arrays, same counters, same exceptions with the same
messages — plus sane compile-cache behavior.  The broad random battery
over original, pipelined, CSR and unfolded programs lives in
``test_trace_backend.py`` and uses the helpers defined here.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.codegen import original_loop, pipelined_loop
from repro.codegen.ir import (
    ComputeInstr,
    IndexBase,
    IndexExpr,
    Loop,
    LoopProgram,
    Operand,
)
from repro.graph import OpKind
from repro.graph.dfg import DFGError
from repro.graph.generators import random_dfg
from repro.machine import MachineError, run_program
from repro.machine.dispatch import _CACHE, compile_program
from repro.machine.vliw_vm import run_packed
from repro.retiming import minimize_cycle_period
from repro.schedule.resources import ResourceModel
from repro.workloads import WORKLOADS

_MACHINE = ResourceModel(units={"alu": 2, "mul": 1})

_EMPTY_LOOP = Loop(
    start=IndexExpr(IndexBase.CONST, 1),
    end=IndexExpr(IndexBase.CONST, 0),
    step=1,
    body=(),
)


def _same_outcome(run, fields):
    """Call ``run(dispatch=False)`` and ``run()``; pin the named result
    fields, or the exception type and message, equal."""
    ref_exc = new_exc = ref = new = None
    try:
        ref = run(dispatch=False)
    except Exception as exc:  # noqa: BLE001 - parity check needs everything
        ref_exc = exc
    try:
        new = run()
    except Exception as exc:  # noqa: BLE001
        new_exc = exc
    if ref_exc is not None or new_exc is not None:
        assert type(ref_exc) is type(new_exc), (ref_exc, new_exc)
        assert str(ref_exc) == str(new_exc)
        return None
    for name in fields:
        assert getattr(new, name) == getattr(ref, name), name
    return new


def _assert_same_outcome(program, n, **kwargs):
    """Sequential VM: dispatch against the reference interpreter."""
    return _same_outcome(
        lambda **kw: run_program(program, n, **kwargs, **kw),
        ("arrays", "executed", "disabled"),
    )


def _assert_packed_outcome(program, n):
    """VLIW VM: dispatch against the reference interpreter, cycles too."""
    return _same_outcome(
        lambda **kw: run_packed(program, n, _MACHINE, **kw),
        ("arrays", "cycles", "executed", "disabled"),
    )


class TestDispatchEquivalence:
    def test_workload_registry(self, bench_graph):
        p = original_loop(bench_graph)
        _assert_same_outcome(p, 17)
        _, r = minimize_cycle_period(bench_graph)
        _assert_same_outcome(pipelined_loop(bench_graph, r), 17)

    def test_random_programs(self):
        rng = random.Random(31337)
        for i in range(40):
            g = random_dfg(rng, num_nodes=rng.randint(3, 10), name=f"d{i}")
            p = original_loop(g)
            min_n = p.meta.get("min_n", 1) or 1
            _assert_same_outcome(p, max(min_n, rng.randint(1, 15)))

    def test_trace_uses_reference_path(self, fig8):
        """Tracing needs the reference interpreter's hooks; results still
        match the dispatch path."""
        p = original_loop(fig8)
        traced = run_program(p, 9, trace=True)
        assert traced.trace is not None
        dispatched = run_program(p, 9)
        assert dispatched.trace is None
        assert dispatched.arrays == traced.arrays


class TestDispatchErrors:
    def test_negative_trip_count(self, fig8):
        p = original_loop(fig8)
        _assert_same_outcome(p, -1)

    def test_negative_capacity(self, fig8):
        p = original_loop(fig8)
        _assert_same_outcome(p, 5, register_capacity=-2)

    def test_capacity_exhaustion_message(self, bench_graph):
        _, r = minimize_cycle_period(bench_graph)
        p = pipelined_loop(bench_graph, r)
        _assert_same_outcome(p, 11, register_capacity=0)

    def test_loop_var_index_outside_body(self):
        """A loop-variable index in pre/post must raise DFGError at
        *execution* time on both paths."""
        bad = ComputeInstr(
            dest=Operand("A", IndexExpr(IndexBase.I, 0)),
            op=OpKind.SOURCE,
            imm=1,
            srcs=(),
        )
        p = LoopProgram(
            name="bad-pre",
            pre=(bad,),
            loop=_EMPTY_LOOP,
            post=(),
        )
        with pytest.raises(DFGError, match="outside the loop body"):
            run_program(p, 3)
        _assert_same_outcome(p, 3)

    def test_double_write_message(self):
        instr = ComputeInstr(
            dest=Operand("A", IndexExpr(IndexBase.CONST, 1)),
            op=OpKind.SOURCE,
            imm=1,
            srcs=(),
        )
        p = LoopProgram(
            name="dup", pre=(instr, instr), loop=_EMPTY_LOOP, post=()
        )
        with pytest.raises(MachineError, match=r"A\[1\] computed twice"):
            run_program(p, 2)
        _assert_same_outcome(p, 2)

    def test_out_of_range_write_message(self):
        instr = ComputeInstr(
            dest=Operand("A", IndexExpr(IndexBase.CONST, 99)),
            op=OpKind.SOURCE,
            imm=1,
            srcs=(),
        )
        p = LoopProgram(name="oob", pre=(instr,), loop=_EMPTY_LOOP, post=())
        with pytest.raises(MachineError, match=r"write to A\[99\] outside"):
            run_program(p, 2)
        _assert_same_outcome(p, 2)


class TestCompileCache:
    def test_same_object_hits_cache(self, fig8):
        p = original_loop(fig8)
        assert compile_program(p) is compile_program(p)

    def test_distinct_programs_compile_separately(self, fig8):
        p1 = original_loop(fig8)
        p2 = original_loop(fig8)
        c1, c2 = compile_program(p1), compile_program(p2)
        assert c1 is not c2

    def test_cache_entry_dies_with_program(self, fig8):
        p = original_loop(fig8)
        key = id(p)
        compile_program(p)
        assert key in _CACHE
        del p
        gc.collect()
        assert key not in _CACHE

    def test_id_reuse_does_not_serve_stale_code(self, fig8):
        """If a new program object lands on a recycled id, the weakref
        guard must force a recompile rather than serve the old code."""
        p1 = original_loop(fig8)
        c1 = compile_program(p1)
        # Simulate id reuse: plant c1 under p2's id with a dead-ish ref.
        p2 = pipelined_loop(fig8, minimize_cycle_period(fig8)[1])
        _CACHE[id(p2)] = c1
        c2 = compile_program(p2)
        assert c2 is not c1
        assert c2.program_ref() is p2


class TestInstructionCompileCache:
    """Each compute instruction compiles once per object and region kind,
    and its cached tuple keeps no instruction alive."""

    def test_repeated_instructions_compile_once(self, fig8, monkeypatch):
        from repro.machine import dispatch

        built = []
        real = dispatch._compiled
        monkeypatch.setattr(
            dispatch, "_compiled", lambda instr, in_body: built.append(instr) or real(instr, in_body)
        )
        p1 = original_loop(fig8)
        p2 = original_loop(fig8)  # a distinct program over the same instructions
        c1, c2 = compile_program(p1), compile_program(p2)
        assert c1 is not c2
        assert len(built) == len(p1.loop.body) == len(set(map(id, built)))
        assert all(a is b for a, b in zip(c1.body, c2.body))
        assert run_program(p1, 5).arrays == run_program(p2, 5).arrays

    def test_cached_tuple_dies_with_its_instruction(self, fig8):
        import weakref

        from repro.machine.dispatch import _INSTRS

        g = fig8.copy()
        p = original_loop(g)
        run_program(p, 3)
        refs = [weakref.ref(instr) for instr in p.loop.body]
        keys = [id(instr) for instr in p.loop.body]
        assert all(k in _INSTRS for k in keys)
        del g, p
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert not any(k in _INSTRS for k in keys)

    def test_error_messages_still_name_the_instruction(self):
        instr = ComputeInstr(
            dest=Operand("A", IndexExpr(IndexBase.CONST, 0)),
            op=OpKind.ADD,
            imm=0,
            srcs=(),
        )
        p = LoopProgram("bad", pre=(instr,), loop=_EMPTY_LOOP, post=())
        with pytest.raises(MachineError, match=r"instruction: A\[0\] = add"):
            run_program(p, 2)


class TestCompileCacheConcurrency:
    """The id-keyed cache under threads: single-compilation semantics and
    no cross-thread aliasing after GC recycles an id."""

    def test_concurrent_compile_is_single_compilation(self, fig8):
        """N threads racing on one uncached program must all receive the
        same CompiledProgram object and leave exactly one cache entry."""
        import threading

        p = original_loop(fig8)
        _CACHE.pop(id(p), None)
        nthreads = 8
        barrier = threading.Barrier(nthreads)
        results: list[object] = [None] * nthreads
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                results[slot] = compile_program(p)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        first = results[0]
        assert all(r is first for r in results)
        assert _CACHE[id(p)] is first

    def test_concurrent_distinct_programs_do_not_cross_alias(self, fig8):
        """Threads compiling different programs concurrently each get a
        compilation bound to their own program."""
        import threading

        programs = [original_loop(fig8) for _ in range(6)]
        barrier = threading.Barrier(len(programs))
        compiled: dict[int, object] = {}
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                compiled[slot] = compile_program(programs[slot])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(programs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for slot, program in enumerate(programs):
            assert compiled[slot].program_ref() is program
        assert len({id(c) for c in compiled.values()}) == len(programs)

    def test_gc_id_reuse_recompiles_for_new_program(self, fig8):
        """Compile, keep the compilation alive, drop the program, collect,
        then allocate new programs: whichever lands on the recycled id must
        get a fresh compilation, never the kept-alive stale one."""
        p1 = original_loop(fig8)
        c1 = compile_program(p1)
        old_id = id(p1)
        del p1
        gc.collect()
        assert old_id not in _CACHE  # the weakref callback purged the dead entry
        # Churn allocations until one reuses the id (usually immediate in
        # CPython); either way the guard must hold for every new program.
        for _ in range(50):
            p2 = original_loop(fig8)
            c2 = compile_program(p2)
            assert c2 is not c1
            assert c2.program_ref() is p2
            if id(p2) == old_id:
                break
            del p2
            gc.collect()


class TestWorkloadSweep:
    """Every registry workload, original + pipelined, at several trip
    counts — the in-suite slice of the full differential sweep."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_registry_program(self, name):
        g = WORKLOADS[name]()
        for p in (original_loop(g), pipelined_loop(g, minimize_cycle_period(g)[1])):
            min_n = p.meta.get("min_n", 1) or 1
            for n in {min_n, min_n + 7, min_n + 20}:
                _assert_same_outcome(p, n)
