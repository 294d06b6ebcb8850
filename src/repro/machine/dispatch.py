"""Pre-compiled threaded dispatch for :class:`~repro.codegen.ir.LoopProgram`.

The reference interpreter in :mod:`repro.machine.vm` walks the instruction
dataclasses on every iteration: per instruction it pays an ``isinstance``
chain, attribute lookups (``instr.dest.index.offset`` …), a closure call per
operand read, and a trip through the generic
:func:`~repro.graph.dfg.evaluate_op` dispatch.  None of that work depends on
the iteration — only the resolved indices and operand values do.

This module compiles a program *once* into flat per-instruction tuples with
pre-resolved registers, ops, and index offsets:

* the instruction kind becomes a small int (``_SETUP``/``_DEC``/``_COMPUTE``)
  switched on with two integer comparisons;
* guards become a pre-extracted ``(register, offset)`` pair (or ``None``);
* every operand index becomes a ``(base_code, offset)`` pair resolved with
  one or two integer comparisons — the compiler re-encodes loop-variable
  indices appearing *outside* the loop body as an explicit error code so the
  reference semantics (a :class:`~repro.graph.dfg.DFGError` at execution
  time, not compile time) are preserved;
* the operation becomes a specialized closure over ``(op, imm)`` whose
  arithmetic is copied verbatim from :func:`evaluate_op` (malformed arities
  fall back to ``evaluate_op`` itself so error behavior and messages stay
  identical).

Compiled programs are cached per ``LoopProgram`` object (id-keyed with a
weakref guard, so the cache neither leaks nor survives object reuse), making
repeated ``run_program`` calls on the same program pay compilation once.
Below that, each compute instruction compiles once per object: the
programs of one graph share their instructions
(:func:`repro.codegen.original.compute_for_node`), and a compiled tuple
is kept for as long as its instruction lives.  The tuple holds its
instruction only weakly (for error messages), so the cache keeps no
instruction alive.  Op closures are shared per ``(op, imm, arity)``.

The executor is differential-tested against the reference interpreter for
bit-identical :class:`~repro.machine.vm.VMResult` contents on the full
workload registry and hundreds of random programs.
"""

from __future__ import annotations

import functools
import threading
import weakref
from typing import Callable

from ..codegen.ir import (
    ComputeInstr,
    DecInstr,
    IndexBase,
    IndexExpr,
    Instr,
    LoopProgram,
    SetupInstr,
)
from ..graph.dfg import DFGError, MODULUS, OpKind, evaluate_op
from .registers import MachineError

__all__ = ["CompiledProgram", "compile_program", "execute_compiled"]

# Instruction kind codes.
_SETUP = 0
_DEC = 1
_COMPUTE = 2

# Index base codes.  _ERR marks a loop-variable index compiled outside the
# loop body: resolving it raises, matching IndexExpr.resolve semantics.
_CONST = 0
_LOOP = 1
_TRIP = 2
_ERR = 3


@functools.lru_cache(maxsize=256)
def _op_closure(op: OpKind, imm: int, arity: int) -> Callable[[list[int], int], int]:
    """A specialized ``(values, instance) -> int`` evaluator for one
    instruction, bit-identical to :func:`evaluate_op`.

    Arity mismatches that :func:`evaluate_op` rejects are deliberately left
    to the generic function so they raise the same error *at execution
    time* (a guarded-off malformed instruction must stay runnable).
    """
    if op is OpKind.ADD:
        return lambda values, _j: (sum(values) + imm) % MODULUS
    if op is OpKind.SUB:
        if arity == 0:
            const = imm % MODULUS
            return lambda _values, _j: const
        return lambda values, _j: (values[0] - sum(values[1:]) + imm) % MODULUS
    if op is OpKind.MUL:

        def _mul(values: list[int], _j: int) -> int:
            result = imm % MODULUS
            for v in values:
                result = (result * v) % MODULUS
            return result

        return _mul
    if op is OpKind.MAC and arity >= 2:
        return lambda values, _j: (
            values[0] * values[1] + sum(values[2:]) + imm
        ) % MODULUS
    if op is OpKind.COPY and arity == 1:
        return lambda values, _j: (values[0] + imm) % MODULUS
    if op is OpKind.SOURCE and arity == 0:
        return lambda _values, j: (imm + 13 * j) % MODULUS
    # Malformed arity or unknown op: defer to the generic evaluator for
    # identical error behavior.
    return lambda values, j: evaluate_op(op, imm, values, j)


def _index_code(expr: IndexExpr, in_body: bool) -> tuple[int, int]:
    """``(base_code, offset)`` for one index expression in one region."""
    if expr.base is IndexBase.CONST:
        return (_CONST, expr.offset)
    if expr.base is IndexBase.N:
        return (_TRIP, expr.offset)
    if not in_body:
        return (_ERR, expr.offset)
    return (_LOOP, expr.offset)


#: id(instr) -> [weakref to instr, tuple outside the body, tuple in it]
#: (each built on first use).
_INSTRS: dict[int, list] = {}


def _compile_region(instrs: tuple[Instr, ...], in_body: bool) -> list[tuple]:
    """Compile one region into flat dispatch tuples.

    Compute tuples: ``(_COMPUTE, guard_reg, guard_off, dest_array,
    dest_base, dest_off, op_fn, srcs, instr_ref)`` with ``srcs`` a tuple
    of ``(array, base_code, offset)``; the trailing weak reference to the
    instruction is only for error messages.  Each is built once per
    instruction object and region kind (:func:`_compiled`).
    """
    slot = 2 if in_body else 1
    code: list[tuple] = []
    for instr in instrs:
        if isinstance(instr, ComputeInstr):
            entry = _INSTRS.get(id(instr))
            if entry is not None and entry[0]() is instr and entry[slot] is not None:
                code.append(entry[slot])
            else:
                code.append(_compiled(instr, in_body))
        elif isinstance(instr, SetupInstr):
            code.append((_SETUP, instr.register, instr.init))
        else:
            assert isinstance(instr, DecInstr)
            code.append((_DEC, instr.register, instr.amount))
    return code


def _compiled(instr: ComputeInstr, in_body: bool) -> tuple:
    """Build and keep ``instr``'s dispatch tuple for one region kind."""
    key = id(instr)
    entry = _INSTRS.get(key)
    if entry is None or entry[0]() is not instr:
        ref = weakref.ref(instr, lambda r, k=key: _drop_instr(k, r))
        entry = _INSTRS[key] = [ref, None, None]
    guard = instr.guard
    dbase, doff = _index_code(instr.dest.index, in_body)
    srcs = tuple((s.array, *_index_code(s.index, in_body)) for s in instr.srcs)
    code = entry[2 if in_body else 1] = (
        _COMPUTE,
        guard.register if guard is not None else None,
        guard.offset if guard is not None else 0,
        instr.dest.array,
        dbase,
        doff,
        _op_closure(instr.op, instr.imm, len(instr.srcs)),
        srcs,
        entry[0],
    )
    return code


def _drop_instr(key: int, ref: weakref.ref) -> None:
    entry = _INSTRS.get(key)
    if entry is not None and entry[0] is ref:
        _INSTRS.pop(key, None)


class CompiledProgram:
    """A :class:`LoopProgram` lowered to flat dispatch lists."""

    __slots__ = ("name", "pre", "body", "post", "program_ref")

    def __init__(self, program: LoopProgram, on_death=None) -> None:
        self.name = program.name
        self.pre = _compile_region(program.pre, in_body=False)
        self.body = _compile_region(program.loop.body, in_body=True)
        self.post = _compile_region(program.post, in_body=False)
        self.program_ref = weakref.ref(program, on_death)


_CACHE: dict[int, CompiledProgram] = {}
_CACHE_LOCK = threading.Lock()


def compile_program(program: LoopProgram) -> CompiledProgram:
    """The compiled form of ``program``, cached per program object.

    Thread-safe: concurrent calls on the same program compile it once
    (double-checked under a lock), and the id-keyed entry is revalidated
    against its weakref so a recycled ``id()`` after GC can never alias a
    different program to a stale compilation.
    """
    key = id(program)
    cached = _CACHE.get(key)
    if cached is not None and cached.program_ref() is program:
        return cached
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None and cached.program_ref() is program:
            return cached
        # The entry dies with its program (a weakref callback: cheaper
        # than weakref.finalize, and the cache holds the weakref alive).
        compiled = CompiledProgram(program, lambda _ref, k=key: _CACHE.pop(k, None))
        _CACHE[key] = compiled
    return compiled


def execute_compiled(
    compiled: CompiledProgram,
    n: int,
    initial: Callable[[str, int], int],
    reg_values: dict[str, int],
    reg_capacity: int | None,
    loop_indices,
) -> tuple[dict[str, dict[int, int]], int, int]:
    """Run a compiled program; returns ``(arrays, executed, disabled)``.

    ``reg_values`` is the conditional register file's backing dict (shared
    so callers can snapshot it); semantics — the activation window
    ``-n < p + offset <= 0``, capacity exhaustion, reads before setup —
    replicate :class:`~repro.machine.registers.ConditionalRegisterFile`
    exactly, including error messages.
    """
    arrays: dict[str, dict[int, int]] = {}
    arrays_get = arrays.get
    executed = 0
    disabled = 0
    name = compiled.name
    neg_n = -n

    def run_region(code: list[tuple], i: int | None) -> None:
        nonlocal executed, disabled
        for op in code:
            if op[0] == _COMPUTE:
                _, greg, goff, darr, dbase, doff, fn, srcs, ref = op
                if greg is not None:
                    try:
                        p = reg_values[greg]
                    except KeyError:
                        raise MachineError(
                            f"read of register {greg!r} before setup"
                        ) from None
                    p += goff
                    if not (neg_n < p <= 0):
                        disabled += 1
                        continue
                if dbase == _LOOP:
                    dest_index = i + doff
                elif dbase == _CONST:
                    dest_index = doff
                elif dbase == _TRIP:
                    dest_index = n + doff
                else:
                    raise DFGError("loop-variable index used outside the loop body")
                if not 1 <= dest_index <= n:
                    raise MachineError(
                        f"{name}: write to {darr}[{dest_index}] "
                        f"outside 1..{n} (instruction: {ref()})"
                    )
                store = arrays_get(darr)
                if store is None:
                    store = arrays[darr] = {}
                elif dest_index in store:
                    raise MachineError(
                        f"{name}: {darr}[{dest_index}] computed twice "
                        f"(instruction: {ref()})"
                    )
                values = []
                for sarr, sbase, soff in srcs:
                    if sbase == _LOOP:
                        idx = i + soff
                    elif sbase == _CONST:
                        idx = soff
                    elif sbase == _TRIP:
                        idx = n + soff
                    else:
                        raise DFGError(
                            "loop-variable index used outside the loop body"
                        )
                    src_store = arrays_get(sarr)
                    if src_store is not None and idx in src_store:
                        values.append(src_store[idx])
                    else:
                        values.append(initial(sarr, idx))
                store[dest_index] = fn(values, dest_index)
                executed += 1
            elif op[0] == _SETUP:
                reg = op[1]
                if (
                    reg_capacity is not None
                    and reg not in reg_values
                    and len(reg_values) >= reg_capacity
                ):
                    raise MachineError(
                        f"conditional register file exhausted: cannot allocate "
                        f"{reg!r} beyond capacity {reg_capacity}"
                    )
                reg_values[reg] = op[2]
            else:  # _DEC
                reg = op[1]
                if reg not in reg_values:
                    raise MachineError(
                        f"decrement of register {reg!r} before setup"
                    )
                reg_values[reg] -= op[2]

    run_region(compiled.pre, None)
    body = compiled.body
    for i in loop_indices:
        run_region(body, i)
    run_region(compiled.post, None)
    return arrays, executed, disabled
