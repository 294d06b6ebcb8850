"""Cycle-accurate execution of VLIW-packed programs.

The word packer (:mod:`repro.schedule.vliw`) claims its packings respect
all dependencies.  This module *checks that claim semantically*: it
executes a packed program word by word with true VLIW commit semantics —
**all reads in a word observe the machine state from before the word**
(operand reads, guard reads and register updates commit together at word
boundaries).  If the packer ever co-scheduled a producer with its consumer,
the consumer reads the stale value and the result diverges from the
sequential VM, which the test-suite asserts never happens.

The executor also reports the exact cycle count, making
:func:`repro.schedule.vliw.estimate_cycles` a theorem rather than an
estimate (one word = one cycle; both are asserted equal in tests).

Like the sequential VM, the default execution path pre-compiles every
packed word's slots into flat dispatch tuples (:mod:`repro.machine.dispatch`)
so the per-word loop carries no ``isinstance`` chains or repeated attribute
lookups; ``dispatch=False`` forces the original dataclass-walking
interpreter, against which the compiled path is differential-tested
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..codegen.ir import ComputeInstr, DecInstr, LoopProgram, SetupInstr
from ..graph.dfg import DFGError, evaluate_op
from ..observability import OBS, span
from ..schedule.resources import ResourceModel
from ..schedule.vliw import VliwSchedule, pack_body, pack_straightline
from .dispatch import _COMPUTE, _CONST, _LOOP, _SETUP, _TRIP, _compile_region
from .registers import ConditionalRegisterFile, MachineError
from .vm import default_initial

__all__ = ["PackedResult", "run_packed"]


@dataclass
class PackedResult:
    """Outcome of a packed execution: array state plus the cycle count."""

    arrays: dict[str, dict[int, int]]
    cycles: int
    executed: int
    disabled: int


def run_packed(
    program: LoopProgram,
    n: int,
    resources: ResourceModel,
    control_slots: int = 1,
    initial: Callable[[str, int], int] = default_initial,
    dispatch: bool = True,
) -> PackedResult:
    """Pack ``program`` for ``resources`` and execute it word by word."""
    from ..machine.vm import _check_meta  # shared trip-count contract

    _check_meta(program, n)
    pre = pack_straightline(program.pre, resources, control_slots)
    body = pack_body(program, resources, control_slots)
    post = pack_straightline(program.post, resources, control_slots)

    if dispatch:
        return _run_packed_dispatch(program, n, pre, body, post, initial)
    return _run_packed_reference(program, n, pre, body, post, initial)


def _run_packed_dispatch(
    program: LoopProgram,
    n: int,
    pre: VliwSchedule,
    body: VliwSchedule,
    post: VliwSchedule,
    initial: Callable[[str, int], int],
) -> PackedResult:
    """Word-by-word execution over pre-compiled slot tuples."""
    if n < 0:
        raise MachineError(f"trip count must be >= 0, got {n}")
    pre_words = [_compile_region(w.slots, in_body=False) for w in pre.words]
    body_words = [_compile_region(w.slots, in_body=True) for w in body.words]
    post_words = [_compile_region(w.slots, in_body=False) for w in post.words]

    name = program.name
    neg_n = -n
    reg_values: dict[str, int] = {}
    arrays: dict[str, dict[int, int]] = {}
    arrays_get = arrays.get
    executed = 0
    disabled = 0
    cycles = 0

    def run_words(words: list[list[tuple]], i: int | None) -> None:
        nonlocal executed, disabled, cycles
        for code in words:
            cycles += 1
            # Phase 1: read — evaluate every slot against pre-word state.
            staged_writes: list[tuple[str, int, int]] = []
            staged_regs: list[tuple[str, int]] = []
            for op in code:
                kind = op[0]
                if kind == _COMPUTE:
                    greg = op[1]
                    if greg is not None:
                        try:
                            p = reg_values[greg]
                        except KeyError:
                            raise MachineError(
                                f"read of register {greg!r} before setup"
                            ) from None
                        p += op[2]
                        if not (neg_n < p <= 0):
                            disabled += 1
                            continue
                    dbase = op[4]
                    if dbase == _CONST:
                        dest_index = op[5]
                    elif dbase == _LOOP:
                        dest_index = i + op[5]
                    elif dbase == _TRIP:
                        dest_index = n + op[5]
                    else:
                        raise DFGError(
                            "loop-variable index used outside the loop body"
                        )
                    if not 1 <= dest_index <= n:
                        raise MachineError(
                            f"{name} (packed): write to "
                            f"{op[3]}[{dest_index}] outside 1..{n}"
                        )
                    values = []
                    for sarr, sbase, soff in op[7]:
                        if sbase == _CONST:
                            idx = soff
                        elif sbase == _LOOP:
                            idx = i + soff
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
                    staged_writes.append(
                        (op[3], dest_index, op[6](values, dest_index))
                    )
                elif kind == _SETUP:
                    staged_regs.append((op[1], op[2]))
                else:  # _DEC — reads the pre-word register value
                    reg = op[1]
                    try:
                        val = reg_values[reg]
                    except KeyError:
                        raise MachineError(
                            f"read of register {reg!r} before setup"
                        ) from None
                    staged_regs.append((reg, val - op[2]))
            # Phase 2: commit — writes and register updates land together.
            for array, index, value in staged_writes:
                store = arrays.setdefault(array, {})
                if index in store:
                    raise MachineError(
                        f"{name} (packed): {array}[{index}] computed twice"
                    )
                store[index] = value
                executed += 1
            for reg, val in staged_regs:
                reg_values[reg] = val

    with span("vm.packed_run", program=program.name, n=n) as sp:
        run_words(pre_words, None)
        for i in program.loop.iter_indices(n):
            run_words(body_words, i)
        run_words(post_words, None)
        sp.set(cycles=cycles, executed=executed)

    _emit_metrics(cycles, executed)
    return PackedResult(
        arrays=arrays, cycles=cycles, executed=executed, disabled=disabled
    )


def _run_packed_reference(
    program: LoopProgram,
    n: int,
    pre: VliwSchedule,
    body: VliwSchedule,
    post: VliwSchedule,
    initial: Callable[[str, int], int],
) -> PackedResult:
    """The original dataclass-walking interpreter (differential reference)."""
    regs = ConditionalRegisterFile(trip_count=n)
    arrays: dict[str, dict[int, int]] = {}
    executed = 0
    disabled = 0
    cycles = 0

    def read(array: str, index: int) -> int:
        store = arrays.get(array)
        if store is not None and index in store:
            return store[index]
        return initial(array, index)

    def run_words(schedule: VliwSchedule, i: int | None) -> None:
        nonlocal executed, disabled, cycles
        for word in schedule.words:
            cycles += 1
            # Phase 1: read — evaluate every slot against pre-word state.
            staged_writes: list[tuple[str, int, int]] = []
            staged_regs: list[tuple[str, int, bool]] = []  # (reg, val, is_setup)
            for instr in word.slots:
                if isinstance(instr, SetupInstr):
                    staged_regs.append((instr.register, instr.init, True))
                elif isinstance(instr, DecInstr):
                    staged_regs.append(
                        (instr.register, regs.value(instr.register) - instr.amount, False)
                    )
                else:
                    assert isinstance(instr, ComputeInstr)
                    if not regs.is_active(instr.guard):
                        disabled += 1
                        continue
                    dest_index = instr.dest.index.resolve(i, n)
                    if not 1 <= dest_index <= n:
                        raise MachineError(
                            f"{program.name} (packed): write to "
                            f"{instr.dest.array}[{dest_index}] outside 1..{n}"
                        )
                    values = [read(s.array, s.index.resolve(i, n)) for s in instr.srcs]
                    staged_writes.append(
                        (
                            instr.dest.array,
                            dest_index,
                            evaluate_op(instr.op, instr.imm, values, dest_index),
                        )
                    )
            # Phase 2: commit — writes and register updates land together.
            for array, index, value in staged_writes:
                store = arrays.setdefault(array, {})
                if index in store:
                    raise MachineError(
                        f"{program.name} (packed): {array}[{index}] computed twice"
                    )
                store[index] = value
                executed += 1
            for reg, val, _is_setup in staged_regs:
                # Both setups and staged decrements commit as direct stores.
                regs.setup(reg, val)

    with span("vm.packed_run", program=program.name, n=n) as sp:
        run_words(pre, None)
        for i in program.loop.iter_indices(n):
            run_words(body, i)
        run_words(post, None)
        sp.set(cycles=cycles, executed=executed)

    _emit_metrics(cycles, executed)
    return PackedResult(
        arrays=arrays, cycles=cycles, executed=executed, disabled=disabled
    )


def _emit_metrics(cycles: int, executed: int) -> None:
    if OBS.enabled:
        m = OBS.metrics
        m.counter("vliw.cycles", "VLIW words committed").inc(cycles)
        m.counter("vliw.instructions.executed", "packed computes executed").inc(
            executed
        )
