"""The virtual DSP machine: executes loop programs with conditional registers.

This is the substrate that stands in for the paper's TMS320C6000-class
hardware.  It executes a :class:`~repro.codegen.ir.LoopProgram` for a
concrete trip count ``n`` and returns the full array state, enforcing two
invariants that turn execution into a semantic proof:

* **single assignment** — every array instance is written at most once
  (a transformation that computed an instance twice, or whose guards failed
  to disable an out-of-range copy, dies loudly);
* **range discipline** — writes land only in instances ``1 .. n``.

Array reads of never-written instances return deterministic *initial
values* (the loop's live-in state, e.g. ``B[-1]`` in the paper's figures),
so programs are comparable even across transformations that read different
out-of-range instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from ..codegen.ir import ComputeInstr, DecInstr, Instr, LoopProgram, SetupInstr
from ..graph.dfg import evaluate_op
from ..observability import OBS, span
from .dispatch import compile_program, execute_compiled
from .registers import ConditionalRegisterFile, MachineError

__all__ = [
    "ExecutionTrace",
    "TraceEvent",
    "VMResult",
    "run_program",
    "default_initial",
    "MachineError",
]


@dataclass(frozen=True)
class TraceEvent:
    """One executed compute: node name, instance written, region of origin.

    ``region`` is ``"pre"``, ``"body"`` or ``"post"``; ``i`` is the loop
    variable value for body events and ``None`` elsewhere.
    """

    node: str
    instance: int
    region: str
    i: int | None


@dataclass
class ExecutionTrace:
    """Ordered record of one program execution."""

    events: list[TraceEvent] = field(default_factory=list)
    disabled: int = 0  # guarded computes whose predicate was off

    def record(self, node: str, instance: int, region: str, i: int | None) -> None:
        """Append one executed compute."""
        self.events.append(TraceEvent(node=node, instance=instance, region=region, i=i))

    def order_of(self) -> dict[tuple[str, int], int]:
        """Map ``(node, instance) -> position`` in execution order."""
        return {(e.node, e.instance): k for k, e in enumerate(self.events)}

    def instances_of(self, node: str) -> list[int]:
        """Instances of ``node`` in execution order."""
        return [e.instance for e in self.events if e.node == node]

    def __len__(self) -> int:
        return len(self.events)


def default_initial(array: str, index: int) -> int:
    """Deterministic initial value of ``array[index]`` (live-in state).

    A fixed polynomial in a stable per-name seed and the index — the same
    across processes and Python versions (unlike built-in ``hash``).
    """
    return _seed(array) * 31 + index * 7 + 1


@functools.lru_cache(maxsize=1024)
def _seed(array: str) -> int:
    """The per-name seed of :func:`default_initial`.  Names come from
    request graphs, so the cache is bounded."""
    seed = 0
    for ch in array:
        seed = (seed * 131 + ord(ch)) % 1_000_003
    return seed


@dataclass
class VMResult:
    """Outcome of one program execution.

    Attributes
    ----------
    arrays:
        ``array name -> {instance -> value}`` for every *written* instance.
    executed:
        Number of compute instructions that actually executed.
    disabled:
        Number of guarded computes whose predicate was off.
    trace:
        Full execution trace when tracing was requested, else ``None``.
    """

    arrays: dict[str, dict[int, int]]
    executed: int
    disabled: int
    trace: ExecutionTrace | None = None

    def written(self, array: str) -> dict[int, int]:
        """Written instances of one array (empty dict if none)."""
        return self.arrays.get(array, {})


def _check_meta(program: LoopProgram, n: int) -> None:
    meta = program.meta
    min_n = meta.get("min_n")
    if min_n is not None and n < min_n:
        raise MachineError(
            f"{program.name}: trip count {n} below the program's minimum {min_n}"
        )
    factor = meta.get("factor")
    residue = meta.get("residue")
    if factor and residue is not None:
        shift = meta.get("residue_shift", 0)
        if (n - shift) % factor != residue:
            raise MachineError(
                f"{program.name}: trip count {n} has residue "
                f"{(n - shift) % factor} (mod {factor}, shifted by {shift}), "
                f"but the program was specialized for residue {residue}"
            )


def run_program(
    program: LoopProgram,
    n: int,
    initial: Callable[[str, int], int] = default_initial,
    trace: bool = False,
    register_capacity: int | None = None,
    dispatch: bool = True,
) -> VMResult:
    """Execute ``program`` with trip count ``n`` and return the array state.

    ``register_capacity`` bounds the conditional register file (see
    :class:`~repro.machine.registers.ConditionalRegisterFile`);
    ``initial`` supplies live-in array values.

    By default execution goes through the pre-compiled threaded-dispatch
    engine (:mod:`repro.machine.dispatch`), which is differential-tested
    bit-identical to the reference interpreter.  ``dispatch=False`` forces
    the reference interpreter; ``trace=True`` implies it (tracing hooks
    live only there, and tracing cost dwarfs interpretation cost anyway).
    """
    if n < 0:
        raise MachineError(f"trip count must be >= 0, got {n}")
    _check_meta(program, n)

    if dispatch and not trace:
        if register_capacity is not None and register_capacity < 0:
            raise MachineError(f"capacity must be >= 0, got {register_capacity}")
        compiled = compile_program(program)
        with span("vm.run", program=program.name, n=n) as sp:
            arrays, executed, disabled = execute_compiled(
                compiled,
                n,
                initial,
                {},
                register_capacity,
                program.loop.iter_indices(n),
            )
            sp.set(executed=executed, disabled=disabled)
        if OBS.enabled:
            m = OBS.metrics
            m.counter(
                "vm.instructions.executed", "compute instructions executed"
            ).inc(executed)
            m.counter(
                "vm.instructions.disabled", "guarded computes whose predicate was off"
            ).inc(disabled)
            m.histogram(
                "vm.run.instructions", "executed instructions per program run"
            ).observe(executed)
        return VMResult(arrays=arrays, executed=executed, disabled=disabled, trace=None)

    regs = ConditionalRegisterFile(trip_count=n, capacity=register_capacity)
    arrays: dict[str, dict[int, int]] = {}
    tr = ExecutionTrace() if trace else None
    executed = 0
    disabled = 0

    def read(array: str, index: int) -> int:
        store = arrays.get(array)
        if store is not None and index in store:
            return store[index]
        return initial(array, index)

    def execute(instr: Instr, i: int | None, region: str) -> None:
        nonlocal executed, disabled
        if isinstance(instr, SetupInstr):
            regs.setup(instr.register, instr.init)
            return
        if isinstance(instr, DecInstr):
            regs.decrement(instr.register, instr.amount)
            return
        assert isinstance(instr, ComputeInstr)
        if not regs.is_active(instr.guard):
            disabled += 1
            if tr is not None:
                tr.disabled += 1
            return
        dest_index = instr.dest.index.resolve(i, n)
        if not 1 <= dest_index <= n:
            raise MachineError(
                f"{program.name}: write to {instr.dest.array}[{dest_index}] "
                f"outside 1..{n} (instruction: {instr})"
            )
        store = arrays.setdefault(instr.dest.array, {})
        if dest_index in store:
            raise MachineError(
                f"{program.name}: {instr.dest.array}[{dest_index}] computed twice "
                f"(instruction: {instr})"
            )
        values = [read(s.array, s.index.resolve(i, n)) for s in instr.srcs]
        store[dest_index] = evaluate_op(instr.op, instr.imm, values, dest_index)
        executed += 1
        if tr is not None:
            tr.record(instr.dest.array, dest_index, region, i)

    # One span per run and bulk counter updates at the end — the per-
    # instruction loop carries no observability cost.
    with span("vm.run", program=program.name, n=n) as sp:
        for instr in program.pre:
            execute(instr, None, "pre")
        for i in program.loop.iter_indices(n):
            for instr in program.loop.body:
                execute(instr, i, "body")
        for instr in program.post:
            execute(instr, None, "post")
        sp.set(executed=executed, disabled=disabled)

    if OBS.enabled:
        m = OBS.metrics
        m.counter(
            "vm.instructions.executed", "compute instructions executed"
        ).inc(executed)
        m.counter(
            "vm.instructions.disabled", "guarded computes whose predicate was off"
        ).inc(disabled)
        m.histogram(
            "vm.run.instructions", "executed instructions per program run"
        ).observe(executed)

    return VMResult(arrays=arrays, executed=executed, disabled=disabled, trace=tr)
