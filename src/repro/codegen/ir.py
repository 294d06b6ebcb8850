"""Loop-program intermediate representation.

Programs generated from DFGs — the original loop, its software-pipelined
form, the unfolded forms, and the conditional-register (CSR) forms — are all
expressed in one small IR so that a single virtual machine
(:mod:`repro.machine`) can execute and compare them.

A :class:`LoopProgram` has three regions::

    pre:   straight-line code before the loop   (prologue, register setup)
    loop:  for i = start to end step s: body
    post:  straight-line code after the loop    (epilogue, remainder)

Every DFG node ``v`` owns an *array* ``v`` indexed by iteration instance;
the instruction computing instance ``m`` writes ``v[m]``.  Indices are
affine in at most one symbol (:class:`IndexExpr`): the loop variable ``i``
(only inside the body), the trip count ``n`` (typically in ``post``), or a
plain constant (typically in ``pre``).

Conditional execution follows the paper's Section 3.1 exactly, with one
generalization: a :class:`Guard` carries a per-instruction ``offset`` so a
single register can guard all ``f`` copies of an instruction in an unfolded
body (the paper's single-register claim for unfolded loops needs this to be
exact for every ``n mod f``).  A guarded instruction executes iff::

    -LC < p + offset <= 0

where ``p`` is the register's current value and ``LC`` the original trip
count, matching the paper's ``setup p = init : -LC`` window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union

from ..graph.dfg import DFGError, OpKind

__all__ = [
    "IndexBase",
    "IndexExpr",
    "Operand",
    "Guard",
    "ComputeInstr",
    "SetupInstr",
    "DecInstr",
    "Instr",
    "Loop",
    "LoopProgram",
]


class IndexBase(enum.Enum):
    """Which symbol an :class:`IndexExpr` is relative to."""

    CONST = "const"  # absolute instance number
    I = "i"  # the loop variable
    N = "n"  # the trip count


@dataclass(frozen=True)
class IndexExpr:
    """An affine index ``base + offset`` with ``base`` in {0, i, n}."""

    base: IndexBase
    offset: int

    def resolve(self, i: int | None, n: int) -> int:
        """Concrete index value given loop variable ``i`` and trip count ``n``.

        ``i`` must be provided exactly when ``base`` is ``I`` (instructions
        outside the loop body must not reference the loop variable).
        """
        if self.base is IndexBase.CONST:
            return self.offset
        if self.base is IndexBase.N:
            return n + self.offset
        if i is None:
            raise DFGError("loop-variable index used outside the loop body")
        return i + self.offset

    def __str__(self) -> str:
        if self.base is IndexBase.CONST:
            return str(self.offset)
        sym = self.base.value
        if self.offset == 0:
            return sym
        return f"{sym}{self.offset:+d}"

    @classmethod
    def const(cls, value: int) -> "IndexExpr":
        """Absolute index ``value``."""
        return cls(IndexBase.CONST, value)

    @classmethod
    def loop(cls, offset: int = 0) -> "IndexExpr":
        """Loop-relative index ``i + offset``."""
        return cls(IndexBase.I, offset)

    @classmethod
    def trip(cls, offset: int = 0) -> "IndexExpr":
        """Trip-count-relative index ``n + offset``."""
        return cls(IndexBase.N, offset)


@dataclass(frozen=True)
class Operand:
    """A reference to one array element, ``array[index]``."""

    array: str
    index: IndexExpr

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class Guard:
    """Conditional-execution predicate ``-LC < p + offset <= 0``.

    ``offset = 0`` is the paper's plain predicate; non-zero offsets let all
    copies of an unfolded instruction share one register (Section 3.3).
    """

    register: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset == 0:
            return f"({self.register})"
        return f"({self.register}{self.offset:+d})"


@dataclass(frozen=True)
class ComputeInstr:
    """A computation ``dest = op(srcs) [imm]``, optionally guarded.

    ``node`` records the originating DFG node for code-size accounting and
    diagnostics; it does not affect execution.
    """

    dest: Operand
    op: OpKind
    imm: int
    srcs: tuple[Operand, ...]
    guard: Guard | None = None
    node: str = ""

    def __str__(self) -> str:
        g = f"{self.guard} " if self.guard else ""
        args = ", ".join(str(s) for s in self.srcs)
        return f"{g}{self.dest} = {self.op.value}({args}; imm={self.imm})"


@dataclass(frozen=True)
class SetupInstr:
    """The paper's proposed ``setup p = init : -LC`` instruction.

    Sets register ``register`` to ``init``; the active window boundary
    ``-LC`` is implicit (the VM knows the trip count).
    """

    register: str
    init: int

    def __str__(self) -> str:
        return f"setup {self.register} = {self.init} : -LC"


@dataclass(frozen=True)
class DecInstr:
    """Explicit decrement ``p = p - amount`` of a conditional register."""

    register: str
    amount: int = 1

    def __str__(self) -> str:
        return f"{self.register} = {self.register} - {self.amount}"


Instr = Union[ComputeInstr, SetupInstr, DecInstr]


@dataclass(frozen=True)
class Loop:
    """The loop region ``for i = start to end step step`` (inclusive end).

    ``start``/``end`` may reference ``n`` (e.g. ``end = n - 3`` for a
    pipelined loop) but not ``i``.
    """

    start: IndexExpr
    end: IndexExpr
    step: int
    body: tuple[Instr, ...]

    def __post_init__(self) -> None:
        if self.step < 1:
            raise DFGError(f"loop step must be >= 1, got {self.step}")
        for bound in (self.start, self.end):
            if bound.base is IndexBase.I:
                raise DFGError("loop bounds cannot reference the loop variable")

    def iter_indices(self, n: int) -> Iterator[int]:
        """Concrete loop-variable values for trip count ``n``."""
        return iter(range(self.start.resolve(None, n), self.end.resolve(None, n) + 1, self.step))

    def trip_count(self, n: int) -> int:
        """Number of iterations executed for trip count ``n``."""
        lo = self.start.resolve(None, n)
        hi = self.end.resolve(None, n)
        if hi < lo:
            return 0
        return (hi - lo) // self.step + 1


@dataclass(frozen=True)
class LoopProgram:
    """A complete loop program: ``pre`` + ``loop`` + ``post``.

    ``meta`` carries provenance (transformation name, retiming, unfolding
    factor) for reports and tests, and the program's trip-count contract:
    ``min_n``, and for a residue-specialized program ``factor``,
    ``residue`` and ``residue_shift`` (``(n - residue_shift) mod factor ==
    residue``).  The VM (:func:`repro.machine.run_program`) and the C
    program :func:`repro.codegen.emit_c` writes refuse a trip count outside
    that contract; ``meta`` never changes what an admitted run computes.
    It is excluded from equality.
    """

    name: str
    pre: tuple[Instr, ...]
    loop: Loop
    post: tuple[Instr, ...]
    meta: dict = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    # code-size accounting (the paper's metric)
    # ------------------------------------------------------------------
    @property
    def code_size(self) -> int:
        """Total static instruction count (computes + setups + decrements)."""
        return len(self.pre) + len(self.loop.body) + len(self.post)

    @property
    def compute_size(self) -> int:
        """Static count of computation instructions only."""
        return sum(
            1
            for instr in (*self.pre, *self.loop.body, *self.post)
            if isinstance(instr, ComputeInstr)
        )

    @property
    def overhead_size(self) -> int:
        """Static count of setup/decrement instructions (CSR overhead)."""
        return self.code_size - self.compute_size

    def registers(self) -> list[str]:
        """Conditional registers used, in first-setup order."""
        seen: dict[str, None] = {}
        for instr in (*self.pre, *self.loop.body, *self.post):
            if isinstance(instr, (SetupInstr, DecInstr)):
                seen.setdefault(instr.register, None)
        return list(seen)

    def instructions(self) -> Iterator[Instr]:
        """All instructions in program order (one body copy)."""
        yield from self.pre
        yield from self.loop.body
        yield from self.post
