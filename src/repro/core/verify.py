"""Semantic verification of transformed loop programs.

The decisive correctness check of this library: run a transformed program
and the original loop on the virtual machine with the same trip count and
live-in state, and require the *complete* written array state to be
identical.  Combined with the VM's single-assignment and write-range
invariants, passing this check means the transformation executed every
instance ``v[1..n]`` exactly once with exactly the original operands — the
executable content of Theorems 4.1/4.2/4.6/4.7.
"""

from __future__ import annotations

from typing import Callable

from ..graph.dfg import DFG, DFGError
from ..codegen.ir import LoopProgram
from ..codegen.original import original_loop
from ..machine.registers import MachineError
from ..machine.vm import VMResult, default_initial, run_program

__all__ = ["EquivalenceError", "assert_equivalent", "equivalent", "reference_result"]


class EquivalenceError(DFGError):
    """Raised when a transformed program diverges from the original loop."""


def reference_result(
    g: DFG, n: int, initial: Callable[[str, int], int] = default_initial
) -> VMResult:
    """Array state of the *original* loop of ``g`` for trip count ``n``."""
    return run_program(original_loop(g), n, initial=initial)


def assert_equivalent(
    g: DFG,
    program: LoopProgram,
    n: int,
    initial: Callable[[str, int], int] = default_initial,
    reference: Callable[[int], VMResult] | None = None,
) -> VMResult:
    """Run ``program`` and compare against the original loop of ``g``.

    Returns the transformed program's :class:`VMResult` on success; raises
    :class:`EquivalenceError` naming the first differing array instance
    otherwise.  ``reference``, when given, maps a trip count to the
    original loop's result under ``initial`` (what
    :func:`reference_result` computes): a caller that checks many
    programs of one graph passes a memoized one.
    """
    if reference is not None:
        want = reference(n)
    else:
        want = reference_result(g, n, initial=initial)
    got = run_program(program, n, initial=initial)
    if got.arrays == want.arrays:
        return got

    # Build a precise diagnosis.
    for array in sorted(set(want.arrays) | set(got.arrays)):
        w = want.arrays.get(array, {})
        h = got.arrays.get(array, {})
        missing = sorted(set(w) - set(h))
        extra = sorted(set(h) - set(w))
        if missing:
            raise EquivalenceError(
                f"{program.name} (n={n}): {array}[{missing[0]}] never computed"
            )
        if extra:
            raise EquivalenceError(
                f"{program.name} (n={n}): spurious write {array}[{extra[0]}]"
            )
        for idx in sorted(w):
            if w[idx] != h[idx]:
                raise EquivalenceError(
                    f"{program.name} (n={n}): {array}[{idx}] = {h[idx]}, "
                    f"expected {w[idx]}"
                )
    raise EquivalenceError(f"{program.name} (n={n}): array states differ")  # pragma: no cover


def equivalent(
    g: DFG,
    program: LoopProgram,
    n: int,
    initial: Callable[[str, int], int] = default_initial,
) -> bool:
    """Boolean form of :func:`assert_equivalent`.

    Only *semantic* divergence counts as "not equivalent": a differing
    array state (:class:`EquivalenceError`) or a VM-enforced invariant
    violation / trip-count precondition (:class:`MachineError`).  Any
    other :class:`DFGError` — a malformed graph, an illegal retiming, a
    codegen failure — propagates, so structural bugs are never silently
    reported as mere non-equivalence.
    """
    try:
        assert_equivalent(g, program, n, initial=initial)
    except (EquivalenceError, MachineError):
        return False
    return True
