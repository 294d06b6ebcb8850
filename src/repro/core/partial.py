"""Register-constrained retiming.

Theorem 4.3 needs one conditional register per *distinct retiming value*;
total prologue/epilogue removal is impossible with fewer, because each value
class requires its own predicate window.  When the target machine has only
``P < |N_r|`` conditional registers, the right lever is therefore the
retiming itself: find a legal retiming with **at most ``P`` distinct
values** and the best cycle period that allows — the "maximum performance
when the number of conditional registers are limited" exploration the
paper's conclusion calls for.

The search strategy: for each candidate period ``c`` (ascending from the
unconstrained optimum), take the optimal retiming ``r*`` for ``c``, quantize
its values to ``P`` levels (quantile-based), and re-solve the retiming
constraint system with nodes of a level forced equal (equalities are just
paired difference constraints).  The identity retiming (1 distinct value,
period ``Phi(G)``) guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.dfg import DFG, DFGError
from ..graph.period import cycle_period
from ..graph.wd import wd_kernel
from ..retiming.function import Retiming
from ..retiming.optimal import (
    minimize_cycle_period,
    period_bounds,
    retime_for_period,
    solve_retiming,
)

__all__ = [
    "RegisterConstrainedResult",
    "limit_registers",
    "minimize_registers_for_unfold",
]


@dataclass(frozen=True)
class RegisterConstrainedResult:
    """A retiming honouring a conditional-register budget.

    ``period`` is the achieved cycle period; ``unconstrained_period`` the
    optimum without the register budget, so ``period -
    unconstrained_period`` is the performance price of the budget.
    """

    retiming: Retiming
    period: int
    registers: int
    unconstrained_period: int


def _quantize_levels(values: list[int], p: int) -> list[int]:
    """At most ``p`` representative levels covering ``values`` (quantiles)."""
    distinct = sorted(set(values))
    if len(distinct) <= p:
        return distinct
    levels = []
    for k in range(p):
        levels.append(distinct[k * (len(distinct) - 1) // (p - 1)] if p > 1 else distinct[0])
    return sorted(set(levels))


def _equal_within(groups: dict[str, int]) -> list[tuple[str, str, int]]:
    """Bounds forcing equal retiming values within each group: each
    group's members chained pairwise both ways."""
    by_group: dict[int, list[str]] = {}
    for node, gid in groups.items():
        by_group.setdefault(gid, []).append(node)
    return [
        bound
        for members in by_group.values()
        for a, b in zip(members, members[1:])
        for bound in ((a, b, 0), (b, a, 0))
    ]


def _solve_with_groups(g: DFG, c: int, groups: dict[str, int]) -> Retiming | None:
    """Optimal-retiming constraint system for period ``c`` plus equality of
    all nodes sharing a group id; ``None`` if infeasible."""
    bounds = period_bounds(*wd_kernel(g), c) + _equal_within(groups)
    r = solve_retiming(g, bounds)
    if r is None or cycle_period(r.apply()) > c:
        return None
    return r


def limit_registers(g: DFG, max_registers: int, max_period: int | None = None) -> RegisterConstrainedResult:
    """Best-effort retiming of ``g`` using at most ``max_registers``
    distinct retiming values.

    Scans periods from the unconstrained optimum up to ``max_period``
    (default: the original cycle period, where the identity retiming always
    succeeds) and returns the first period at which a ``<= max_registers``
    retiming is found.
    """
    if max_registers < 1:
        raise DFGError(f"need at least one register, got {max_registers}")
    best_c, best_r = minimize_cycle_period(g)
    if best_r.registers_needed() <= max_registers:
        return RegisterConstrainedResult(
            retiming=best_r,
            period=best_c,
            registers=best_r.registers_needed(),
            unconstrained_period=best_c,
        )

    ceiling = max_period if max_period is not None else cycle_period(g)
    for c in range(best_c, ceiling + 1):
        r_star = retime_for_period(g, c)
        if r_star is None:
            continue
        if r_star.registers_needed() <= max_registers:
            return RegisterConstrainedResult(
                retiming=r_star,
                period=cycle_period(r_star.apply()),
                registers=r_star.registers_needed(),
                unconstrained_period=best_c,
            )
        levels = _quantize_levels(list(r_star.as_dict().values()), max_registers)
        groups = {
            node: min(range(len(levels)), key=lambda k: abs(levels[k] - val))
            for node, val in r_star.items()
        }
        r = _solve_with_groups(g, c, groups)
        if r is not None and r.registers_needed() <= max_registers:
            return RegisterConstrainedResult(
                retiming=r,
                period=cycle_period(r.apply()),
                registers=r.registers_needed(),
                unconstrained_period=best_c,
            )
    # Identity retiming: one value, original period — always legal.
    r0 = Retiming.zero(g)
    return RegisterConstrainedResult(
        retiming=r0,
        period=cycle_period(g),
        registers=1,
        unconstrained_period=best_c,
    )


def _partitions_into_at_most(items: list[str], k: int):
    """All set partitions of ``items`` into at most ``k`` blocks
    (restricted-growth-string enumeration; intended for small graphs)."""

    def rec(idx: int, blocks: list[list[str]]):
        if idx == len(items):
            yield [list(b) for b in blocks]
            return
        item = items[idx]
        for b in blocks:
            b.append(item)
            yield from rec(idx + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([item])
            yield from rec(idx + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _solve_unfold_grouped(
    g: DFG, f: int, c: int, bounds: list[tuple[str, str, int]], groups: dict[str, int]
) -> Retiming | None:
    """Retiming with ``Phi(unfold(G_r, f)) <= c`` and all nodes of a group
    forced to equal retiming values; ``None`` if infeasible.  ``bounds``
    are the period constraints, from ``W_c``."""
    from ..unfolding.unfold import unfold

    r = solve_retiming(g, bounds + _equal_within(groups))
    if r is None:
        return None
    if cycle_period(unfold(r.apply(), f)) > c:  # pragma: no cover - defensive
        return None
    return r


def minimize_registers_for_unfold(
    g: DFG, f: int, c: int, exhaustive_limit: int = 7
) -> Retiming | None:
    """A retiming with ``Phi(unfold(G_r, f)) <= c`` using as few distinct
    retiming values (conditional registers) as found.

    For graphs with at most ``exhaustive_limit`` nodes, all node partitions
    into ``k`` equal-value groups are tried for increasing ``k`` — the
    returned retiming then has the provably minimum register count for this
    constraint formulation.  Larger graphs fall back to quantile grouping of
    the unconstrained optimum (a heuristic upper bound).  Returns ``None``
    when the period itself is infeasible.
    """
    from ..unfolding.orders import min_delay_exceeding_time, retime_unfold_for_period

    baseline = retime_unfold_for_period(g, f, c)
    if baseline is None:
        return None
    best = baseline
    if best.registers_needed() <= 1:
        return best
    # W_c, and so the period constraints, are the same for every grouping.
    bounds = [(v, u, w - f) for (u, v), w in min_delay_exceeding_time(g, c).items()]
    names = g.node_names()
    if len(names) <= exhaustive_limit:
        for k in range(1, baseline.registers_needed()):
            found = None
            for blocks in _partitions_into_at_most(names, k):
                groups = {n: i for i, block in enumerate(blocks) for n in block}
                r = _solve_unfold_grouped(g, f, c, bounds, groups)
                if r is not None and r.registers_needed() <= k:
                    found = r
                    break
            if found is not None:
                return found
        return best
    # Heuristic path: quantize the baseline's values to k levels.
    values = list(baseline.as_dict().values())
    for k in range(1, baseline.registers_needed()):
        levels = _quantize_levels(values, k)
        groups = {
            node: min(range(len(levels)), key=lambda i: abs(levels[i] - val))
            for node, val in baseline.items()
        }
        r = _solve_unfold_grouped(g, f, c, bounds, groups)
        if r is not None and r.registers_needed() < best.registers_needed():
            return r
    return best
