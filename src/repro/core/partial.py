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
its values to ``P`` levels (quantile-based), and probe ``c`` again by FEAS
with the nodes of a level held to one value (grouped FEAS,
``repro.retiming.optimal._feas``).  The identity retiming (1 distinct
value, period ``Phi(G)``) guarantees termination.

Every probe is grouped FEAS; its reference, :func:`_solve_unfold_grouped`,
solves the ``W_c`` difference constraints plus the equalities and returns
the same witness (``docs/THEORY.md`` §4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.dfg import DFG, DFGError
from ..graph.period import cycle_period
from ..retiming.function import Retiming
from ..retiming.optimal import _feas_retiming, minimize_cycle_period, retime_for_period

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


def _level_groups(r: Retiming, p: int) -> dict[str, int]:
    """Each node's group: the nearest of at most ``p`` levels (quantiles)
    covering ``r``'s values."""
    distinct = sorted(set(r.as_dict().values()))
    if len(distinct) > p:
        distinct = sorted({distinct[k * (len(distinct) - 1) // max(p - 1, 1)] for k in range(p)})
    return {
        node: min(range(len(distinct)), key=lambda k: abs(distinct[k] - val))
        for node, val in r.items()
    }


def _grouped(g: DFG, f: int, c: int, groups: dict[str, int]) -> Retiming | None:
    """A normalized retiming with ``Phi(unfold(G_r, f)) <= c`` and all
    nodes of a group at one value, by grouped FEAS; ``None`` if none
    exists."""
    from ..unfolding.unfold import unfold

    r = _feas_retiming(g, c, f, groups)
    # ``apply`` raises on an illegal witness.
    assert r is None or cycle_period(r.apply() if f == 1 else unfold(r.apply(), f)) <= c, (
        "internal error: grouped FEAS witness too slow"
    )
    return r


def _result(r: Retiming, unconstrained_period: int) -> RegisterConstrainedResult:
    return RegisterConstrainedResult(
        r, cycle_period(r.apply()), r.registers_needed(), unconstrained_period
    )


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
        return _result(best_r, best_c)
    ceiling = max_period if max_period is not None else cycle_period(g)
    for c in range(best_c, ceiling + 1):
        r_star = retime_for_period(g, c)
        if r_star is None:
            continue
        if r_star.registers_needed() <= max_registers:
            return _result(r_star, best_c)
        # At most ``max_registers`` groups, so at most as many values.
        r = _grouped(g, 1, c, _level_groups(r_star, max_registers))
        if r is not None:
            return _result(r, best_c)
    # Identity retiming: one value, original period — always legal.
    return _result(Retiming.zero(g), best_c)


def _partitions_into(items: list[str], k: int):
    """Every set partition of ``items`` into exactly ``k`` blocks, as a
    block id per item (restricted growth strings; for small graphs)."""
    ids: list[int] = []

    def rec(opened: int):
        if opened + len(items) - len(ids) < k:
            return  # too few items left to open the missing blocks
        if len(ids) == len(items):
            yield dict(zip(items, ids))
            return
        for block in range(min(opened + 1, k)):
            ids.append(block)
            yield from rec(max(opened, block + 1))
            ids.pop()

    yield from rec(0)


def _solve_unfold_grouped(g: DFG, f: int, c: int, groups: dict[str, int]) -> Retiming | None:
    """:func:`_grouped` by the ``W_c`` difference constraints plus the
    group equalities: the reference of grouped FEAS, with the same
    witness."""
    from ..retiming.optimal import solve_retiming
    from ..unfolding.orders import min_delay_exceeding_time
    from ..unfolding.unfold import unfold

    bounds = [(v, u, w - f) for (u, v), w in min_delay_exceeding_time(g, c).items()]
    leader: dict[int, str] = {}
    for node, gid in groups.items():  # each member equal to its group's first
        first = leader.setdefault(gid, node)
        bounds += [(node, first, 0), (first, node, 0)]
    r = solve_retiming(g, bounds)
    assert r is None or cycle_period(unfold(r.apply(), f)) <= c, (
        "internal error: W_c reduction violated"
    )
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
    from ..unfolding.orders import retime_unfold_for_period

    baseline = retime_unfold_for_period(g, f, c)
    if baseline is None:
        return None
    names = g.node_names()
    # ``k`` groups give at most ``k`` values; exhaustively, every partition
    # into fewer blocks already failed at a smaller ``k``.
    for k in range(1, baseline.registers_needed()):
        if len(names) <= exhaustive_limit:
            groupings = _partitions_into(names, k)
        else:  # quantize the baseline's values to k levels
            groupings = [_level_groups(baseline, k)]
        for groups in groupings:
            r = _grouped(g, f, c, groups)
            if r is not None:
                return r
    return baseline
