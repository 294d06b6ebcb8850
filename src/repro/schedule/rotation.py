"""Rotation scheduling (Chao, LaPaugh & Sha).

Rotation scheduling is the loop-pipelining technique the paper's experiments
build on: starting from a resource-constrained list schedule, it repeatedly
*rotates* the nodes in the first control step — retiming them down by one
iteration (``r(v) += 1`` in this library's sign convention, legal when every
incoming edge from outside the rotated set carries a delay) — and
reschedules, keeping the shortest schedule seen.  Each rotation is exactly
one software-pipelining step, so the retiming accumulated by rotation
scheduling is precisely the retiming function whose code-size expansion the
CSR framework of :mod:`repro.core` removes.  :func:`can_push` and
:func:`push_nodes` are its single-step delay pushes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.dfg import DFG
from ..retiming.function import Retiming, RetimingError
from .resources import ResourceModel
from .static_schedule import StaticSchedule
from .list_scheduling import list_schedule

__all__ = [
    "RotationResult",
    "rotation_schedule",
    "can_push",
    "push_nodes",
    "pushable_nodes",
]


def can_push(retimed: DFG, nodes: set[str] | frozenset[str]) -> bool:
    """Whether simultaneously pushing one delay through every node of
    ``nodes`` is legal on the (already retimed) graph ``retimed``.

    In the paper's sign convention, pushing one delay through ``v``
    (drawing it from every incoming edge, emitting it on every outgoing
    edge) is ``r(v) += 1``.  A delay is drawn from each edge entering the
    set from outside and emitted on each edge leaving it; edges wholly
    inside the set are unaffected.  Legal iff every entering edge carries
    at least one delay.
    """
    for name in nodes:
        for e in retimed.in_edges(name):
            if e.src not in nodes and e.delay < 1:
                return False
    return True


def pushable_nodes(retimed: DFG) -> list[str]:
    """Nodes through which a single delay can be pushed individually."""
    return [n for n in retimed.node_names() if can_push(retimed, {n})]


def push_nodes(
    r: Retiming, nodes: set[str] | frozenset[str], amount: int = 1
) -> Retiming:
    """Return ``r`` with ``amount`` added to every node in ``nodes``.

    Raises :class:`RetimingError` if the result is illegal.  ``amount`` may
    be negative (pulling delays back), which rotation scheduling uses to
    undo unprofitable rotations.
    """
    values = r.as_dict()
    for n in nodes:
        if n not in values:
            raise RetimingError(f"unknown node {n!r}")
        values[n] += amount
    new_r = Retiming(r.graph, values)
    new_r.check_legal()
    return new_r


@dataclass(frozen=True)
class RotationResult:
    """Outcome of rotation scheduling.

    Attributes
    ----------
    retiming:
        Normalized retiming accumulated by the best rotation prefix.
    schedule:
        Best schedule found (of ``retiming.apply()``).
    length:
        Its schedule length (the achieved iteration period).
    rotations:
        Number of rotations that produced the best schedule.
    initial_length:
        Schedule length before any rotation (plain list scheduling).
    """

    retiming: Retiming
    schedule: StaticSchedule
    length: int
    rotations: int
    initial_length: int


def rotation_schedule(
    g: DFG,
    resources: ResourceModel | None = None,
    max_rotations: int | None = None,
) -> RotationResult:
    """Software-pipeline ``g`` under ``resources`` by rotation scheduling.

    ``max_rotations`` defaults to ``2 * |V|`` — enough for the schedule
    space to cycle on every benchmark in this repository.  The search stops
    early when a rotation would be illegal (some first-row node has a
    delay-free external input).
    """
    if max_rotations is None:
        max_rotations = 2 * g.num_nodes

    r = Retiming.zero(g)
    sched = list_schedule(g, resources)
    best = RotationResult(
        retiming=r.normalized(),
        schedule=sched,
        length=sched.length,
        rotations=0,
        initial_length=sched.length,
    )

    for k in range(1, max_rotations + 1):
        # `sched` is always a schedule of the current retimed graph.
        row = sched.first_row()
        if not row or not can_push(sched.graph, row):
            break
        r = push_nodes(r, row)
        sched = list_schedule(r.apply(), resources)
        if sched.length < best.length:
            best = RotationResult(
                retiming=r.normalized(),
                schedule=sched,
                length=sched.length,
                rotations=k,
                initial_length=best.initial_length,
            )
    return best
