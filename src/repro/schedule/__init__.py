"""Schedulers: static schedules, list scheduling, rotation scheduling.

Provides the scheduling substrate the paper's experiments assume: ASAP
static schedules of DFG iterations, resource-constrained list scheduling on
a VLIW-style functional-unit model, legality checking, and rotation
scheduling — the retiming-driven software-pipelining loop whose code-size
expansion the CSR framework removes.
"""

from .legality import check_schedule, is_legal_schedule
from .list_scheduling import critical_path_priorities, list_schedule
from .modulo import ModuloSchedule, minimum_initiation_interval, modulo_schedule
from .resources import UNLIMITED, ResourceModel, default_kind
from .rotation import (
    RotationResult,
    can_push,
    push_nodes,
    pushable_nodes,
    rotation_schedule,
)
from .static_schedule import StaticSchedule, asap_schedule
from .vliw import VliwSchedule, VliwWord, estimate_cycles, pack_body, pack_straightline

__all__ = [
    "check_schedule",
    "is_legal_schedule",
    "critical_path_priorities",
    "list_schedule",
    "ModuloSchedule",
    "minimum_initiation_interval",
    "modulo_schedule",
    "UNLIMITED",
    "ResourceModel",
    "default_kind",
    "RotationResult",
    "rotation_schedule",
    "can_push",
    "push_nodes",
    "pushable_nodes",
    "StaticSchedule",
    "asap_schedule",
    "VliwSchedule",
    "VliwWord",
    "pack_body",
    "pack_straightline",
    "estimate_cycles",
]
