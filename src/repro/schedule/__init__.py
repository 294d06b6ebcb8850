"""Schedulers: static schedules, list scheduling, rotation scheduling.

Provides the scheduling substrate the paper's experiments assume: ASAP
static schedules of DFG iterations, resource-constrained list scheduling on
a VLIW-style functional-unit model, legality checking, and rotation
scheduling — the retiming-driven software-pipelining loop whose code-size
expansion the CSR framework removes.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".legality": ("check_schedule", "is_legal_schedule"),
        ".list_scheduling": ("critical_path_priorities", "list_schedule"),
        ".modulo": ("ModuloSchedule", "minimum_initiation_interval", "modulo_schedule"),
        ".resources": ("UNLIMITED", "ResourceModel", "default_kind"),
        ".rotation": (
            "RotationResult",
            "can_push",
            "push_nodes",
            "pushable_nodes",
            "rotation_schedule",
        ),
        ".static_schedule": ("StaticSchedule", "asap_schedule"),
        ".vliw": ("VliwSchedule", "VliwWord", "estimate_cycles", "pack_body", "pack_straightline"),
    },
)

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
