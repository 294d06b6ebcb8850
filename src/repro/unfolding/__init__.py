"""Unfolding engine: the ``G -> G_f`` transformation and order pipelines.

Implements Section 2.2's unfolding (Chao–Sha delay-distribution rule) plus
the two composition orders compared in Section 4 — retime-then-unfold and
unfold-then-retime — including an exact optimizer for the retime-first
order.
"""

from .. import _lazy_exports

# `unfold` shares its submodule's name, so it is bound now: importing the
# submodule later would otherwise set the package attribute to the module.
from .unfold import copy_name, parse_copy_name, unfold, unfolded_edge_delay

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".orders": (
            "OrderedResult",
            "min_delay_exceeding_time",
            "retime_unfold",
            "retime_unfold_for_period",
            "unfold_retime",
        ),
    },
)

__all__ = [
    "OrderedResult",
    "min_delay_exceeding_time",
    "retime_unfold",
    "retime_unfold_for_period",
    "unfold_retime",
    "copy_name",
    "parse_copy_name",
    "unfold",
    "unfolded_edge_delay",
]
