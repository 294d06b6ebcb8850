"""Retiming functions and their application to data-flow graphs.

A retiming is a function ``r : V -> Z``.  This library follows the *paper's*
sign convention (Section 2.2): ``r(u)`` is the number of delays pushed
*through* node ``u`` from its incoming edges to its outgoing edges, so the
retimed delay of an edge ``e(u -> v)`` is::

    d_r(e) = d(e) + r(u) - r(v)

(The original Leiserson–Saxe circuit-retiming papers use the opposite sign;
the two conventions are related by ``r -> -r``.)

Under this convention, software pipelining moves each node ``v`` *up* by
``r(v)`` iterations: in the pipelined loop, iteration ``i`` executes
instance ``i + r(v)`` of node ``v``.  A *normalized* retiming
(``min_v r(v) = 0``) therefore yields

* ``r(v)`` copies of ``v`` in the prologue, and
* ``max_u r(u) - r(v)`` copies of ``v`` in the epilogue,

which is the entire basis of the paper's code-size accounting.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..graph.dfg import DFG, DFGError

__all__ = ["Retiming", "RetimingError"]


class RetimingError(DFGError):
    """Raised for illegal retimings (negative retimed delays)."""


class Retiming:
    """An immutable retiming function bound to a specific graph.

    The function carries a value for *every* node of the graph (defaulting
    to 0 for nodes absent from the initializing mapping), so quantities such
    as the set of distinct retiming values ``N_r`` are well defined.
    """

    def __init__(self, graph: DFG, values: Mapping[str, int] | None = None) -> None:
        values = dict(values or {})
        unknown = set(values) - set(graph.node_names())
        if unknown:
            raise RetimingError(f"retiming mentions unknown nodes {sorted(unknown)}")
        for node, val in values.items():
            if not isinstance(val, int):
                raise RetimingError(f"retiming value of {node!r} must be int, got {val!r}")
        self._graph = graph
        self._values: dict[str, int] = {n: values.get(n, 0) for n in graph.node_names()}
        self._applied: dict[str, DFG] = {}  # name -> G_r, see apply()

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DFG:
        """The graph this retiming applies to."""
        return self._graph

    def __getitem__(self, node: str) -> int:
        try:
            return self._values[node]
        except KeyError:
            raise RetimingError(f"unknown node {node!r}") from None

    def value(self, node: str) -> int:
        """Retiming value ``r(node)``."""
        return self[node]

    def as_dict(self) -> dict[str, int]:
        """A copy of the full node -> value mapping."""
        return dict(self._values)

    def items(self) -> Iterable[tuple[str, int]]:
        """``(node, value)`` pairs in node insertion order."""
        return self._values.items()

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def max_value(self) -> int:
        """``M_r = max_u r(u)``; 0 for the empty graph's retiming."""
        return max(self._values.values(), default=0)

    @property
    def min_value(self) -> int:
        """``min_u r(u)``; 0 for a normalized (or empty) retiming."""
        return min(self._values.values(), default=0)

    @property
    def is_normalized(self) -> bool:
        """Whether ``min_u r(u) == 0``."""
        return self.min_value == 0

    def distinct_values(self) -> set[int]:
        """The set ``N_r`` of distinct retiming values (Theorem 4.3).

        Its cardinality is the number of conditional registers needed to
        completely remove the prologue and epilogue.
        """
        return set(self._values.values())

    def registers_needed(self) -> int:
        """``|N_r|``: conditional registers for total code-size reduction."""
        return len(self.distinct_values())

    def prologue_copies(self, node: str) -> int:
        """Copies of ``node`` in the prologue (requires normalization)."""
        self._require_normalized("prologue_copies")
        return self[node]

    def epilogue_copies(self, node: str) -> int:
        """Copies of ``node`` in the epilogue (requires normalization)."""
        self._require_normalized("epilogue_copies")
        return self.max_value - self[node]

    def prologue_size(self) -> int:
        """Total instruction count of the prologue, ``sum_v r(v)``."""
        self._require_normalized("prologue_size")
        return sum(self._values.values())

    def epilogue_size(self) -> int:
        """Total instruction count of the epilogue, ``sum_v (M_r - r(v))``."""
        self._require_normalized("epilogue_size")
        m = self.max_value
        return sum(m - v for v in self._values.values())

    def _require_normalized(self, what: str) -> None:
        if not self.is_normalized:
            raise RetimingError(
                f"{what} is only meaningful for a normalized retiming; "
                f"call .normalized() first (min value here is {self.min_value})"
            )

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def normalized(self) -> "Retiming":
        """The equivalent retiming with minimum value 0.

        Subtracting a constant from every node leaves all retimed edge
        delays unchanged, so normalization is always legal.
        """
        m = self.min_value
        if m == 0:
            return self
        return Retiming(self._graph, {n: v - m for n, v in self._values.items()})

    def shifted(self, amount: int) -> "Retiming":
        """Retiming with ``amount`` added to every node (same retimed graph)."""
        return Retiming(self._graph, {n: v + amount for n, v in self._values.items()})

    def compose(self, other: "Retiming") -> "Retiming":
        """Pointwise sum with another retiming of the same graph.

        Applying ``self`` then ``other`` (on the retimed graph, node names
        unchanged) equals applying their composition once.
        """
        if other.graph.node_names() != self._graph.node_names():
            raise RetimingError("cannot compose retimings of different node sets")
        return Retiming(
            self._graph, {n: self._values[n] + other._values[n] for n in self._values}
        )

    def retimed_delay(self, src: str, dst: str, delay: int) -> int:
        """Delay of an edge ``src -> dst`` (original delay ``delay``) after
        applying this retiming: ``d + r(src) - r(dst)``."""
        return delay + self[src] - self[dst]

    def is_legal(self) -> bool:
        """Whether every retimed edge delay is non-negative."""
        return all(
            self.retimed_delay(e.src, e.dst, e.delay) >= 0 for e in self._graph.edges()
        )

    def check_legal(self) -> None:
        """Raise :class:`RetimingError` describing the first illegal edge."""
        for e in self._graph.edges():
            d = self.retimed_delay(e.src, e.dst, e.delay)
            if d < 0:
                raise RetimingError(
                    f"illegal retiming: edge {e.src!r}->{e.dst!r} (d={e.delay}) "
                    f"gets retimed delay {d} < 0 with r({e.src})={self[e.src]}, "
                    f"r({e.dst})={self[e.dst]}"
                )

    def apply(self, name: str | None = None) -> DFG:
        """The retimed graph ``G_r`` (raises if the retiming is illegal).

        Built once per retiming and name: a retiming is immutable, so its
        legality and ``G_r`` cannot change, and every later call returns
        the same graph object.  That graph is shared and read-only —
        callers must never add nodes or edges to it.
        """
        if name is None:
            name = f"{self._graph.name}_r"
        retimed = self._applied.get(name)
        if retimed is None:
            self.check_legal()
            new_delays = {
                e.ident: self.retimed_delay(e.src, e.dst, e.delay)
                for e in self._graph.edges()
            }
            retimed = self._applied[name] = self._graph.with_delays(new_delays, name=name)
        return retimed

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Retiming):
            return NotImplemented
        return self._graph is other._graph and self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Retiming({self._values!r})"

    @classmethod
    def zero(cls, graph: DFG) -> "Retiming":
        """The identity retiming (all zeros)."""
        return cls(graph, {})
