"""Cyclic data-flow graphs (DFGs) for iterative DSP loop programs.

A data-flow graph ``G = <V, E, d, t>`` is the central object of the whole
library, following Section 2.1 of the paper: ``V`` is a set of computation
nodes, ``E`` a multiset of directed edges, ``d(e) >= 0`` the number of
*delays* (inter-iteration distance) on edge ``e`` and ``t(v) >= 1`` the
computation time of node ``v``.

An edge ``u -> v`` with delay ``d`` means: the instance of ``v`` computed in
iteration ``i`` consumes the value produced by the instance of ``u`` computed
in iteration ``i - d``.  Edges with ``d = 0`` are *intra-iteration*
dependencies; the subgraph they induce must be acyclic for the loop to be
computable.

Nodes additionally carry an executable *operation* (:class:`OpKind` plus an
integer immediate) so that loop programs generated from a DFG can actually be
*run* on the virtual machine in :mod:`repro.machine` — this is how the
library proves that every code-size-reducing transformation preserves
semantics.

Parallel edges with different delays between the same pair of nodes are
allowed (they arise naturally from unfolding), which is why edges carry an
explicit ``key``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

__all__ = ["OpKind", "Node", "Edge", "DFG", "DFGError"]


class DFGError(ValueError):
    """Raised for structurally invalid data-flow graphs or operations."""


class OpKind(enum.Enum):
    """Executable operation kinds for DFG nodes.

    The arithmetic is deliberately simple — enough to give every benchmark
    loop concrete integer semantics so that transformed programs can be
    checked for value-identical results, which is all the paper's
    correctness theorems require.

    All operations are evaluated in the ring ``Z mod (2**61 - 1)`` (see
    :data:`MODULUS`).  Filters with multiplicative recurrences otherwise
    grow values double-exponentially in the trip count (e.g. ``D = A * C``
    in the paper's Figure-2 loop squares magnitudes every few iterations),
    which would make long executions infeasible.  Reduction is applied
    uniformly, so two programs compute identical ring values iff they
    combine identical operands — a mismatch escaping detection would
    require a difference divisible by the Mersenne prime ``2**61 - 1``.

    Input convention (``values`` is the list of predecessor values in a
    fixed deterministic order, ``imm`` the node's immediate):

    ``ADD``
        ``sum(values) + imm``
    ``SUB``
        ``values[0] - sum(values[1:]) + imm`` (``imm`` when no inputs)
    ``MUL``
        ``product(values) * imm``
    ``MAC``
        ``values[0] * values[1] + sum(values[2:]) + imm`` (multiply
        accumulate; requires at least two inputs)
    ``COPY``
        ``values[0] + imm`` (requires exactly one input)
    ``SOURCE``
        ``imm + 13 * j`` where ``j`` is the iteration instance — models an
        external input stream whose samples differ per iteration.
    """

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAC = "mac"
    COPY = "copy"
    SOURCE = "source"


#: Modulus of the evaluation ring (a Mersenne prime): keeps VM values
#: machine-word-sized for any trip count while preserving the discriminating
#: power of exact integer comparison for all practical purposes.
MODULUS: int = 2**61 - 1


def evaluate_op(op: OpKind, imm: int, values: list[int], instance: int) -> int:
    """Evaluate operation ``op`` with immediate ``imm`` on input ``values``,
    reduced into ``[0, MODULUS)``.

    ``instance`` is the (1-based) iteration instance being computed; it only
    matters for :data:`OpKind.SOURCE` nodes, which model a per-iteration
    input stream.
    """
    if op is OpKind.ADD:
        return (sum(values) + imm) % MODULUS
    if op is OpKind.SUB:
        if not values:
            return imm % MODULUS
        return (values[0] - sum(values[1:]) + imm) % MODULUS
    if op is OpKind.MUL:
        result = imm % MODULUS
        for v in values:
            result = (result * v) % MODULUS
        return result
    if op is OpKind.MAC:
        if len(values) < 2:
            raise DFGError(f"MAC needs at least two inputs, got {len(values)}")
        return (values[0] * values[1] + sum(values[2:]) + imm) % MODULUS
    if op is OpKind.COPY:
        if len(values) != 1:
            raise DFGError(f"COPY needs exactly one input, got {len(values)}")
        return (values[0] + imm) % MODULUS
    if op is OpKind.SOURCE:
        if values:
            raise DFGError("SOURCE nodes take no inputs")
        return (imm + 13 * instance) % MODULUS
    raise DFGError(f"unknown op kind: {op!r}")


@dataclass(frozen=True)
class Node:
    """A computation node of a DFG.

    Attributes
    ----------
    name:
        Unique node identifier within its graph.
    time:
        Computation time ``t(v)`` in time units (positive integer).  The
        paper's experiments assume unit time; the library supports arbitrary
        positive times (needed for the Figure-8 example).
    op:
        Executable operation kind; see :class:`OpKind`.
    imm:
        Integer immediate operand of the operation.
    """

    name: str
    time: int = 1
    op: OpKind = OpKind.ADD
    imm: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.time, int) or self.time < 1:
            raise DFGError(f"node {self.name!r}: time must be a positive int, got {self.time!r}")
        if not isinstance(self.imm, int):
            raise DFGError(f"node {self.name!r}: imm must be an int, got {self.imm!r}")


@dataclass(frozen=True)
class Edge:
    """A directed dependency edge ``src -> dst`` carrying ``delay`` delays.

    ``key`` disambiguates parallel edges between the same node pair; within
    one :class:`DFG` the triple ``(src, dst, key)`` is unique.
    """

    src: str
    dst: str
    delay: int
    key: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.delay, int) or self.delay < 0:
            raise DFGError(
                f"edge {self.src!r}->{self.dst!r}: delay must be a non-negative int, "
                f"got {self.delay!r}"
            )

    @property
    def ident(self) -> tuple[str, str, int]:
        """The unique ``(src, dst, key)`` identity of this edge."""
        return (self.src, self.dst, self.key)


class DFG:
    """A node- and edge-weighted directed multigraph modelling a loop body.

    The graph is mutable while being built (:meth:`add_node`,
    :meth:`add_edge`) and is usually treated as immutable afterwards;
    transformations such as retiming and unfolding return new graphs.

    Examples
    --------
    The two-node example of Figure 1 of the paper::

        >>> g = DFG("fig1")
        >>> _ = g.add_node("A")
        >>> _ = g.add_node("B")
        >>> _ = g.add_edge("A", "B", delay=0)
        >>> _ = g.add_edge("B", "A", delay=2)
        >>> g.num_nodes, g.num_edges, g.total_delay
        (2, 2, 2)
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: dict[tuple[str, str, int], Edge] = {}
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        time: int = 1,
        op: OpKind = OpKind.ADD,
        imm: int = 0,
    ) -> Node:
        """Add a computation node and return it.

        Raises :class:`DFGError` if a node of that name already exists.
        """
        if name in self._nodes:
            raise DFGError(f"duplicate node {name!r}")
        node = Node(name=name, time=time, op=op, imm=imm)
        self._nodes[name] = node
        self._out[name] = []
        self._in[name] = []
        return node

    def add_edge(self, src: str, dst: str, delay: int, key: int | None = None) -> Edge:
        """Add a dependency edge ``src -> dst`` with ``delay`` delays.

        If ``key`` is omitted the smallest unused key for the ``(src, dst)``
        pair is chosen, so parallel edges can be added without bookkeeping.
        """
        if src not in self._nodes:
            raise DFGError(f"edge references unknown source node {src!r}")
        if dst not in self._nodes:
            raise DFGError(f"edge references unknown destination node {dst!r}")
        if key is None:
            key = 0
            while (src, dst, key) in self._edges:
                key += 1
        elif (src, dst, key) in self._edges:
            raise DFGError(f"duplicate edge ({src!r}, {dst!r}, key={key})")
        edge = Edge(src=src, dst=dst, delay=delay, key=key)
        self._edges[edge.ident] = edge
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of computation nodes ``|V|`` (the original code size)."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of dependency edges ``|E|``."""
        return len(self._edges)

    @property
    def total_delay(self) -> int:
        """Sum of all edge delays in the graph."""
        return sum(e.delay for e in self._edges.values())

    @property
    def total_time(self) -> int:
        """Sum of all node computation times."""
        return sum(v.time for v in self._nodes.values())

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._nodes.values())

    def node_names(self) -> list[str]:
        """Node names in insertion order."""
        return list(self._nodes)

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise DFGError(f"unknown node {name!r}") from None

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in insertion order."""
        return iter(self._edges.values())

    def out_edges(self, name: str) -> list[Edge]:
        """All edges leaving node ``name``."""
        self.node(name)
        return list(self._out[name])

    def in_edges(self, name: str) -> list[Edge]:
        """All edges entering node ``name``, in insertion order.

        The order of this list defines the *operand order* of the node's
        operation, so it is deterministic and preserved by transformations.
        """
        self.node(name)
        return list(self._in[name])

    def predecessors(self, name: str) -> list[str]:
        """Distinct predecessor node names of ``name`` (stable order)."""
        seen: dict[str, None] = {}
        for e in self.in_edges(name):
            seen.setdefault(e.src, None)
        return list(seen)

    def successors(self, name: str) -> list[str]:
        """Distinct successor node names of ``name`` (stable order)."""
        seen: dict[str, None] = {}
        for e in self.out_edges(name):
            seen.setdefault(e.dst, None)
        return list(seen)

    def zero_delay_edges(self) -> list[Edge]:
        """All intra-iteration (zero-delay) dependency edges."""
        return [e for e in self._edges.values() if e.delay == 0]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "DFG":
        """Deep copy of this graph (nodes and edges are immutable values)."""
        g = DFG(name if name is not None else self.name)
        g._nodes = dict(self._nodes)
        g._edges = dict(self._edges)
        g._out = {k: list(v) for k, v in self._out.items()}
        g._in = {k: list(v) for k, v in self._in.items()}
        return g

    def with_delays(self, delays: Mapping[tuple[str, str, int], int], name: str | None = None) -> "DFG":
        """Return a copy whose edge delays are replaced per ``delays``.

        ``delays`` maps edge identities ``(src, dst, key)`` to new delay
        values; edges not mentioned keep their delay.  This is the primitive
        used by retiming application.
        """
        g = DFG(name if name is not None else self.name)
        for node in self.nodes():
            g._nodes[node.name] = node
            g._out[node.name] = []
            g._in[node.name] = []
        for edge in self.edges():
            new_delay = delays.get(edge.ident, edge.delay)
            new_edge = replace(edge, delay=new_delay)
            g._edges[new_edge.ident] = new_edge
            g._out[new_edge.src].append(new_edge)
            g._in[new_edge.dst].append(new_edge)
        return g

    def to_networkx(self):
        """Export as a :class:`networkx.MultiDiGraph`.

        Node attributes: ``time``, ``op``, ``imm``.  Edge attribute:
        ``delay``.  Useful for visualization and for cross-checking our
        algorithms against networkx ones in the test-suite.
        """
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for node in self.nodes():
            g.add_node(node.name, time=node.time, op=node.op, imm=node.imm)
        for edge in self.edges():
            g.add_edge(edge.src, edge.dst, key=edge.key, delay=edge.delay)
        return g

    @classmethod
    def from_networkx(cls, g, name: str | None = None) -> "DFG":
        """Build a :class:`DFG` from a networkx (multi)digraph.

        Missing node attributes default to ``time=1, op=ADD, imm=0``;
        missing edge ``delay`` defaults to 0.
        """
        dfg = cls(name if name is not None else (g.name or "dfg"))
        for n, data in g.nodes(data=True):
            dfg.add_node(
                str(n),
                time=int(data.get("time", 1)),
                op=data.get("op", OpKind.ADD),
                imm=int(data.get("imm", 0)),
            )
        if g.is_multigraph():
            for u, v, k, data in g.edges(keys=True, data=True):
                dfg.add_edge(str(u), str(v), delay=int(data.get("delay", 0)))
        else:
            for u, v, data in g.edges(data=True):
                dfg.add_edge(str(u), str(v), delay=int(data.get("delay", 0)))
        return dfg

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DFG):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DFG({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"delays={self.total_delay})"
        )
