"""Incremental retiming operations: delay pushes and warm-started feasibility.

Two kinds of incrementality live here:

* **Node-at-a-time pushes** — rotation scheduling
  (:mod:`repro.schedule.rotation`) and critical-path retiming heuristics do
  not solve a global constraint system; they repeatedly *push* single delays
  through individual nodes.  In the paper's sign convention, pushing one
  delay through node ``v`` (drawing it from every incoming edge, emitting it
  on every outgoing edge) is ``r(v) += 1`` and is legal exactly when every
  incoming edge of the *current* retimed graph carries at least one delay.

* **Warm-started period feasibility** — the binary search of
  :func:`repro.retiming.optimal.minimize_cycle_period` probes a descending
  sequence of candidate periods ``c``, and the Leiserson–Saxe constraint
  systems for those probes are *nested*: a smaller ``c`` keeps every
  constraint of a larger one and adds constraints for the node pairs with
  ``c < D(u, v)``.  :class:`IncrementalFeasibility` exploits that nesting —
  instead of rebuilding and re-solving the system per probe, it keeps the
  shortest-path fixpoint of the last feasible probe and, for the next
  (smaller) ``c``, activates only the newly triggered pair constraints and
  resumes pass-based Bellman–Ford relaxation from that fixpoint.  The
  fixpoint of a difference-constraint system is its unique shortest-path
  solution, so the warm-started answer is *identical* to a fresh
  Bellman–Ford solve — which the property tests pin exactly.

Above :data:`_NUMPY_THRESHOLD` nodes the relaxation runs dense: the active
constraint graph (base legality edges plus the O(V²) triggered pairs) is a
single int64 matrix over the graph's shared
:class:`~repro.graph.kernel.EdgeKernel` node indexing, and one
Bellman–Ford pass is one broadcasted min-plus matrix-vector product.  Each
dense pass computes exactly what the per-edge scatter pass computed from
the same snapshot, so pass counts, feasibility verdicts and fixpoints are
all bit-identical; an infeasible probe can additionally exit early when a
negative cycle is *explicitly verified* on the predecessor graph (the
verdict an exhausted pass budget would have certified anyway).
"""

from __future__ import annotations

from bisect import bisect_left

from ..graph.dfg import DFG
from ..graph.wd import WDKernel
from ..observability import count
from .function import Retiming, RetimingError

__all__ = ["IncrementalFeasibility", "can_push", "push_nodes", "pushable_nodes"]


#: Node count above which the vectorized numpy relaxation is used for the
#: warm-started feasibility solver (the pair-constraint set is dense —
#: O(V²) edges — so vectorized passes win early).  Read at call time, so
#: tests can monkeypatch it to force either branch.
_NUMPY_THRESHOLD = 64


class IncrementalFeasibility:
    """Warm-started feasibility oracle for the period binary search.

    Built once per graph from its shared
    :class:`~repro.graph.wd.WDKernel`, whose dense layout the vectorized
    backend consumes directly, skipping dict construction entirely.  Each
    call to :meth:`try_period` answers "is there a legal
    retiming with cycle period ``<= c``?" and, when feasible, returns the
    shortest-path solution of the full constraint system — *identical* to
    :meth:`repro.retiming.constraints.DifferenceConstraints.solve` on the
    same system, because the fixpoint of a difference-constraint relaxation
    is unique.

    The solver is optimized for the descending-``c`` probe pattern of a
    binary search: a probe below the best feasible period so far starts
    relaxation from that probe's committed fixpoint (which already satisfies
    every previously active constraint) so typically only one or two passes
    are needed; probes above the best feasible period are still answered
    correctly via a cold start from the base system.  Relaxation is
    pass-based Bellman–Ford — dense min-plus matrix passes with numpy above
    :data:`_NUMPY_THRESHOLD` nodes — with the classic
    still-improving-after-``|V|-1``-passes negative-cycle certificate.

    Attributes
    ----------
    stats:
        ``{"probes", "relaxations", "constraints_added"}`` — deterministic
        operation counters (also mirrored into observability counters
        ``retiming.incremental.*``) used by the perf-smoke benchmark.
    """

    def __init__(self, wd: WDKernel) -> None:
        kernel = wd.kernel
        self._kernel = kernel
        n = kernel.num_nodes
        self._names = kernel.names
        self._n = n
        self._max_time = max(kernel.times, default=0)
        self._wd = wd

        # Base legality constraints r(dst) - r(src) <= d(e): relaxation edge
        # src -> dst of weight d.  All weights are >= 0, so the base
        # system's shortest-path fixpoint from the virtual source is the
        # all-zero vector — the base solve is free.
        self._base = list(zip(kernel.src, kernel.dst, kernel.delay))

        self._use_numpy = n > _NUMPY_THRESHOLD and self._init_numpy()
        if not self._use_numpy:
            self._init_python()

        # Committed feasible state: the exact fixpoint of the system with
        # the pair constraints of the best feasible period so far active.
        self._best_k = 0
        self._best_dist: list[int] = [0] * n

        self.stats = {"probes": 0, "relaxations": 0, "constraints_added": 0}

    # ------------------------------------------------------------------
    # construction of the two relaxation layouts
    # ------------------------------------------------------------------
    def _init_python(self) -> None:
        """Sorted flat pair-constraint list for the per-edge backend.

        Pair constraints ``r(v) - r(u) <= W(u, v) - 1`` activate when the
        probe period drops below ``D(u, v)``; sorting by ``D`` descending
        (ties broken by node index for full determinism) makes the active
        set at period ``c`` a prefix of the list.
        """
        W, D = self._wd
        index = self._kernel.index
        pairs = sorted(
            (
                (d_val, index[u], index[v], W[(u, v)] - 1)
                for (u, v), d_val in D.items()
            ),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        self._pair_edges = [(u, v, w) for (_d, u, v, w) in pairs]
        # Ascending keys for bisect: pairs[:k] have D > c where
        # k = bisect_left(neg_d, -c).
        self._neg_d = [-p[0] for p in pairs]

    def _init_numpy(self) -> bool:
        """Dense int64 layout over the shared kernel; ``False`` when int64
        distance arithmetic could overflow (distance magnitudes are bounded
        by ``(|V| + 1) * max|w|``)."""
        import numpy as np

        Wm, Dm, reach = self._wd.matrices()
        max_w = 0
        if reach.any():
            max_w = int(np.abs(Wm[reach] - 1).max())
        if self._base:
            max_w = max(max_w, max(w for (_u, _v, w) in self._base))
        if (self._n + 2) * (max_w + 1) >= 2**60:
            return False

        INF = np.int64(2**61)
        self._np = np
        self._INF = INF
        base = np.full((self._n, self._n), INF, dtype=np.int64)
        if self._base:
            src, dst, delay, _st, _t = self._kernel.np_arrays()
            np.minimum.at(
                base, (src.astype(np.intp), dst.astype(np.intp)), delay
            )
        self._B = base
        self._P = np.where(reach, Wm - 1, INF)
        self._Dm = np.where(reach, Dm, np.int64(-1))  # never triggered
        # Descending-sorted D values of connected pairs: the active count at
        # period c (pairs with D > c) via one searchsorted, mirroring the
        # bisect of the python layout.
        self._sorted_neg_d = np.sort(-Dm[reach])
        return True

    def _active_count(self, c: int) -> int:
        """Number of pair constraints active at period ``c`` (those with
        ``D > c``)."""
        if self._use_numpy:
            return int(self._np.searchsorted(self._sorted_neg_d, -c, side="left"))
        return bisect_left(self._neg_d, -c)

    def try_period(self, c: int) -> dict[str, int] | None:
        """Shortest-path solution of the period-``c`` system, or ``None``.

        Feasible results commit their fixpoint as the warm-start state for
        subsequent (smaller-``c``) probes.
        """
        self.stats["probes"] += 1
        count("retiming.incremental.probes")
        if self._max_time > c:
            return None

        k = self._active_count(c)
        warm = k >= self._best_k
        fresh = k - self._best_k if warm else k
        self.stats["constraints_added"] += fresh
        count("retiming.incremental.constraints_added", fresh)

        if self._use_numpy:
            dist = self._relax_dense(c, k, warm)
        else:
            dist = self._relax_python(k, warm)
        if dist is None:
            return None

        if warm:
            # Commit: the fixpoint of a superset system warm-starts every
            # later, tighter probe.
            self._best_k = k
            self._best_dist = [int(x) for x in dist]
        return {self._names[i]: int(dist[i]) for i in range(self._n)}

    # ------------------------------------------------------------------
    # relaxation backends (identical fixpoints)
    # ------------------------------------------------------------------
    def _relax_python(self, k: int, warm: bool) -> list[int] | None:
        """Pass-based Bellman–Ford over the active edges, warm-started.

        ``dist`` starts at the committed fixpoint (warm) or all zeros
        (cold); either satisfies the base system, so at most ``|V| - 1``
        passes settle every simple-path improvement and a still-improving
        verification pass certifies a negative cycle (infeasible).
        """
        dist = self._best_dist.copy() if warm else [0] * self._n
        base = self._base
        active = self._pair_edges[:k]
        relaxations = 0
        sweeps = 0
        feasible = True
        for _ in range(max(1, self._n - 1)):
            changed = False
            for u, v, w in base:
                cand = dist[u] + w
                if cand < dist[v]:
                    dist[v] = cand
                    changed = True
            for u, v, w in active:
                cand = dist[u] + w
                if cand < dist[v]:
                    dist[v] = cand
                    changed = True
            relaxations += len(base) + len(active)
            sweeps += 1
            if not changed:
                break
        else:
            for u, v, w in base + active:
                if dist[u] + w < dist[v]:
                    feasible = False
                    break
            relaxations += len(base) + len(active)
            sweeps += 1
        self.stats["relaxations"] += relaxations
        count("retiming.incremental.relaxations", relaxations)
        count("kernel.relax_sweeps", sweeps)
        return dist if feasible else None

    def _relax_dense(self, c: int, k: int, warm: bool):
        """Vectorized synchronous Bellman–Ford: min-plus matrix passes.

        One pass reads the ``before`` snapshot and combines base and active
        pair edges in a single broadcasted min — exactly the update the
        per-edge scatter pass computes, so pass counts and fixpoints are
        identical.  A pass that still improves distances after ``|V|``
        full passes certifies a negative cycle; exponentially spaced
        predecessor-graph checks can certify one early (the cycle weight is
        verified in exact integer arithmetic before declaring infeasible).
        """
        np = self._np
        dist = (
            np.array(self._best_dist, dtype=np.int64)
            if warm
            else np.zeros(self._n, dtype=np.int64)
        )
        # Active constraint matrix at period c: pair edges with D > c,
        # tightened against the base legality edges (duplicate (u, v)
        # bounds bind at their minimum, as in DifferenceConstraints.add).
        C = np.minimum(self._B, np.where(self._Dm > c, self._P, self._INF))
        per_pass = len(self._base) + k
        relaxations = 0
        sweeps = 0
        check_at = 32
        feasible = None
        for _ in range(max(1, self._n)):
            before = dist
            dist = np.minimum(before, (before[:, None] + C).min(axis=0))
            relaxations += per_pass
            sweeps += 1
            if np.array_equal(dist, before):
                feasible = True
                break
            if sweeps >= check_at:
                check_at *= 2
                if self._verified_negative_cycle(before, C):
                    feasible = False
                    break
        if feasible is None:
            # Still improving after |V| passes: negative cycle.
            feasible = False
        self.stats["relaxations"] += relaxations
        count("retiming.incremental.relaxations", relaxations)
        count("kernel.relax_sweeps", sweeps)
        return dist if feasible else None

    def _verified_negative_cycle(self, before, C) -> bool:
        """Whether the predecessor graph of the next pass provably contains
        a negative cycle.

        Each still-improving node's argmin predecessor is a real active
        edge; walking predecessor chains either closes a cycle — whose
        weight is re-summed in exact python integers and must be negative
        to certify infeasibility — or dead-ends.  ``False`` is always safe
        (the pass budget remains the backstop certificate).
        """
        np = self._np
        comb = before[:, None] + C
        colmin = comb.min(axis=0)
        pred = comb.argmin(axis=0)
        half = int(self._INF) // 2
        state = [0] * self._n  # 0 unvisited / 1 on current walk / 2 done
        for start in np.nonzero(colmin < before)[0].tolist():
            if state[start]:
                continue
            walk: list[int] = []
            v = start
            while state[v] == 0:
                state[v] = 1
                walk.append(v)
                u = int(pred[v])
                if int(C[u, v]) >= half:
                    break  # no real incoming edge: dead end
                v = u
            else:
                if state[v] == 1:  # closed a cycle within this walk
                    cycle = walk[walk.index(v) :]
                    weight = sum(
                        int(C[cycle[(i + 1) % len(cycle)], cycle[i]])
                        for i in range(len(cycle))
                    )
                    if weight < 0:
                        return True
            for node in walk:
                state[node] = 2
        return False


def can_push(retimed: DFG, nodes: set[str] | frozenset[str]) -> bool:
    """Whether simultaneously pushing one delay through every node of
    ``nodes`` is legal on the (already retimed) graph ``retimed``.

    A delay is drawn from each edge entering the set from outside and
    emitted on each edge leaving it; edges wholly inside the set are
    unaffected.  Legal iff every entering edge carries at least one delay.
    """
    for name in nodes:
        for e in retimed.in_edges(name):
            if e.src not in nodes and e.delay < 1:
                return False
    return True


def pushable_nodes(retimed: DFG) -> list[str]:
    """Nodes through which a single delay can be pushed individually."""
    return [n for n in retimed.node_names() if can_push(retimed, {n})]


def push_nodes(r: Retiming, nodes: set[str] | frozenset[str], amount: int = 1) -> Retiming:
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
