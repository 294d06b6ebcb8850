"""Job matrix for the experiment engine.

A :class:`Job` names one cell of the sweep matrix — a workload (or an
explicit serialized DFG), a transformation, an unfolding factor and a trip
count.  :func:`execute_job` is the process-pool worker: it rebuilds the
graph, applies the transformation, runs the resulting program on the VM,
verifies it against the original loop, and returns a plain-JSON payload
(so results cache and travel across process boundaries unchanged).

Transformations whose plain (non-CSR) programs carry trip-count
preconditions — a pipelined prologue needs ``n >= M_r``, an unfolded loop
is specialized per residue — are run at an *effective* trip count recorded
in the payload; CSR forms run at the requested trip count exactly.

Every trip-count-independent stage of a job — the parsed graph, the
retimings, the generated programs — and the original loop's reference
run per trip count are looked up through
:class:`repro.runner.reuse.GraphStages`, so inside a reuse scope the
cells of one graph share them (see :mod:`repro.runner.reuse`).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

from ..codegen.expanded import (
    pipelined_loop,
    retimed_unfolded_loop,
    unfold_retimed_loop,
    unfolded_loop,
)
from ..codegen.original import original_loop
from ..core.codesize import (
    PER_COPY,
    PER_ITERATION,
    size_pipelined,
    size_retime_unfold,
    size_unfold_retime,
)
from ..core.predicated import (
    csr_pipelined_loop,
    csr_retimed_unfolded_loop,
    csr_unfold_retimed_loop,
    csr_unfolded_loop,
)
from ..core.verify import assert_equivalent
from ..graph.dfg import DFG, DFGError
from ..graph.serialize import from_json, to_json
from ..machine.vm import run_program
from ..observability import OBS, count, span
from ..retiming.optimal import minimize_cycle_period, retime_for_period
from ..unfolding.orders import retime_unfold, unfold_retime
from .resilience import JobOutcome
from .reuse import GraphStages

__all__ = ["Job", "JobResult", "TRANSFORMS", "execute_job", "jobs_for_matrix"]

#: Transformation names accepted by :class:`Job`, in canonical order.
#: ``orders`` is the Theorem 4.4/4.5 comparison: both retiming+unfolding
#: orders at the same period, sizes and the ``S_{r,f} <= S_{f,r}`` check.
#: ``oracle`` pins the heuristic stack against the exact solvers of
#: :mod:`repro.optimal` (certified optimum, bounds, optimality gaps).
TRANSFORMS: tuple[str, ...] = (
    "original",
    "pipelined",
    "csr-pipelined",
    "unfolded",
    "csr-unfolded",
    "retime-unfold",
    "csr-retime-unfold",
    "csr-retime-unfold-periter",
    "unfold-retime",
    "csr-unfold-retime",
    "orders",
    "oracle",
)


@dataclass(frozen=True)
class Job:
    """One cell of the experiment matrix.

    Exactly one of ``workload`` (registry name) or ``graph_json``
    (serialized DFG) identifies the input graph; the cache key always uses
    the serialized graph, so equal names with different structure cannot
    collide.
    """

    transform: str
    workload: str | None = None
    graph_json: str | None = None
    factor: int = 1
    trip_count: int = 20
    verify: bool = True
    trace: bool = False
    #: Oracle search deadline in seconds (``"oracle"`` transform only):
    #: on expiry the oracle degrades to a bounded-gap certificate.
    oracle_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.transform not in TRANSFORMS:
            raise ValueError(
                f"unknown transform {self.transform!r}; one of {TRANSFORMS}"
            )
        if (self.workload is None) == (self.graph_json is None):
            raise ValueError("exactly one of workload / graph_json is required")

    def graph(self) -> DFG:
        """A fresh instance of the job's input graph."""
        if self.workload is not None:
            # Imported here: a random-graph sweep names no workload.
            from ..workloads.registry import get_workload

            return get_workload(self.workload)
        return from_json(self.graph_json)

    def to_params(self) -> dict:
        """Canonical, fully-determining JSON parameters (the cache key)."""
        return {
            "graph": self.graph_json
            if self.graph_json is not None
            else to_json(self.graph(), indent=None),
            "transform": self.transform,
            "factor": self.factor,
            "trip_count": self.trip_count,
            "verify": self.verify,
            "trace": self.trace,
            "oracle_timeout": self.oracle_timeout,
        }

    @property
    def label(self) -> str:
        """Unique display name for this cell.

        Uniqueness within a run matters beyond readability: the
        resilience layer's fault-occurrence counters are keyed per
        ``(site, label)``, so two distinct jobs sharing a label would
        see partition-dependent fault sequences.  Explicit-graph jobs
        therefore use the serialized graph's own name, not a generic
        placeholder.
        """
        name = self.workload
        if name is None and self.graph_json is not None:
            name = _graph_name(self.graph_json)
        return f"{name or 'dfg'}/{self.transform}/f={self.factor}/n={self.trip_count}"


@functools.lru_cache(maxsize=16)
def _graph_name(graph_json: str) -> str | None:
    """The ``name`` of a serialized graph, parsed once per graph rather
    than on every label of its jobs."""
    try:
        return json.loads(graph_json).get("name")
    except ValueError:
        return None


@dataclass
class JobResult:
    """One job's payload plus engine-side bookkeeping.

    ``outcome`` carries the resilience record (attempts, fault history,
    final status) for executed jobs; cache hits have none.
    """

    job: Job
    payload: dict
    cached: bool = False
    wall_time: float = 0.0
    outcome: JobOutcome | None = None

    @property
    def ok(self) -> bool:
        return self.payload.get("ok", False)

    @property
    def error(self) -> str | None:
        return self.payload.get("error")

    @property
    def status(self) -> str:
        """``ok`` | ``error`` (in-band) | ``failed`` / ``timed_out``
        (engine-level, after retry exhaustion) — the FAILED-cell contract
        reports use to distinguish bad results from broken execution."""
        if self.outcome is not None and self.outcome.status != "ok":
            return self.outcome.status
        return "ok" if self.ok else "error"

    @property
    def resumed(self) -> bool:
        """Rehydrated from a run journal (``--resume``), not re-executed."""
        return self.outcome is not None and self.outcome.resumed


class _Stages(GraphStages):
    """One job's view of its graph's shared stages.

    Every builder calls the stage functions through this module's names,
    so a build runs exactly the calls a job without reuse makes.
    """

    __slots__ = ()

    def reference(self, n: int):
        """The original loop's :class:`VMResult` for trip count ``n``
        (what :func:`~repro.core.verify.reference_result` computes)."""
        return self.get(("reference", n), _reference, self, n)


def _reference(st: _Stages, n: int):
    """Run the original loop (its program shared too) for ``n``."""
    return run_program(st.get(("program", "original"), original_loop, st.g), n)


def _retiming_extras(period: int, r) -> dict:
    return {"period": period, "registers": r.registers_needed(), "max_retiming": r.max_value}


# The retiming stages keep a retiming and its payload extras (the period
# among them), not the transformed graph nobody reads again.


def _minimized(g: DFG) -> tuple:
    """``minimize_cycle_period(g)``'s retiming plus its payload extras."""
    period, r = minimize_cycle_period(g)
    return r, _retiming_extras(period, r)


def _retimed_unfolded(st: _Stages, f: int, period: int | None) -> tuple:
    """``retime_unfold(g, f[, period])``'s retiming plus its extras.

    Without a ``period`` the search's upper bound unfolds
    ``minimize_cycle_period(g)``'s retiming; when the ``("minimize",)``
    stage already holds it (a sweep's pipelined cells built it), it is
    passed in rather than recomputed.  The hit merges that stage's metric
    delta into this build's, so counters still count the work.
    """
    minimized = st.peek(("minimize",)) if period is None else None
    if minimized is None:
        ru = retime_unfold(st.g, f, period=period)
    else:
        ru = retime_unfold(st.g, f, period=period, minimized=minimized[0])
    return ru.retiming, _retiming_extras(ru.period, ru.retiming)


def _unfolded_retimed(g: DFG, f: int) -> tuple:
    """``unfold_retime(g, f)``'s retiming (of ``G_f``) plus its extras."""
    ur = unfold_retime(g, f)
    return ur.retiming, {"period": ur.period, "registers": ur.retiming.registers_needed()}


def _program_for(st: _Stages, transform: str, f: int, n: int):
    """Build ``(program, effective_n, extras)`` for one transform.

    ``extras`` is shared with other cells: callers copy it, never mutate.
    Programs are shared under ``("program", transform, f)`` plus the
    residue or leftover a plain unfolded form is specialized for.
    """
    g = st.g
    if f < 1:
        raise DFGError(f"unfolding factor must be >= 1, got {f}")
    if transform == "original":
        return st.get(("program", transform), original_loop, g), n, {}
    if transform in ("pipelined", "csr-pipelined"):
        r, extras = st.get(("minimize",), _minimized, g)
        if transform == "csr-pipelined":
            return st.get(("program", transform), csr_pipelined_loop, g, r), n, extras
        program = st.get(("program", transform), pipelined_loop, g, r)
        return program, max(n, extras["max_retiming"]), extras
    if transform == "unfolded":
        key = ("program", transform, f, n % f)
        return st.get(key, unfolded_loop, g, f, n % f), n, {}
    if transform == "csr-unfolded":
        return st.get(("program", transform, f), csr_unfolded_loop, g, f), n, {}
    if transform in ("retime-unfold", "csr-retime-unfold", "csr-retime-unfold-periter"):
        r, extras = st.get(("retime_unfold", f), _retimed_unfolded, st, f, None)
        if transform != "retime-unfold":
            mode = PER_COPY if transform == "csr-retime-unfold" else PER_ITERATION
            key = ("program", transform, f)
            return st.get(key, csr_retimed_unfolded_loop, g, r, f, mode), n, extras
        m_r = extras["max_retiming"]
        n_eff = max(n, m_r)
        leftover = (n_eff - m_r) % f
        key = ("program", transform, f, leftover)
        return st.get(key, retimed_unfolded_loop, g, r, f, leftover), n_eff, extras
    if transform in ("unfold-retime", "csr-unfold-retime"):
        r_gf, extras = st.get(("unfold_retime", f), _unfolded_retimed, g, f)
        if transform == "csr-unfold-retime":
            key = ("program", transform, f)
            return st.get(key, csr_unfold_retimed_loop, g, r_gf, f), n, extras
        key = ("program", transform, f, n % f)
        program = st.get(key, unfold_retimed_loop, g, r_gf, f, n % f)
        n_eff = n
        min_n = program.meta.get("min_n", 0)
        if n_eff < min_n:
            # Preserve the residue the program was specialized for.
            n_eff += f * ((min_n - n_eff + f - 1) // f)
        return program, n_eff, extras
    raise DFGError(f"unknown transform {transform!r}")  # pragma: no cover


def _orders_payload(st: _Stages, f: int, n: int, verify: bool) -> dict:
    """Theorem 4.4/4.5 comparison payload: both orders at the same period."""
    g = st.g
    r_gf, ur_extras = st.get(("unfold_retime", f), _unfolded_retimed, g, f)
    period = ur_extras["period"]
    r, _ = st.get(("retime_unfold", f, period), _retimed_unfolded, st, f, period)
    s_fr = size_unfold_retime(g, r_gf, f)
    s_rf = size_retime_unfold(g, r, f)
    payload = {
        "period": period,
        "size_unfold_retime": s_fr,
        "size_retime_unfold": s_rf,
        "inequality_holds": s_rf <= s_fr,
        "registers": r.registers_needed(),
    }
    executed = disabled = 0
    if verify:
        for prog in (
            st.get(("program", "orders", f), csr_retimed_unfolded_loop, g, r, f),
            st.get(("program", "csr-unfold-retime", f), csr_unfold_retimed_loop, g, r_gf, f),
        ):
            res = assert_equivalent(g, prog, n, reference=st.reference)
            executed += res.executed
            disabled += res.disabled
        payload["equivalent"] = True
    payload["executed"] = executed
    payload["disabled"] = disabled
    return payload


def _oracle_payload(g: DFG, timeout: float | None) -> dict:
    """Ground-truth verification payload: the heuristic stack vs. the
    exact oracle (:mod:`repro.optimal`) on one graph.

    Any heuristic result that escapes the oracle's *proven bounds* is a
    correctness bug and lands in ``violations`` (the sweep turns those
    into failures); results merely above an unproven lower bound are
    recorded as gaps, not violations — a timed-out oracle degrades the
    check, never fakes a pass.
    """
    # Imported here: only ``--oracle`` sweeps run the schedulers and the
    # exact solvers.
    from ..optimal import minimal_code_size, optimal_cycle_period, optimal_initiation_interval
    from ..schedule.modulo import modulo_schedule
    from ..schedule.rotation import rotation_schedule

    opt = optimal_cycle_period(g, timeout=timeout)
    period, r_heur = minimize_cycle_period(g)
    violations: list[str] = []
    if period < opt.optimum_lower:
        violations.append(
            f"minimize_cycle_period period {period} beats the certified lower "
            f"bound {opt.optimum_lower}"
        )
    elif opt.proven and period != opt.period:
        violations.append(
            f"minimize_cycle_period period {period} != proven optimum {opt.period}"
        )
    if opt.proven:
        # Both directions of the OPT retiming: feasible at the optimum,
        # infeasible strictly below it.
        if retime_for_period(g, opt.period) is None:
            violations.append(
                f"retime_for_period infeasible at the proven optimum {opt.period}"
            )
        if opt.period > 1 and retime_for_period(g, opt.period - 1) is not None:
            violations.append(
                f"retime_for_period feasible below the proven optimum {opt.period}"
            )
    rot = rotation_schedule(g)
    if rot.length < opt.optimum_lower:
        violations.append(
            f"rotation schedule length {rot.length} beats the certified "
            f"lower bound {opt.optimum_lower}"
        )
    oii = optimal_initiation_interval(g, timeout=timeout)
    ms = modulo_schedule(g)
    if ms.ii < oii.optimum_lower:
        violations.append(
            f"modulo schedule II {ms.ii} beats the certified lower bound "
            f"{oii.optimum_lower}"
        )
    size_opt, r_min = minimal_code_size(g, opt.period)
    size_heur = size_pipelined(g, r_heur)
    if size_heur < size_opt:
        violations.append(
            f"heuristic pipelined size {size_heur} beats the proven "
            f"optimal size {size_opt} at period {opt.period}"
        )
    gap = period - opt.optimum_lower
    count("oracle.graphs")
    if OBS.enabled:
        OBS.metrics.histogram(
            "oracle.gap", "heuristic period minus certified optimum lower bound"
        ).observe(gap)
    return {
        "period_optimal": opt.period,
        "optimum_lower": opt.optimum_lower,
        "proven": opt.proven,
        "probes": opt.probes,
        "gap": gap,
        "rotation_length": rot.length,
        "rotation_gap": rot.length - opt.optimum_lower,
        "modulo_ii": ms.ii,
        "modulo_ii_optimal": oii.ii,
        "modulo_gap": ms.ii - oii.optimum_lower,
        "optimal_code_size": size_opt,
        "heuristic_code_size": size_heur,
        "min_max_retiming": r_min.max_value,
        "violations": violations,
        "bounds_ok": not violations,
    }


def execute_job(params: dict) -> dict:
    """Process-pool worker: run one job described by ``Job.to_params()``.

    Always returns a JSON payload; failures are reported in-band as
    ``{"ok": False, "error": ..., "error_type": ...}`` so one bad cell
    cannot take down a sweep.
    """
    start = time.perf_counter()
    transform = params["transform"]
    f = params["factor"]
    n = params["trip_count"]
    with span("job.execute", transform=transform, factor=f, n=n):
        payload = _execute_job_payload(params, transform, f, n)
    payload["compute_time"] = time.perf_counter() - start
    return payload


def _execute_job_payload(params: dict, transform: str, f: int, n: int) -> dict:
    try:
        st = _Stages(params["graph"], from_json)
        if transform == "oracle":
            payload = _oracle_payload(st.g, params.get("oracle_timeout"))
        elif transform == "orders":
            payload = _orders_payload(st, f, n, params["verify"])
        else:
            program, n_eff, extras = _program_for(st, transform, f, n)
            payload = dict(extras)
            payload["effective_n"] = n_eff
            payload["code_size"] = program.code_size
            if params["verify"] and transform != "original":
                result = assert_equivalent(st.g, program, n_eff, reference=st.reference)
                payload["equivalent"] = True
            else:
                result = run_program(program, n_eff, trace=params["trace"])
            payload["executed"] = result.executed
            payload["disabled"] = result.disabled
            if result.trace is not None:
                payload["trace_len"] = len(result.trace)
        payload["ok"] = True
        payload["error"] = None
    except DFGError as exc:
        # EquivalenceError / MachineError / construction failures alike:
        # reported in-band, sweep continues.
        payload = {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
        }
    return payload


def jobs_for_matrix(
    workloads: list[str],
    transforms: list[str],
    factors: list[int],
    trip_counts: list[int],
    verify: bool = True,
) -> list[Job]:
    """The full cross product, skipping factor-irrelevant duplicates.

    Transforms that ignore the unfolding factor (``original``,
    ``pipelined``, ``csr-pipelined``, ``oracle``) appear once per trip
    count rather than once per factor.
    """
    factorless = {"original", "pipelined", "csr-pipelined", "oracle"}
    jobs: list[Job] = []
    for w in workloads:
        for t in transforms:
            fs = [1] if t in factorless else factors
            for f in fs:
                for n in trip_counts:
                    jobs.append(
                        Job(
                            transform=t,
                            workload=w,
                            factor=f,
                            trip_count=n,
                            verify=verify,
                        )
                    )
    return jobs
