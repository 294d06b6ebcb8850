"""Randomized differential testing at sweep scale.

Generates seeded random DFGs (:mod:`repro.graph.generators`), pushes each
through every transformation order the library implements — pipelined,
unfolded, unfold-then-retime, retime-then-unfold, and all CSR variants —
and checks, per graph:

* **VM equivalence** (Theorems 4.1/4.2/4.6/4.7): every transformed program
  computes exactly the original loop's array state;
* **the order inequality** (Theorems 4.4/4.5): at a matched cycle period,
  ``S_{r,f} <= S_{f,r}`` — retime-then-unfold code is never larger than
  unfold-then-retime code;
* **ground-truth optimality** (``oracle=True`` / ``--oracle``): one
  ``"oracle"`` job per graph pins ``minimize_cycle_period``, rotation
  scheduling and modulo scheduling against the exact
  solvers of :mod:`repro.optimal` — certified bounds, per-graph
  optimality gaps (:class:`OracleRecord`), and a rendered gap table.

The sweep runs through the :class:`~repro.runner.engine.ExperimentEngine`,
so it parallelizes across cores and re-runs are incremental: a 200-graph
sweep that already passed costs only cache lookups.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..graph.generators import random_dfg
from ..graph.serialize import to_json
from .engine import ExperimentEngine
from .jobs import Job, JobResult

__all__ = [
    "DIFFTEST_TRANSFORMS",
    "OracleRecord",
    "SweepFailure",
    "SweepReport",
    "check_sweep_params",
    "differential_jobs",
    "differential_sweep",
]

#: Every transformation order exercised per random graph.  ``orders`` also
#: carries the Theorem 4.4/4.5 size-inequality check.
DIFFTEST_TRANSFORMS: tuple[str, ...] = (
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
)


@dataclass(frozen=True)
class SweepFailure:
    """One failed check: which graph, which cell, what went wrong.

    ``kind`` distinguishes in-band result errors (``"error"``), violated
    theorem inequalities (``"inequality"``) and engine-level FAILED cells
    — jobs whose retries were exhausted by crashes or deadlines
    (``"failed"`` / ``"timed_out"``).
    """

    seed: int
    label: str
    kind: str  # "error" | "inequality" | "oracle" | "failed" | "timed_out"
    detail: str


@dataclass(frozen=True)
class OracleRecord:
    """Per-graph oracle outcome: the gap-table row.

    ``status`` mirrors :attr:`~repro.runner.jobs.JobResult.status` —
    ``"ok"`` rows carry the certified numbers; ``"error"`` / ``"failed"``
    / ``"timed_out"`` rows carry only the failure detail and render as
    marker cells in the gap table.
    """

    seed: int
    label: str
    status: str
    period: int | None = None
    optimum_lower: int | None = None
    proven: bool = False
    gap: int | None = None
    detail: str = ""

    def as_row(self) -> dict:
        """The mapping :func:`repro.analysis.tables.format_gap_table` eats."""
        return {
            "seed": self.seed,
            "label": self.label,
            "status": self.status,
            "period": self.period,
            "optimum_lower": self.optimum_lower,
            "proven": self.proven,
            "gap": self.gap,
            "error": self.detail,
        }


@dataclass
class SweepReport:
    """Outcome of one differential sweep."""

    graphs: int = 0
    checks: int = 0
    equivalence_checks: int = 0
    inequality_checks: int = 0
    oracle_checks: int = 0
    failures: list[SweepFailure] = field(default_factory=list)
    oracle_records: list[OracleRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def max_gap(self) -> int:
        """Largest recorded oracle gap (0 when no oracle jobs ran)."""
        gaps = [r.gap for r in self.oracle_records if r.gap is not None]
        return max(gaps) if gaps else 0

    def gap_table(self) -> str:
        """The per-graph optimality-gap table (``--oracle`` runs)."""
        from ..analysis.tables import format_gap_table

        return format_gap_table(r.as_row() for r in self.oracle_records)

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} failures)"
        lines = [
            f"differential sweep: {status}",
            f"graphs      : {self.graphs}",
            f"checks      : {self.checks} "
            f"({self.equivalence_checks} equivalence, "
            f"{self.inequality_checks} inequality)",
        ]
        if self.oracle_checks:
            proven = sum(
                1 for r in self.oracle_records if r.status == "ok" and r.proven
            )
            lines.append(
                f"oracle      : {self.oracle_checks} graphs, "
                f"{proven} proven optimal, max gap {self.max_gap}"
            )
        for f in self.failures[:20]:
            lines.append(f"  [{f.kind}] seed={f.seed} {f.label}: {f.detail}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def check_sweep_params(
    graphs: int = 1, factors=(1,), max_nodes: int = 1, oracle_timeout: float | None = None
) -> None:
    """Raise :class:`ValueError` naming the first out-of-range sweep
    parameter: ``graphs``, a factor or ``max_nodes`` below 1, or an
    ``oracle_timeout`` that is negative or not finite as a float.  The CLI
    and the request server call this before any work starts."""
    if graphs < 1:
        raise ValueError(f"graphs must be >= 1, got {graphs}")
    if not factors or min(factors) < 1:
        raise ValueError(f"factors must be >= 1, got {list(factors)}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    try:
        bad = oracle_timeout is not None and not 0 <= float(oracle_timeout) < math.inf
    except OverflowError:  # an integer too large for a float deadline
        bad = True
    if bad:
        raise ValueError(
            f"oracle_timeout must be a finite number >= 0, got {oracle_timeout!r}"
        )


def _graph_for_seed(seed: int, max_nodes: int, max_extra_edges: int) -> str:
    """Serialized random DFG for one seed (deterministic, process-stable)."""
    rng = random.Random(seed)
    g = random_dfg(
        rng,
        num_nodes=rng.randint(1, max_nodes),
        extra_edges=rng.randint(0, max_extra_edges),
        max_delay=3,
        name=f"rand{seed}",
    )
    return to_json(g, indent=None)


def differential_jobs(
    seed: int,
    factors: tuple[int, ...] = (2, 3),
    trip_counts: tuple[int, ...] = (0, 1, 7, 12),
    max_nodes: int = 6,
    max_extra_edges: int = 5,
    transforms: tuple[str, ...] = DIFFTEST_TRANSFORMS,
    oracle: bool = False,
    oracle_timeout: float | None = None,
) -> list[Job]:
    """All differential-test jobs for one seeded random graph.

    With ``oracle``, one additional ``"oracle"`` job per graph runs the
    exact solvers (bounded by ``oracle_timeout`` seconds, if given).
    """
    graph_json = _graph_for_seed(seed, max_nodes, max_extra_edges)
    factorless = {"original", "pipelined", "csr-pipelined"}
    jobs: list[Job] = []
    for t in transforms:
        for f in [1] if t in factorless else list(factors):
            # One trip count suffices for the size inequality; equivalence
            # runs the full trip-count sweep.
            ns = trip_counts[-1:] if t == "orders" else trip_counts
            for n in ns:
                jobs.append(
                    Job(
                        transform=t,
                        graph_json=graph_json,
                        factor=f,
                        trip_count=n,
                        verify=True,
                    )
                )
    if oracle:
        jobs.append(
            Job(
                transform="oracle",
                graph_json=graph_json,
                factor=1,
                trip_count=0,
                verify=False,
                oracle_timeout=oracle_timeout,
            )
        )
    return jobs


def _check(result: JobResult, seed: int, report: SweepReport) -> None:
    payload = result.payload
    report.checks += 1
    graph_name = result.job.label.split("/", 1)[0]
    if result.job.transform == "oracle":
        report.oracle_checks += 1
    if not result.ok:
        detail = f"{payload.get('error_type')}: {payload.get('error')}"
        if result.outcome is not None and result.outcome.status != "ok":
            # An engine-level FAILED cell: the attempts themselves died.
            # Surface the retry history alongside the final error.
            detail += (
                f" (attempts={result.outcome.attempts}, "
                f"faults: {', '.join(result.outcome.faults) or 'none'})"
            )
        if result.job.transform == "oracle":
            # A dead oracle job still gets a gap-table row, rendered as
            # a FAILED / TIMED_OUT / ERROR marker.
            report.oracle_records.append(
                OracleRecord(
                    seed=seed,
                    label=graph_name,
                    status=result.status if result.status != "ok" else "error",
                    detail=detail,
                )
            )
        report.failures.append(
            SweepFailure(
                seed=seed,
                label=result.job.label,
                kind=result.status if result.status != "ok" else "error",
                detail=detail,
            )
        )
        return
    if result.job.transform == "oracle":
        report.oracle_records.append(
            OracleRecord(
                seed=seed,
                label=graph_name,
                status="ok",
                period=payload.get("period_optimal"),
                optimum_lower=payload.get("optimum_lower"),
                proven=bool(payload.get("proven")),
                gap=payload.get("gap"),
            )
        )
        if not payload.get("bounds_ok", True):
            report.failures.append(
                SweepFailure(
                    seed=seed,
                    label=result.job.label,
                    kind="oracle",
                    detail="; ".join(payload.get("violations", [])),
                )
            )
        elif payload.get("proven") and payload.get("gap"):
            report.failures.append(
                SweepFailure(
                    seed=seed,
                    label=result.job.label,
                    kind="oracle",
                    detail=(
                        f"gap {payload.get('gap')} at proven optimum "
                        f"{payload.get('period_optimal')}"
                    ),
                )
            )
        return
    if result.job.transform == "orders":
        report.inequality_checks += 1
        if not payload.get("inequality_holds"):
            report.failures.append(
                SweepFailure(
                    seed=seed,
                    label=result.job.label,
                    kind="inequality",
                    detail=(
                        f"S_rf={payload.get('size_retime_unfold')} > "
                        f"S_fr={payload.get('size_unfold_retime')} "
                        f"at period {payload.get('period')}"
                    ),
                )
            )
    if result.job.transform != "original":
        report.equivalence_checks += 1


def differential_sweep(
    num_graphs: int = 200,
    seed: int = 0,
    factors: tuple[int, ...] = (2, 3),
    trip_counts: tuple[int, ...] = (0, 1, 7, 12),
    max_nodes: int = 6,
    max_extra_edges: int = 5,
    engine: ExperimentEngine | None = None,
    transforms: tuple[str, ...] = DIFFTEST_TRANSFORMS,
    oracle: bool = False,
    oracle_timeout: float | None = None,
) -> SweepReport:
    """Run the randomized differential sweep and collect a report.

    Graph seeds are ``seed .. seed + num_graphs - 1``; everything
    downstream is a deterministic function of the seed, so the sweep is
    reproducible (and cacheable) across machines and process pools.
    ``oracle`` adds the ground-truth optimality battery per graph.
    """
    engine = engine if engine is not None else ExperimentEngine()
    report = SweepReport(graphs=num_graphs)
    all_jobs: list[Job] = []
    job_seeds: list[int] = []
    for s in range(seed, seed + num_graphs):
        jobs = differential_jobs(
            s,
            factors=factors,
            trip_counts=trip_counts,
            max_nodes=max_nodes,
            max_extra_edges=max_extra_edges,
            transforms=transforms,
            oracle=oracle,
            oracle_timeout=oracle_timeout,
        )
        all_jobs.extend(jobs)
        job_seeds.extend([s] * len(jobs))
    for result, s in zip(engine.run_jobs(all_jobs), job_seeds):
        _check(result, s, report)
    return report
