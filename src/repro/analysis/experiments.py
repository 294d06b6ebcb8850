"""Experiment drivers that regenerate every table of the paper.

Each ``tableN_rows`` function computes the measured quantities from first
principles (optimal retiming, exact order comparison, code-size models
validated against generated programs) and pairs them with the paper's
published numbers, so the benchmark harness and EXPERIMENTS.md print both
side by side.  The benchmark files under ``benchmarks/`` are thin wrappers
around these drivers.

Every driver accepts an optional
:class:`~repro.runner.engine.ExperimentEngine`: with one, each row is a
content-addressed unit of work — cached on disk and fanned across the
engine's process pool — and the measured numbers are reconstructed from
the JSON payload.  The payload functions (``_table1_payload`` etc.) are
the single source of truth for both paths, so engine-driven tables are
byte-identical to direct ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from ..core.codesize import (
    PER_COPY,
    PER_ITERATION,
    size_csr_pipelined,
    size_csr_retime_unfold,
    size_original,
    size_pipelined,
    size_retime_unfold,
    size_unfold_retime,
)
from ..graph.dfg import DFG
from ..graph.iteration_bound import iteration_bound
from ..graph.serialize import from_json, to_json
from ..retiming.function import Retiming
from ..retiming.optimal import minimize_cycle_period
from ..unfolding.orders import retime_unfold, unfold_retime
from ..workloads.registry import BENCHMARKS, PAPER_LABELS, get_workload
from .tables import FailedCell, format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner uses core)
    from ..runner.engine import ExperimentEngine

__all__ = [
    "FailedCell",
    "TABLE_TITLES",
    "Table1Row",
    "Table2Row",
    "OrderComparison",
    "table1_rows",
    "table2_rows",
    "table3_comparison",
    "table4_comparison",
    "table1_row_from_payload",
    "table2_row_from_payload",
    "order_comparison_from_payload",
    "table1_cells",
    "table2_cells",
    "order_comparison_cells",
    "format_table1",
    "format_table2",
    "format_order_comparison",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
]

#: Section titles the tables CLI prints (``=== {title} ===``) — shared
#: with the report pipeline so ``python -m repro report`` reproduces the
#: CLI's paper-table output byte-identically.
TABLE_TITLES: dict[str, str] = {
    "1": "Table 1: code size after retiming and registers needed",
    "2": "Table 2: retiming + unfolding (f=3, LC=101)",
    "3": "Table 3: order comparison, Figure-8 DFG",
    "4": "Table 4: 4-stage lattice at iteration period 8",
}

# ----------------------------------------------------------------------
# Published numbers (for side-by-side reporting).
# ----------------------------------------------------------------------

#: Table 1 of the paper: benchmark -> (orig, retimed, CR, registers, %red).
PAPER_TABLE1: dict[str, tuple[int, int, int, int, float]] = {
    "iir": (8, 16, 12, 2, 25.0),
    "diffeq": (11, 33, 17, 3, 48.5),
    "allpole": (15, 60, 23, 4, 61.7),
    "elliptic": (34, 68, 40, 3, 41.2),
    "lattice": (26, 78, 32, 3, 59.0),
    "volterra": (27, 54, 31, 2, 42.6),
}

#: Table 2 (f=3, LC=101): benchmark -> (R-U, CR, registers, %red).
PAPER_TABLE2: dict[str, tuple[int, int, int, float]] = {
    "iir": (48, 32, 2, 33.3),
    "diffeq": (77, 45, 3, 41.6),
    "allpole": (120, 61, 4, 49.2),
    "elliptic": (238, 114, 3, 52.1),
    "lattice": (182, 90, 3, 50.5),
    "volterra": (168, 89, 2, 47.0),
}

#: Table 3 (Figure-8 DFG): row label -> sizes at uf = 2, 3, 4.
PAPER_TABLE3: dict[str, tuple[object, object, object]] = {
    "unfold-retime": (20, 30, 40),
    "retime-unfold": (20, 30, 30),
    "retime-unfold-CR": (14, 19, 24),
    "iteration period": (20, 19, 13.5),
}

#: Table 4 (4-stage lattice, cycle period 8): row label -> sizes.
PAPER_TABLE4: dict[str, tuple[int, int, int]] = {
    "unfold-retime": (156, 312, 416),
    "retime-unfold": (130, 156, 182),
    "retime-unfold-CR": (61, 90, 119),
}


# ----------------------------------------------------------------------
# Graceful degradation: a row whose engine job died after retries.
# ----------------------------------------------------------------------
# (FailedCell itself lives in .tables so every renderer — plain,
# markdown, LaTeX — can typeset the marker without importing drivers.)


def _failed_cell(payload: dict, name: str = "", label: str = "?", factor: int = 0):
    """The :class:`FailedCell` for a failure payload, else ``None``."""
    if payload.get("ok", True):
        return None
    return FailedCell(
        name=name,
        label=label,
        factor=factor,
        error=str(payload.get("error")),
        status=str(payload.get("status", "error")),
    )


# ----------------------------------------------------------------------
# Table 1 — code size after retiming, CSR, registers.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """Measured Table-1 row for one benchmark."""

    name: str
    label: str
    original: int
    retimed: int
    csr: int
    registers: int
    period_before: int
    period_after: int
    retiming: Retiming

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (self.retimed - self.csr) / self.retimed


def _table1_payload(params: dict) -> dict:
    """Measured Table-1 quantities for one serialized graph (engine worker)."""
    from ..graph.period import cycle_period

    g = from_json(params["graph"])
    before = cycle_period(g)
    after, r = minimize_cycle_period(g)
    return {
        "original": size_original(g),
        "retimed": size_pipelined(g, r),
        "csr": size_csr_pipelined(g, r),
        "registers": r.registers_needed(),
        "period_before": before,
        "period_after": after,
        "retiming": r.as_dict(),
    }


def _table1_row(name: str, g: DFG, payload: dict) -> "Table1Row | FailedCell":
    failed = _failed_cell(payload, name=name, label=PAPER_LABELS[name])
    if failed is not None:
        return failed
    return Table1Row(
        name=name,
        label=PAPER_LABELS[name],
        original=payload["original"],
        retimed=payload["retimed"],
        csr=payload["csr"],
        registers=payload["registers"],
        period_before=payload["period_before"],
        period_after=payload["period_after"],
        retiming=Retiming(g, {k: int(v) for k, v in payload["retiming"].items()}),
    )


def table1_rows(engine: "ExperimentEngine | None" = None) -> list[Table1Row]:
    """Optimal retiming + CSR statistics for the six benchmarks.

    With an engine, each benchmark row is one cached, pool-dispatched unit
    of work; without one the rows are computed inline.  Both paths share
    :func:`_table1_payload`, so the results are identical.
    """
    graphs = {name: get_workload(name) for name in BENCHMARKS}
    params = [{"graph": to_json(graphs[name], indent=None)} for name in BENCHMARKS]
    if engine is not None:
        payloads = engine.map_cached(
            "table1-row", _table1_payload, params, [f"table1:{n}" for n in BENCHMARKS]
        )
    else:
        payloads = [_table1_payload(p) for p in params]
    return [
        _table1_row(name, graphs[name], payload)
        for name, payload in zip(BENCHMARKS, payloads)
    ]


def table1_row_from_payload(name: str, payload: dict) -> "Table1Row | FailedCell":
    """Rebuild one Table-1 row from a journaled/cached payload.

    The report pipeline's entry point: a ``tables`` run journal records
    exactly the :func:`_table1_payload` dicts, so rows rebuilt here
    render byte-identically to the live CLI's.
    """
    return _table1_row(name, get_workload(name), payload)


def table1_cells(rows: list["Table1Row | FailedCell"]) -> tuple[list[str], list[list]]:
    """Table 1's ``(headers, cell rows)`` — shared by every renderer."""
    out: list[list] = []
    for row in rows:
        if isinstance(row, FailedCell):
            out.append([row.label] + [row] * 9)
            continue
        p = PAPER_TABLE1[row.name]
        out.append(
            [
                row.label,
                row.original,
                p[1],
                row.retimed,
                p[2],
                row.csr,
                p[3],
                row.registers,
                p[4],
                row.reduction_pct,
            ]
        )
    headers = [
        "Benchmark",
        "Orig",
        "Ret(paper)",
        "Ret(ours)",
        "CR(paper)",
        "CR(ours)",
        "Rgs(paper)",
        "Rgs(ours)",
        "%Red(paper)",
        "%Red(ours)",
    ]
    return headers, out


def format_table1(rows: list[Table1Row] | None = None) -> str:
    """Side-by-side paper vs. measured rendering of Table 1."""
    rows = rows if rows is not None else table1_rows()
    return format_table(*table1_cells(rows))


# ----------------------------------------------------------------------
# Table 2 — retiming + unfolding (f = 3, LC = 101).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """Measured Table-2 row: the Table-1 retiming unfolded by ``f``."""

    name: str
    label: str
    factor: int
    trip_count: int
    expanded: int  # retime-unfold with remainder iterations counted
    csr: int
    registers: int

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (self.expanded - self.csr) / self.expanded


def _table2_payload(params: dict) -> dict:
    """Measured Table-2 quantities for one serialized graph (engine worker)."""
    g = from_json(params["graph"])
    f = params["factor"]
    n = params["trip_count"]
    _, r = minimize_cycle_period(g)
    remainder = n % f
    return {
        "expanded": size_retime_unfold(g, r, f, remainder),
        "csr": size_csr_retime_unfold(g, r, f, mode=PER_COPY),
        "registers": r.registers_needed(),
    }


def table2_rows(
    f: int = 3, n: int = 101, engine: "ExperimentEngine | None" = None
) -> list[Table2Row]:
    """Unfold each benchmark's Table-1 retiming by ``f`` (the paper reuses
    the same retiming — its register column is identical across tables)."""
    params = [
        {"graph": to_json(get_workload(name), indent=None), "factor": f, "trip_count": n}
        for name in BENCHMARKS
    ]
    if engine is not None:
        payloads = engine.map_cached(
            "table2-row", _table2_payload, params, [f"table2:{b}" for b in BENCHMARKS]
        )
    else:
        payloads = [_table2_payload(p) for p in params]
    return [
        table2_row_from_payload(name, payload, f=f, n=n)
        for name, payload in zip(BENCHMARKS, payloads)
    ]


def table2_row_from_payload(
    name: str, payload: dict, f: int = 3, n: int = 101
) -> "Table2Row | FailedCell":
    """Rebuild one Table-2 row from a journaled/cached payload."""
    failed = _failed_cell(payload, name=name, label=PAPER_LABELS[name], factor=f)
    if failed is not None:
        return failed
    return Table2Row(
        name=name,
        label=PAPER_LABELS[name],
        factor=f,
        trip_count=n,
        expanded=payload["expanded"],
        csr=payload["csr"],
        registers=payload["registers"],
    )


def table2_cells(rows: list["Table2Row | FailedCell"]) -> tuple[list[str], list[list]]:
    """Table 2's ``(headers, cell rows)`` — shared by every renderer."""
    out: list[list] = []
    for row in rows:
        if isinstance(row, FailedCell):
            out.append([row.label] + [row] * 8)
            continue
        p = PAPER_TABLE2[row.name]
        out.append(
            [
                row.label,
                p[0],
                row.expanded,
                p[1],
                row.csr,
                p[2],
                row.registers,
                p[3],
                row.reduction_pct,
            ]
        )
    headers = [
        "Benchmark",
        "R-U(paper)",
        "R-U(ours)",
        "CR(paper)",
        "CR(ours)",
        "Rgs(paper)",
        "Rgs(ours)",
        "%Red(paper)",
        "%Red(ours)",
    ]
    return headers, out


def format_table2(rows: list[Table2Row] | None = None) -> str:
    """Side-by-side paper vs. measured rendering of Table 2."""
    rows = rows if rows is not None else table2_rows()
    return format_table(*table2_cells(rows))


# ----------------------------------------------------------------------
# Tables 3 and 4 — order comparison across unfolding factors.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OrderComparison:
    """Order-comparison column for one unfolding factor (Tables 3/4).

    ``csr_mode`` records which decrement convention prices the CR row —
    Table 3 uses per-iteration (2 per register), Table 4 per-copy
    (``f + 1`` per register).
    """

    factor: int
    period: int
    iteration_period: Fraction
    bound: Fraction
    unfold_retime_size: int
    retime_unfold_size: int
    csr_size: int
    registers: int
    csr_mode: str
    m_unfold_retime: int
    m_retime_unfold: int


def _orders_payload(params: dict) -> dict:
    """Measured order-comparison column for one factor (engine worker)."""
    from ..core.partial import minimize_registers_for_unfold

    g = from_json(params["graph"])
    f = params["factor"]
    period = params["period"]
    csr_mode = params["csr_mode"]
    ur = unfold_retime(g, f, period=period)
    ru = retime_unfold(g, f, period=period if period is not None else ur.period)
    r = ru.retiming
    if g.num_nodes <= 7:
        # Small graphs: provably register-minimal retiming at the same period.
        better = minimize_registers_for_unfold(g, f, ru.period)
        if better is not None and better.registers_needed() <= r.registers_needed():
            r = better
    bound = iteration_bound(g)
    return {
        "period": ru.period,
        "iteration_period": [ru.iteration_period.numerator, ru.iteration_period.denominator],
        "bound": [bound.numerator, bound.denominator],
        "unfold_retime_size": size_unfold_retime(g, ur.retiming, f),
        "retime_unfold_size": size_retime_unfold(g, r, f),
        "csr_size": size_csr_retime_unfold(g, r, f, mode=csr_mode),
        "registers": r.registers_needed(),
        "m_unfold_retime": ur.retiming.max_value,
        "m_retime_unfold": r.max_value,
    }


def order_comparison_from_payload(
    f: int, csr_mode: str, payload: dict, name: str = ""
) -> "OrderComparison | FailedCell":
    """Rebuild one order-comparison column from a journaled payload.

    ``csr_mode`` is not recorded in the payload (it is part of the cache
    key's params) — callers pass the mode the table used:
    :data:`~repro.core.predicated.PER_ITERATION` for Table 3,
    :data:`~repro.core.predicated.PER_COPY` for Table 4.
    """
    failed = _failed_cell(payload, name=name, factor=f)
    if failed is not None:
        return failed
    return _comparison_from_payload(f, csr_mode, payload)


def _comparison_from_payload(f: int, csr_mode: str, payload: dict) -> OrderComparison:
    return OrderComparison(
        factor=f,
        period=payload["period"],
        iteration_period=Fraction(*payload["iteration_period"]),
        bound=Fraction(*payload["bound"]),
        unfold_retime_size=payload["unfold_retime_size"],
        retime_unfold_size=payload["retime_unfold_size"],
        csr_size=payload["csr_size"],
        registers=payload["registers"],
        csr_mode=csr_mode,
        m_unfold_retime=payload["m_unfold_retime"],
        m_retime_unfold=payload["m_retime_unfold"],
    )


def _compare_orders(
    g: DFG,
    factors: tuple[int, ...],
    periods: list[int | None],
    csr_mode: str,
    engine: "ExperimentEngine | None",
) -> list[OrderComparison]:
    graph_json = to_json(g, indent=None)
    params = [
        {"graph": graph_json, "factor": f, "period": p, "csr_mode": csr_mode}
        for f, p in zip(factors, periods)
    ]
    if engine is not None:
        payloads = engine.map_cached(
            "order-comparison",
            _orders_payload,
            params,
            [f"orders:{g.name}:f={f}" for f in factors],
        )
    else:
        payloads = [_orders_payload(p) for p in params]
    return [
        order_comparison_from_payload(f, csr_mode, payload, name=g.name)
        for f, payload in zip(factors, payloads)
    ]


def table3_comparison(
    factors: tuple[int, ...] = (2, 3, 4), engine: "ExperimentEngine | None" = None
) -> list[OrderComparison]:
    """Order comparison on the Figure-8 DFG at the *optimal* period per
    factor (both orders achieve the same optimum — Chao & Sha)."""
    g = get_workload("figure8")
    return _compare_orders(g, factors, [None] * len(factors), PER_ITERATION, engine)


def table4_comparison(
    factors: tuple[int, ...] = (2, 3, 4),
    iteration_period: int = 8,
    engine: "ExperimentEngine | None" = None,
) -> list[OrderComparison]:
    """Order comparison on the 4-stage lattice at a fixed iteration period
    (the paper fixes cycle period 8 per original iteration)."""
    g = get_workload("lattice")
    return _compare_orders(
        g, factors, [iteration_period * f for f in factors], PER_COPY, engine
    )


def order_comparison_cells(
    cols: list["OrderComparison | FailedCell"], paper: dict[str, tuple] | None = None
) -> tuple[list[str], list[list]]:
    """Tables 3/4's ``(headers, cell rows)``: approaches as rows, factors
    as columns — shared by every renderer."""
    headers = ["Approach"] + [f"uf={c.factor}" for c in cols]

    def cell(c: "OrderComparison | FailedCell", attr: str, render=lambda v: v):
        return c if isinstance(c, FailedCell) else render(getattr(c, attr))

    rows: list[list[object]] = [
        ["unfold-retime"] + [cell(c, "unfold_retime_size") for c in cols],
        ["retime-unfold"] + [cell(c, "retime_unfold_size") for c in cols],
        ["retime-unfold-CR"] + [cell(c, "csr_size") for c in cols],
        ["iteration period"] + [cell(c, "iteration_period", str) for c in cols],
    ]
    if paper is not None:
        for label in ("unfold-retime", "retime-unfold", "retime-unfold-CR"):
            if label in paper:
                rows.append([f"{label} (paper)"] + list(paper[label]))
        if "iteration period" in paper:
            rows.append(["iteration period (paper)"] + list(paper["iteration period"]))
    return headers, rows


def format_order_comparison(
    cols: list[OrderComparison], paper: dict[str, tuple] | None = None
) -> str:
    """Tables 3/4-style rendering: approaches as rows, factors as columns."""
    return format_table(*order_comparison_cells(cols, paper))
