"""Publication-grade report pipeline over journaled runs.

``python -m repro report <runs-dir>...`` turns the durable artifacts
every run already leaves behind — fsync'd run journals
(``--journal``), ``--outcomes-out`` records, ``BENCH_*.json``
baselines — into the system's user-facing product: numbered markdown +
LaTeX tables and a machine-readable ``report.json``.

The report has a fixed table numbering (publication style):

1–4.  The paper's Tables 1–4, rebuilt from ``tables``-run journal
      payloads and rendered *byte-identically* to the live
      ``python -m repro tables`` output (the ``--paper-tables`` mode
      prints exactly that text).
5.    Randomized code-size reduction at sweep scale — the scaled-up
      Table 1/2 analogue over every journaled random graph, with
      seeded-bootstrap 95% confidence intervals.
6.    Theorem 4.4/4.5 inequality margins (``S_{f,r} − S_{r,f}``)
      per unfolding factor, violations counted.
7.    Oracle optimality gaps (``sweep --oracle``): the per-graph gap
      table plus the gap distribution.
8.    Fault, retry and resume accounting per journal and per
      ``--outcomes-out`` document, with the conservation law
      ``completed + failed + shed == submitted`` checked.
9.    Deterministic operation-counter baselines from ``BENCH_*.json``.

Every section is built under *error isolation*: one malformed run
degrades that section to a FAILED block (named in the output, error
preserved) instead of killing the report — the same graceful
degradation contract as the engine's FAILED cells.

``--diff A B`` compares two reports (run directories or ``report.json``
files) and exits non-zero on material regressions — changed paper-table
cells, new inequality violations, a larger oracle gap, broken
accounting identities, or op-counter growth beyond ``--counter-ratio``.
This makes the report the same tool CI uses to gate performance and
correctness trajectories.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..core.codesize import PER_COPY, PER_ITERATION
from ..ioutil import atomic_write_text
from ..runner.journal import MultiRunScan, scan_run_dirs
from ..workloads.registry import BENCHMARKS
from .experiments import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    TABLE_TITLES,
    order_comparison_cells,
    order_comparison_from_payload,
    table1_cells,
    table1_row_from_payload,
    table2_cells,
    table2_row_from_payload,
)
from .frames import Frame, summarize
from .tables import (
    FailedCell,
    GAP_TABLE_HEADERS,
    format_latex_table,
    format_markdown_table,
    format_table,
    gap_table_cells,
)

__all__ = [
    "REPORT_VERSION",
    "DiffResult",
    "Report",
    "Section",
    "build_report",
    "diff_reports",
    "load_report_doc",
    "paper_tables_text",
    "render_latex",
    "render_markdown",
    "report_json",
    "report_main",
]

#: Bump on any report.json layout change; ``--diff`` refuses to compare
#: across versions (apples to apples only).
REPORT_VERSION = 1

#: Threshold for ``report --diff``'s op-counter gate: a baseline counter
#: that grew by more than this factor is a regression (matches the CI
#: perf-smoke budget).
DEFAULT_COUNTER_RATIO = 2.0

# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------


@dataclass
class Section:
    """One numbered table of the report, in all output formats at once.

    ``status`` is ``"ok"`` (has data), ``"empty"`` (no input run feeds
    this table — rendered as a one-line note) or ``"failed"`` (the
    builder raised; ``error`` carries the reason, the rest of the report
    is unaffected).
    """

    number: int
    slug: str
    title: str
    status: str = "ok"
    plain: str = ""
    markdown: str = ""
    latex: str = ""
    data: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    error: str = ""

    def as_doc(self) -> dict:
        return {
            "number": self.number,
            "slug": self.slug,
            "title": self.title,
            "status": self.status,
            "error": self.error,
            "notes": list(self.notes),
            "data": self.data,
        }


@dataclass
class Report:
    """A built report: ordered sections plus input provenance."""

    sections: list[Section]
    inputs: dict

    def section(self, slug: str) -> Section | None:
        for s in self.sections:
            if s.slug == slug:
                return s
        return None


# ----------------------------------------------------------------------
# Loading: journals -> frames
# ----------------------------------------------------------------------


def _parse_sweep_label(label: str) -> dict:
    """``rand17/orders/f=2/n=12`` -> graph/transform/factor/trip fields."""
    parts = label.split("/")
    out: dict[str, object] = {
        "graph": parts[0] if parts else label,
        "transform": parts[1] if len(parts) > 1 else None,
        "factor": None,
        "trip_count": None,
    }
    for p in parts[2:]:
        if p.startswith("f=") and p[2:].lstrip("-").isdigit():
            out["factor"] = int(p[2:])
        elif p.startswith("n=") and p[2:].lstrip("-").isdigit():
            out["trip_count"] = int(p[2:])
    name = str(out["graph"])
    out["seed"] = int(name[4:]) if name.startswith("rand") and name[4:].isdigit() else None
    return out


def _parse_tables_label(label: str) -> dict:
    """``table1:iir`` / ``orders:figure8:f=2`` -> kind/name/factor."""
    parts = label.split(":")
    out: dict[str, object] = {"kind": parts[0], "name": None, "factor": None}
    if len(parts) > 1:
        out["name"] = parts[1]
    for p in parts[2:]:
        if p.startswith("f=") and p[2:].lstrip("-").isdigit():
            out["factor"] = int(p[2:])
    return out


@dataclass
class RunData:
    """The report's in-memory form of everything scanned off disk."""

    scan: MultiRunScan
    runs: Frame  # one row per journal: name, command, finished, ...
    sweep_jobs: Frame  # one row per completed sweep unit (deduped by key)
    table_payloads: dict[str, dict]  # tables-run label -> payload (last wins)
    outcomes: list[tuple[str, dict]]
    benches: list[tuple[str, dict]]


def load_run_data(paths: list) -> RunData:
    """Scan run directories and lift every journal into frames.

    Aggregation is *content-addressed*: completed units are deduplicated
    by their engine cache key across all journals, so re-running the
    report over resumed, sharded or overlapping run directories counts
    each unit of work exactly once, and the aggregates are invariant
    under how the records were distributed across journal files.
    """
    scan = scan_run_dirs(paths)
    run_rows: list[dict] = []
    sweep_records: dict[str, dict] = {}  # key -> job row (dedup across runs)
    table_payloads: dict[str, dict] = {}
    for rd in scan.journals:
        completed = rd.scan.completed()
        submitted = rd.scan.submitted()
        end = next(
            (r["data"] for r in rd.scan.records if r["type"] == "run.end"), None
        )
        done_keys = {
            r["data"]["key"] for r in rd.scan.records if r["type"] == "job.done"
        }
        failed_keys = {
            r["data"]["key"] for r in rd.scan.records if r["type"] == "job.failed"
        }
        all_keys = set(submitted) | set(completed)
        resumed_n = sum(
            1
            for d in completed.values()
            if (d.get("outcome") or {}).get("resumed")
        )
        run_rows.append(
            {
                "name": rd.name,
                "command": rd.command,
                "finished": rd.scan.finished,
                "torn": rd.scan.torn,
                "status": (end or {}).get("status"),
                "submitted": len(all_keys),
                "completed": len(done_keys - failed_keys),
                "failed": len(failed_keys),
                "shed": len(all_keys - set(completed)),
                "resumed": resumed_n,
                "records": len(rd.scan.records),
            }
        )
        for key, data in completed.items():
            label = data.get("label", "")
            payload = data.get("payload") or {}
            outcome = data.get("outcome") or {}
            if rd.command == "tables":
                table_payloads[label] = payload
                continue
            row = {
                "key": key,
                "run": rd.name,
                "label": label,
                "ok": bool(payload.get("ok", False)),
                "status": outcome.get("status")
                if outcome.get("status") not in (None, "ok")
                else ("ok" if payload.get("ok", False) else "error"),
                "resumed": bool(outcome.get("resumed", False)),
                "payload": payload,
            }
            row.update(_parse_sweep_label(label))
            sweep_records[key] = row
    sweep_jobs = Frame.from_records(
        sorted(sweep_records.values(), key=lambda r: (str(r["label"]), str(r["key"]))),
        columns=[
            "key",
            "run",
            "label",
            "graph",
            "transform",
            "factor",
            "trip_count",
            "seed",
            "ok",
            "status",
            "resumed",
            "payload",
        ],
    )
    return RunData(
        scan=scan,
        runs=Frame.from_records(
            sorted(run_rows, key=lambda r: str(r["name"])),
            columns=[
                "name",
                "command",
                "finished",
                "torn",
                "status",
                "submitted",
                "completed",
                "failed",
                "shed",
                "resumed",
                "records",
            ],
        ),
        sweep_jobs=sweep_jobs,
        table_payloads=table_payloads,
        outcomes=scan.outcomes,
        benches=scan.benches,
    )


# ----------------------------------------------------------------------
# Cell plumbing shared by the renderers
# ----------------------------------------------------------------------


def _jsonify_cell(x: object) -> object:
    """A table cell as a JSON-stable value (diff compares these)."""
    if isinstance(x, FailedCell):
        return x.status.upper()
    if isinstance(x, float):
        return f"{x:.1f}"
    if isinstance(x, (int, str)) or x is None:
        return x
    return str(x)


def _table_section(
    number: int,
    slug: str,
    title: str,
    headers: list[str],
    rows: list[list],
    notes: list[str] | None = None,
    plain: str | None = None,
    extra_data: dict | None = None,
) -> Section:
    """Assemble one section from ``(headers, rows)`` in all formats."""
    data = {
        "headers": list(headers),
        "rows": [[_jsonify_cell(c) for c in row] for row in rows],
    }
    if extra_data:
        data.update(extra_data)
    return Section(
        number=number,
        slug=slug,
        title=title,
        status="ok",
        plain=plain if plain is not None else format_table(headers, rows),
        markdown=format_markdown_table(headers, rows),
        latex=format_latex_table(
            headers, rows, caption=title, label=f"tab:{slug}"
        ),
        data=data,
        notes=list(notes or []),
    )


def _empty_section(number: int, slug: str, title: str, why: str) -> Section:
    return Section(
        number=number,
        slug=slug,
        title=title,
        status="empty",
        notes=[why],
    )


# ----------------------------------------------------------------------
# Section builders (each wrapped in error isolation by build_report)
# ----------------------------------------------------------------------


def _build_paper_table(num: str, data: RunData) -> Section:
    number = int(num)
    slug = f"table{num}"
    title = TABLE_TITLES[num]
    payloads = data.table_payloads
    if num in ("1", "2"):
        prefix = f"table{num}:"
        names = [n for n in BENCHMARKS if prefix + n in payloads]
        if not names:
            return _empty_section(number, slug, title, "no tables-run journal provides this table")
        if num == "1":
            rows = [table1_row_from_payload(n, payloads[prefix + n]) for n in names]
            headers, cells = table1_cells(rows)
        else:
            rows = [table2_row_from_payload(n, payloads[prefix + n]) for n in names]
            headers, cells = table2_cells(rows)
        plain = format_table(headers, cells)
        return _table_section(
            number, slug, title, headers, cells, plain=plain,
            extra_data={"benchmarks": names},
        )
    # Tables 3/4: order-comparison columns keyed ``orders:<graph>:f=N``.
    # Table 3 is the Figure-8 DFG (per-iteration CSR pricing); Table 4 is
    # the 4-stage lattice at fixed iteration period (per-copy pricing).
    want_fig8 = num == "3"
    csr_mode = PER_ITERATION if want_fig8 else PER_COPY
    paper = PAPER_TABLE3 if want_fig8 else PAPER_TABLE4
    cols: list[tuple[int, object]] = []
    for label, payload in payloads.items():
        parsed = _parse_tables_label(label)
        if parsed["kind"] != "orders" or parsed["factor"] is None:
            continue
        is_fig8 = parsed["name"] == "figure8"
        if is_fig8 != want_fig8:
            continue
        cols.append(
            (
                parsed["factor"],
                order_comparison_from_payload(
                    parsed["factor"], csr_mode, payload, name=str(parsed["name"])
                ),
            )
        )
    if not cols:
        return _empty_section(number, slug, title, "no tables-run journal provides this table")
    cols.sort(key=lambda kv: kv[0])
    # Paper reference rows carry exactly three factor columns; include
    # them only when the journaled factors match the CLI default, which
    # is also what byte-identity with the live output requires.
    if [f for f, _ in cols] != [2, 3, 4]:
        paper = None
    headers, cells = order_comparison_cells([c for _, c in cols], paper)
    return _table_section(
        number, slug, title, headers, cells,
        extra_data={"factors": [f for f, _ in cols]},
    )


def _reduction_rows(jobs: Frame) -> tuple[list[str], list[list], dict]:
    """Section 5's cells: CSR reduction per transform pair at sweep scale."""
    pairs = [
        ("pipelined", "csr-pipelined", None),
        ("retime-unfold", "csr-retime-unfold", "factor"),
        ("unfold-retime", "csr-unfold-retime", "factor"),
    ]
    headers = ["Transform", "graphs", "size", "CR size", "%Red", "95% CI"]
    rows: list[list] = []
    stats: dict[str, dict] = {}
    for plain_t, csr_t, split in pairs:
        groups: list[tuple[str, Frame]] = []
        sub = jobs.filter(
            lambda r: r["transform"] in (plain_t, csr_t) and r["ok"]
        )
        if split is None:
            groups = [(plain_t, sub)]
        else:
            groups = [
                (f"{plain_t} f={key[0]}", g) for key, g in sub.group_by(split)
            ]
        for label, g in groups:
            plain_sizes: dict[str, int] = {}
            csr_sizes: dict[str, int] = {}
            for r in g.rows():
                size = r["payload"].get("code_size")
                if size is None:
                    continue
                target = plain_sizes if r["transform"] == plain_t else csr_sizes
                target.setdefault(str(r["graph"]), size)
            names = sorted(set(plain_sizes) & set(csr_sizes))
            reductions = [
                100.0 * (plain_sizes[n] - csr_sizes[n]) / plain_sizes[n]
                for n in names
                if plain_sizes[n] > 0
            ]
            if not reductions:
                continue
            s = summarize(reductions)
            stats[label] = {
                "graphs": len(names),
                "mean_size": round(
                    sum(plain_sizes[n] for n in names) / len(names), 2
                ),
                "mean_csr_size": round(
                    sum(csr_sizes[n] for n in names) / len(names), 2
                ),
                "reduction": s,
            }
            rows.append(
                [
                    label,
                    len(names),
                    stats[label]["mean_size"],
                    stats[label]["mean_csr_size"],
                    s["mean"],
                    f"[{s['ci95'][0]:.1f}, {s['ci95'][1]:.1f}]",
                ]
            )
    return headers, rows, stats


def _build_code_size(data: RunData) -> Section:
    number, slug = 5, "code-size"
    title = "Table 5: randomized code-size reduction (sweep scale, 95% CI)"
    jobs = data.sweep_jobs
    if not jobs:
        return _empty_section(number, slug, title, "no sweep journals found")
    headers, rows, stats = _reduction_rows(jobs)
    if not rows:
        return _empty_section(
            number, slug, title, "sweep journals carry no code-size payloads"
        )
    return _table_section(
        number, slug, title, headers, rows, extra_data={"stats": stats},
        notes=[
            "Mean code sizes before/after conditional-register (CR) "
            "rewriting over all journaled random graphs; the interval is "
            "a seeded bootstrap over per-graph reduction percentages."
        ],
    )


def _build_inequality(data: RunData) -> Section:
    number, slug = 6, "inequality"
    title = "Table 6: Theorem 4.4/4.5 inequality margins (S_fr - S_rf)"
    orders = data.sweep_jobs.filter(
        lambda r: r["transform"] == "orders" and r["ok"]
    )
    if not orders:
        return _empty_section(number, slug, title, "no 'orders' sweep jobs found")
    headers = ["factor", "graphs", "violations", "min", "mean", "max", "95% CI"]
    rows: list[list] = []
    per_factor: dict[str, dict] = {}
    total_violations = 0
    for (factor,), g in orders.group_by("factor"):
        margins: list[int] = []
        violations = 0
        for r in g.rows():
            p = r["payload"]
            if "size_unfold_retime" not in p or "size_retime_unfold" not in p:
                continue
            margins.append(p["size_unfold_retime"] - p["size_retime_unfold"])
            if not p.get("inequality_holds", True):
                violations += 1
        if not margins:
            continue
        total_violations += violations
        s = summarize(margins)
        per_factor[str(factor)] = {"violations": violations, **s}
        rows.append(
            [
                factor,
                s["n"],
                violations,
                s["min"],
                s["mean"],
                s["max"],
                f"[{s['ci95'][0]:.1f}, {s['ci95'][1]:.1f}]",
            ]
        )
    if not rows:
        return _empty_section(number, slug, title, "orders payloads carry no sizes")
    return _table_section(
        number, slug, title, headers, rows,
        extra_data={"per_factor": per_factor, "violations": total_violations},
        notes=[
            "The margin is S_fr - S_rf at a matched cycle period; "
            "Theorem 4.4/4.5 proves it is never negative.  "
            f"Violations observed: {total_violations}."
        ],
    )


def _build_oracle(data: RunData) -> Section:
    number, slug = 7, "oracle-gaps"
    title = "Table 7: oracle optimality gaps (sweep --oracle)"
    oracle = data.sweep_jobs.filter(lambda r: r["transform"] == "oracle")
    if not oracle:
        return _empty_section(number, slug, title, "no oracle sweep jobs found")
    gap_rows: list[dict] = []
    gaps: list[int] = []
    proven = violations = 0
    for r in oracle.sort_by("seed", "graph").rows():
        p = r["payload"]
        if r["ok"]:
            gap_rows.append(
                {
                    "seed": r["seed"] if r["seed"] is not None else "",
                    "label": r["graph"],
                    "status": "ok",
                    "period": p.get("period_optimal"),
                    "optimum_lower": p.get("optimum_lower"),
                    "proven": bool(p.get("proven")),
                    "gap": p.get("gap"),
                }
            )
            if p.get("gap") is not None:
                gaps.append(p["gap"])
            proven += bool(p.get("proven"))
            violations += 0 if p.get("bounds_ok", True) else 1
        else:
            gap_rows.append(
                {
                    "seed": r["seed"] if r["seed"] is not None else "",
                    "label": r["graph"],
                    "status": r["status"],
                }
            )
    cells = gap_table_cells(gap_rows)
    headers = list(GAP_TABLE_HEADERS)
    stats = {
        "graphs": len(gap_rows),
        "proven": proven,
        "bound_violations": violations,
        "gap": summarize(gaps) if gaps else None,
        "max_gap": max(gaps) if gaps else 0,
    }
    notes = [
        f"{proven} of {len(gap_rows)} graphs proven optimal; "
        f"max gap {stats['max_gap']}; "
        f"{violations} certified-bound violation(s)."
    ]
    return _table_section(
        number, slug, title, headers, cells,
        extra_data={"stats": stats}, notes=notes,
    )


def _build_accounting(data: RunData) -> Section:
    number, slug = 8, "accounting"
    title = "Table 8: fault, retry and resume accounting"
    rows: list[list] = []
    headers = [
        "run",
        "kind",
        "submitted",
        "completed",
        "failed",
        "shed",
        "resumed",
        "retried",
        "respawned",
        "identity",
    ]
    totals = {"submitted": 0, "completed": 0, "failed": 0, "shed": 0}
    identity_ok = True
    for r in data.runs.rows():
        ok = r["completed"] + r["failed"] + r["shed"] == r["submitted"]
        identity_ok &= ok
        for k in totals:
            totals[k] += r[k]
        rows.append(
            [
                r["name"],
                f"journal:{r['command'] or '?'}",
                r["submitted"],
                r["completed"],
                r["failed"],
                r["shed"],
                r["resumed"],
                "-",
                "-",
                "ok" if ok else "VIOLATED",
            ]
        )
    for name, doc in data.outcomes:
        s = doc.get("stats", {})
        submitted = int(s.get("calls", 0))
        failed = int(s.get("failed", 0)) + int(s.get("timed_out", 0))
        completed = int(s.get("completed", submitted - failed))
        shed = submitted - completed - failed
        ok = completed + failed + shed == submitted and shed >= 0
        identity_ok &= ok
        totals["submitted"] += submitted
        totals["completed"] += completed
        totals["failed"] += failed
        totals["shed"] += max(shed, 0)
        rows.append(
            [
                name,
                "outcomes",
                submitted,
                completed,
                failed,
                shed,
                int(s.get("resumed", 0)),
                int(s.get("retried", 0)),
                int(s.get("respawned", 0)),
                "ok" if ok else "VIOLATED",
            ]
        )
    if not rows:
        return _empty_section(number, slug, title, "no journals or outcomes files found")
    notes = [
        "Identity checked per row: completed + failed + shed == submitted "
        "('shed' counts submitted units with no completion record — "
        "in-flight work lost to a crash)."
    ]
    if not identity_ok:
        notes.append("ACCOUNTING IDENTITY VIOLATED — see rows marked VIOLATED.")
    return _table_section(
        number, slug, title, headers, rows,
        extra_data={"totals": totals, "identity_ok": identity_ok},
        notes=notes,
    )


def _build_bench(data: RunData) -> Section:
    number, slug = 9, "bench"
    title = "Table 9: operation-counter baselines (BENCH_*.json)"
    if not data.benches:
        return _empty_section(number, slug, title, "no BENCH_*.json baselines found")
    headers = ["baseline", "section", "size", "speedup", "counters"]
    rows: list[list] = []
    counters: dict[str, int] = {}
    for name, doc in data.benches:
        bench = str(doc.get("benchmark", "?"))
        results = doc.get("results", {})
        for section in sorted(results):
            entries = results[section]
            if not isinstance(entries, list):
                continue
            for entry in entries:
                if not isinstance(entry, dict):
                    continue
                size = entry.get("size", entry.get("trip_count", ""))
                ctrs = entry.get("counters") or {}
                for cname in sorted(ctrs):
                    counters[f"{bench}:{section}[{size}].{cname}"] = ctrs[cname]
                rows.append(
                    [
                        name,
                        section,
                        size,
                        entry.get("speedup", ""),
                        len(ctrs),
                    ]
                )
    return _table_section(
        number, slug, title, headers, rows,
        extra_data={"counters": counters},
        notes=[
            "Speedups are informative only; --diff gates exclusively on "
            "the deterministic operation counters."
        ],
    )


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------


def _isolated(section_fn, number: int, slug: str, title: str) -> Section:
    """Per-table error isolation: a builder that raises degrades to a
    named FAILED section instead of killing the report."""
    try:
        return section_fn()
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return Section(
            number=number,
            slug=slug,
            title=title,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )


def build_report(paths: list) -> Report:
    """Load every run under ``paths`` and build all report sections."""
    data = load_run_data(paths)
    builders = [
        (1, "table1", TABLE_TITLES["1"], lambda: _build_paper_table("1", data)),
        (2, "table2", TABLE_TITLES["2"], lambda: _build_paper_table("2", data)),
        (3, "table3", TABLE_TITLES["3"], lambda: _build_paper_table("3", data)),
        (4, "table4", TABLE_TITLES["4"], lambda: _build_paper_table("4", data)),
        (5, "code-size", "Table 5: randomized code-size reduction",
         lambda: _build_code_size(data)),
        (6, "inequality", "Table 6: Theorem 4.4/4.5 inequality margins",
         lambda: _build_inequality(data)),
        (7, "oracle-gaps", "Table 7: oracle optimality gaps",
         lambda: _build_oracle(data)),
        (8, "accounting", "Table 8: fault, retry and resume accounting",
         lambda: _build_accounting(data)),
        (9, "bench", "Table 9: operation-counter baselines",
         lambda: _build_bench(data)),
    ]
    sections = [_isolated(fn, n, slug, title) for n, slug, title, fn in builders]
    inputs = {
        "journals": [j.name for j in data.scan.journals],
        "outcomes": [name for name, _ in data.scan.outcomes],
        "benches": [name for name, _ in data.scan.benches],
        "skipped": [
            {"name": s.name, "reason": s.reason} for s in data.scan.skipped
        ],
    }
    return Report(sections=sections, inputs=inputs)


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

_TITLE = "Code Size Reduction for Software-Pipelined Loops — run report"


def render_markdown(report: Report) -> str:
    """The full numbered markdown report."""
    lines = [f"# {_TITLE}", ""]
    ins = report.inputs
    lines.append(
        f"Inputs: {len(ins['journals'])} journal(s), "
        f"{len(ins['outcomes'])} outcomes file(s), "
        f"{len(ins['benches'])} benchmark baseline(s), "
        f"{len(ins['skipped'])} skipped."
    )
    lines.append("")
    if ins["skipped"]:
        lines.append("Skipped inputs:")
        lines.extend(f"- `{s['name']}`: {s['reason']}" for s in ins["skipped"])
        lines.append("")
    for s in report.sections:
        lines.append(f"## {s.title}")
        lines.append("")
        if s.status == "failed":
            lines.append(f"**FAILED**: {s.error}")
            lines.append("")
            continue
        if s.status == "empty":
            lines.extend(f"_{note}_" for note in s.notes)
            lines.append("")
            continue
        lines.append(s.markdown)
        lines.append("")
        for note in s.notes:
            lines.append(f"_{note}_")
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def render_latex(report: Report) -> str:
    """Every table as a LaTeX fragment (one ``table`` env per section)."""
    lines = [f"% {_TITLE}", f"% report.json version {REPORT_VERSION}", ""]
    for s in report.sections:
        lines.append(f"% --- {s.title} ---")
        if s.status == "failed":
            lines.append(f"% FAILED: {s.error}")
            lines.append("")
            continue
        if s.status == "empty":
            lines.extend(f"% {note}" for note in s.notes)
            lines.append("")
            continue
        lines.append(s.latex)
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def paper_tables_text(report: Report) -> str:
    """The paper-table sections, byte-identical to the live CLI.

    Concatenates ``=== <title> ===`` blocks exactly as
    ``python -m repro tables`` prints them for the tables the scanned
    journals provide, so the report can stand in for the CLI in
    regression pins.
    """
    out = []
    for num in ("1", "2", "3", "4"):
        s = report.section(f"table{num}")
        if s is None or s.status != "ok":
            continue
        out.append(f"=== {TABLE_TITLES[num]} ===\n{s.plain}\n\n")
    return "".join(out)


def report_json(report: Report) -> str:
    doc = {
        "version": REPORT_VERSION,
        "title": _TITLE,
        "inputs": report.inputs,
        "sections": [s.as_doc() for s in report.sections],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Diff mode: the regression gate
# ----------------------------------------------------------------------


@dataclass
class DiffResult:
    """Outcome of comparing two reports: regressions gate, notes inform."""

    regressions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        if self.clean and not self.notes:
            lines = ["report diff: CLEAN (no differences)"]
        elif self.clean:
            lines = [f"report diff: CLEAN ({len(self.notes)} benign difference(s))"]
        else:
            lines = [f"report diff: {len(self.regressions)} REGRESSION(S)"]
        lines.extend(f"  [regression] {r}" for r in self.regressions)
        lines.extend(f"  [note] {n}" for n in self.notes)
        return "\n".join(lines)


def _sections_by_slug(doc: dict) -> dict[str, dict]:
    return {s["slug"]: s for s in doc.get("sections", [])}


def _diff_rows(name: str, a: dict, b: dict, out: DiffResult) -> None:
    """Cell-exact comparison for the deterministic paper tables."""
    a_rows = {tuple(r[:1]): r for r in a.get("rows", [])}
    b_rows = {tuple(r[:1]): r for r in b.get("rows", [])}
    for key, row in a_rows.items():
        other = b_rows.get(key)
        if other is None:
            out.regressions.append(f"{name}: row {key[0]!r} missing from B")
        elif other != row:
            out.regressions.append(
                f"{name}: row {key[0]!r} changed: {row[1:]} -> {other[1:]}"
            )
    for key in b_rows:
        if key not in a_rows:
            out.notes.append(f"{name}: new row {key[0]!r} in B")


def _num(x: object, default: float = 0.0) -> float:
    return float(x) if isinstance(x, (int, float)) else default


def _diff_section_pair(slug: str, a: dict, b: dict, out: DiffResult, ratio: float) -> None:
    name = a.get("title") or slug
    da, db = a.get("data", {}), b.get("data", {})
    if slug in ("table1", "table2", "table3", "table4"):
        _diff_rows(name, da, db, out)
        return
    if slug == "code-size":
        for label, sa in da.get("stats", {}).items():
            sb = db.get("stats", {}).get(label)
            if sb is None:
                out.regressions.append(f"{name}: series {label!r} missing from B")
                continue
            ra = _num(sa.get("reduction", {}).get("mean"))
            rb = _num(sb.get("reduction", {}).get("mean"))
            if rb < ra - 1e-9:
                out.regressions.append(
                    f"{name}: mean reduction for {label!r} fell {ra} -> {rb}"
                )
            elif rb > ra + 1e-9:
                out.notes.append(
                    f"{name}: mean reduction for {label!r} improved {ra} -> {rb}"
                )
        return
    if slug == "inequality":
        va, vb = _num(da.get("violations")), _num(db.get("violations"))
        if vb > va:
            out.regressions.append(
                f"{name}: inequality violations grew {int(va)} -> {int(vb)}"
            )
        for factor, sa in da.get("per_factor", {}).items():
            sb = db.get("per_factor", {}).get(factor)
            if sb is not None and _num(sb.get("min")) < min(0.0, _num(sa.get("min"))):
                out.regressions.append(
                    f"{name}: f={factor} min margin fell below zero "
                    f"({sa.get('min')} -> {sb.get('min')})"
                )
        return
    if slug == "oracle-gaps":
        sa, sb = da.get("stats", {}), db.get("stats", {})
        if _num(sb.get("max_gap")) > _num(sa.get("max_gap")):
            out.regressions.append(
                f"{name}: max oracle gap grew "
                f"{sa.get('max_gap')} -> {sb.get('max_gap')}"
            )
        if _num(sb.get("bound_violations")) > _num(sa.get("bound_violations")):
            out.regressions.append(
                f"{name}: certified-bound violations grew "
                f"{sa.get('bound_violations')} -> {sb.get('bound_violations')}"
            )
        ga, gb = _num(sa.get("graphs"), 1.0), _num(sb.get("graphs"), 1.0)
        if ga and gb and _num(sb.get("proven")) / gb < _num(sa.get("proven")) / ga - 1e-9:
            out.regressions.append(
                f"{name}: proven-optimal fraction fell "
                f"{sa.get('proven')}/{int(ga)} -> {sb.get('proven')}/{int(gb)}"
            )
        return
    if slug == "accounting":
        if da.get("identity_ok", True) and not db.get("identity_ok", True):
            out.regressions.append(
                f"{name}: completed+failed+shed==submitted identity VIOLATED in B"
            )
        ta = da.get("totals", {})
        tb = db.get("totals", {})
        for kind in ("failed", "shed"):
            if _num(tb.get(kind)) > _num(ta.get(kind)):
                out.regressions.append(
                    f"{name}: total {kind} grew "
                    f"{int(_num(ta.get(kind)))} -> {int(_num(tb.get(kind)))}"
                )
        return
    if slug == "bench":
        ca = da.get("counters", {})
        cb = db.get("counters", {})
        for key in sorted(set(ca) & set(cb)):
            va, vb = _num(ca[key]), _num(cb[key])
            if va > 0 and vb > va * ratio:
                out.regressions.append(
                    f"{name}: counter {key} grew {vb / va:.2f}x "
                    f"({int(va)} -> {int(vb)}), budget {ratio}x"
                )
        for key in sorted(set(ca) - set(cb)):
            out.notes.append(f"{name}: counter {key} absent from B")
        return


def diff_reports(
    a_doc: dict, b_doc: dict, counter_ratio: float = DEFAULT_COUNTER_RATIO
) -> DiffResult:
    """Compare two ``report.json`` documents; regressions gate CI.

    Only deterministic quantities are compared — table cells, violation
    counts, gap statistics, accounting identities, op counters — never
    wall times, so two honest runs of the same configuration always diff
    clean, and ``--diff A A`` is empty by construction.
    """
    out = DiffResult()
    if a_doc.get("version") != b_doc.get("version"):
        out.regressions.append(
            f"report version mismatch: {a_doc.get('version')} vs "
            f"{b_doc.get('version')} (regenerate both sides)"
        )
        return out
    a_secs, b_secs = _sections_by_slug(a_doc), _sections_by_slug(b_doc)
    for slug, a in a_secs.items():
        b = b_secs.get(slug)
        name = a.get("title") or slug
        if b is None:
            if a.get("status") == "ok":
                out.regressions.append(f"{name}: section missing from B")
            continue
        status_a, status_b = a.get("status"), b.get("status")
        if status_a == "ok" and status_b == "failed":
            out.regressions.append(
                f"{name}: section FAILED in B ({b.get('error', '')})"
            )
            continue
        if status_a == "ok" and status_b == "empty":
            out.regressions.append(f"{name}: section lost its data in B")
            continue
        if status_a != "ok":
            if status_b == "ok":
                out.notes.append(f"{name}: section gained data in B")
            continue
        _diff_section_pair(slug, a, b, out, counter_ratio)
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def load_report_doc(path: Path | str) -> dict:
    """A ``report.json`` document for ``--diff``: either a prebuilt file
    or a runs directory to build one from on the fly."""
    path = Path(path)
    if path.is_file():
        return json.loads(path.read_text())
    return json.loads(report_json(build_report([path])))


def report_main(args: argparse.Namespace) -> int:
    """``python -m repro report``; the parser lives in :mod:`repro.__main__`."""
    if args.diff is not None:
        if args.runs:
            print("error: --diff takes exactly two paths and no RUNS-DIR",
                  file=sys.stderr)
            return 2
        a = load_report_doc(args.diff[0])
        b = load_report_doc(args.diff[1])
        ratio = args.counter_ratio or DEFAULT_COUNTER_RATIO
        result = diff_reports(a, b, counter_ratio=ratio)
        print(result.summary())
        return 0 if result.clean else 1
    if not args.runs:
        print("error: at least one RUNS-DIR is required (or --diff A B)",
              file=sys.stderr)
        return 2
    report = build_report(args.runs)
    if all(s.status == "empty" for s in report.sections):
        print(
            "error: no usable inputs found "
            f"(skipped {len(report.inputs['skipped'])} file(s))",
            file=sys.stderr,
        )
        for s in report.inputs["skipped"]:
            print(f"  skipped {s['name']}: {s['reason']}", file=sys.stderr)
        return 2
    if args.paper_tables:
        sys.stdout.write(paper_tables_text(report))
        return 0
    if args.out:
        out = Path(args.out)
        artifacts = {
            "report.md": render_markdown(report),
            "report.tex": render_latex(report),
            "report.json": report_json(report),
            "paper_tables.txt": paper_tables_text(report),
        }
        for name, text in artifacts.items():
            atomic_write_text(out / name, text)
        print(
            f"wrote {', '.join(artifacts)} to {out}/",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(render_markdown(report))
    failed = [s for s in report.sections if s.status == "failed"]
    for s in failed:
        print(f"section FAILED: {s.title}: {s.error}", file=sys.stderr)
    return 0
