"""Regenerate every paper table on the command line.

Usage::

    python -m repro.analysis                    # all four tables (cached)
    python -m repro.analysis 1 3                # just Tables 1 and 3
    python -m repro.analysis --jobs 4 --stats   # parallel + metrics report
    python -m repro.analysis --no-cache         # force recomputation

Tables go through the :mod:`repro.runner` engine: rows are cached on disk
(``.repro-cache`` or ``$REPRO_CACHE_DIR``) keyed on graph content,
parameters and a digest of the library sources, so a second run is served
almost entirely from cache and any source edit invalidates it
automatically.  ``--stats`` prints cache hit/miss counters, per-row wall
time and VM instruction counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .. import observability
from ..ioutil import atomic_write_text
from ..runner import resilience
from ..runner.engine import ExperimentEngine, default_engine
from ..runner.journal import JournalError, RunCheckpoint
from ..runner.resilience import FaultPlan, RetryPolicy
from .cli import TABLES, add_engine_arguments, add_tables_argument
from .experiments import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    TABLE_TITLES,
    format_order_comparison,
    format_table1,
    format_table2,
    table1_rows,
    table2_rows,
    table3_comparison,
    table4_comparison,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the paper's evaluation tables (1-4).",
    )
    add_tables_argument(parser)
    add_engine_arguments(parser)
    return parser


def validate_engine_args(args: argparse.Namespace) -> None:
    """Reject incompatible flag combinations up front, one clear line each.

    Catching these before any engine (or work plane) spins up keeps the
    failure a single ``error:`` line instead of a mid-run surprise.
    """
    workers = getattr(args, "workers", "local")
    supervised = getattr(args, "supervised", False)
    if workers == "remote" and supervised:
        raise SystemExit(
            "error: --supervised and --workers remote are mutually "
            "exclusive (pick one execution fabric)"
        )
    if workers != "remote":
        if getattr(args, "remote_workers", None) is not None:
            raise SystemExit("error: --remote-workers requires --workers remote")
        if getattr(args, "lease_timeout", None) is not None and not supervised:
            raise SystemExit(
                "error: --lease-timeout requires --workers remote or --supervised"
            )


def topology_from_args(args: argparse.Namespace) -> dict:
    """The execution-topology fingerprint a journal records (satellite of
    ``--resume`` safety: resuming under a different fabric would replay
    the journal against different failure semantics)."""
    return {
        "workers": getattr(args, "workers", "local") or "local",
        "supervised": bool(getattr(args, "supervised", False)),
    }


def _format_topology(topology: dict) -> str:
    workers = topology.get("workers", "local")
    supervised = "yes" if topology.get("supervised") else "no"
    return f"workers={workers} supervised={supervised}"


def check_topology(config: dict, args: argparse.Namespace) -> None:
    """Refuse ``--resume`` under a different topology than was journaled.

    Journals from before topology recording carry no fingerprint and
    stay resumable as before.  Raises :class:`JournalError`, which the
    CLIs turn into a one-line ``error:`` + exit 2.
    """
    recorded = config.get("topology")
    if recorded is None:
        return
    current = topology_from_args(args)
    if recorded != current:
        raise JournalError(
            "--resume topology mismatch: the journal recorded "
            f"{_format_topology(recorded)} but this command says "
            f"{_format_topology(current)} (rerun with the recorded "
            "topology)"
        )


def engine_from_args(args: argparse.Namespace) -> ExperimentEngine:
    """Build the engine an argparse namespace describes.

    Requesting ``--trace`` or ``--metrics-out`` turns observability on for
    the whole run (workers included) before any work is submitted.
    ``--fault-plan`` (or ``$REPRO_FAULT_PLAN``) activates the
    fault-injection plan process-wide, so the engine forwards it to its
    pool workers; without one every resilience hook stays a no-op.
    ``--workers remote`` and ``--supervised`` both swap the local pool
    for the lease fabric (:class:`~repro.runner.remote.RemoteFabric`);
    they differ only in the spawned worker count, ``--remote-workers``
    (default 2) against ``--jobs``.
    """
    validate_engine_args(args)
    if getattr(args, "trace", None) or getattr(args, "metrics_out", None):
        observability.enable()
    spec = getattr(args, "fault_plan", None) or os.environ.get(
        resilience.FAULT_PLAN_ENV
    )
    if spec:
        try:
            resilience.activate(FaultPlan.from_spec(spec))
        except ValueError as exc:
            print(f"error: invalid fault plan: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    retry = RetryPolicy()
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "job_timeout", None)
    if retries is not None or timeout is not None:
        retry = RetryPolicy(
            max_attempts=retries if retries is not None else retry.max_attempts,
            timeout=timeout,
        )
    remote = None
    remote_workers = getattr(args, "workers", "local") == "remote"
    if remote_workers or getattr(args, "supervised", False):
        from ..runner.remote import RemoteFabric

        if remote_workers:
            workers = getattr(args, "remote_workers", None)
            workers = 2 if workers is None else workers
        else:
            workers = args.jobs if args.jobs > 0 else os.cpu_count() or 1
        lease_timeout = getattr(args, "lease_timeout", None)
        remote = RemoteFabric(
            workers=workers,
            policy=retry,
            lease_timeout=30.0 if lease_timeout is None else lease_timeout,
        )
    return default_engine(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        retry=retry,
        remote=remote,
    )


def checkpoint_from_args(args: argparse.Namespace) -> RunCheckpoint | None:
    """The ``--journal`` / ``--resume`` checkpoint, if either was given.

    ``--resume DIR`` implies journaling into the same directory (the
    resumed run appends to the journal it replays), so the two flags are
    mutually exclusive.
    """
    journal_dir = getattr(args, "journal", None)
    resume_dir = getattr(args, "resume", None)
    if journal_dir and resume_dir:
        raise SystemExit(
            "error: --journal and --resume are mutually exclusive "
            "(--resume already appends to the journal it replays)"
        )
    if resume_dir:
        return RunCheckpoint(resume_dir, resume=True)
    if journal_dir:
        return RunCheckpoint(journal_dir)
    return None


def export_observability(args: argparse.Namespace, engine: ExperimentEngine) -> None:
    """Write the ``--trace`` / ``--metrics-out`` artifacts after a run."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if not trace_path and not metrics_path:
        return
    engine.publish_metrics()
    if trace_path:
        observability.write_chrome_trace(trace_path, observability.OBS.tracer.roots)
        print(f"wrote Chrome trace: {trace_path}", file=sys.stderr)
    if metrics_path:
        atomic_write_text(metrics_path, observability.OBS.metrics.to_json())
        print(f"wrote metrics JSON: {metrics_path}", file=sys.stderr)


def report_resilience(args: argparse.Namespace, engine: ExperimentEngine) -> int:
    """Post-run resilience reporting shared by the engine commands.

    Writes the ``--outcomes-out`` artifact, prints the failure summary for
    degraded runs, and returns the number of FAILED units (callers fold
    this into the exit code).
    """
    outcomes_path = getattr(args, "outcomes_out", None)
    if outcomes_path:
        s = engine.stats
        doc = {
            "stats": {
                "calls": s.calls,
                "computed": s.computed,
                "completed": s.completed,
                "errors": s.errors,
                "retried": s.retried,
                "timed_out": s.timed_out,
                "failed": s.failed,
                "resumed": s.resumed,
                "respawned": s.respawned,
            },
            "outcomes": [o.as_dict() for o in s.outcomes],
        }
        # Atomic (temp file + rename): an interrupt mid-report can never
        # leave a truncated, unparseable artifact behind.
        atomic_write_text(outcomes_path, json.dumps(doc, indent=2))
        print(f"wrote job outcomes JSON: {outcomes_path}", file=sys.stderr)
    summary = engine.failure_summary()
    if summary:
        print("=== Failure summary ===", file=sys.stderr)
        print(summary, file=sys.stderr)
    return engine.stats.failed + engine.stats.timed_out


def print_tables(wanted: set[str], engine: ExperimentEngine) -> None:
    # Titles come from TABLE_TITLES so this live output and the report
    # pipeline's --paper-tables rendering stay byte-identical.
    if "1" in wanted:
        print(f"=== {TABLE_TITLES['1']} ===")
        print(format_table1(table1_rows(engine=engine)))
        print()
    if "2" in wanted:
        print(f"=== {TABLE_TITLES['2']} ===")
        print(format_table2(table2_rows(engine=engine)))
        print()
    if "3" in wanted:
        print(f"=== {TABLE_TITLES['3']} ===")
        print(format_order_comparison(table3_comparison(engine=engine), PAPER_TABLE3))
        print()
    if "4" in wanted:
        print(f"=== {TABLE_TITLES['4']} ===")
        print(format_order_comparison(table4_comparison(engine=engine), PAPER_TABLE4))
        print()


def tables_main(args: argparse.Namespace) -> int:
    """The full tables flow shared by both CLI entry points.

    Checkpoint-aware: ``--journal DIR`` records every row durably;
    ``--resume DIR`` restores the recorded table selection, rehydrates
    completed rows from the journal, and recomputes only the rest.
    """
    bad = [t for t in args.tables if t not in TABLES]
    if bad:
        print(
            f"error: unknown table(s): {' '.join(bad)} "
            f"(choose from {' '.join(TABLES)})",
            file=sys.stderr,
        )
        return 2
    engine = engine_from_args(args)
    try:
        checkpoint = checkpoint_from_args(args)
        wanted = set(args.tables) or set(TABLES)
        config = {
            "tables": sorted(wanted),
            "topology": topology_from_args(args),
        }
        if checkpoint is not None:
            if checkpoint.resume:
                config = checkpoint.restore_config("tables")
                check_topology(config, args)
                wanted = set(config["tables"])
            checkpoint.attach(engine, "tables", config)
        print_tables(wanted, engine)
        if args.stats:
            print("=== Engine stats ===")
            print(engine.stats_summary())
        export_observability(args, engine)
        degraded = report_resilience(args, engine)
        if checkpoint is not None:
            checkpoint.finish(engine, "degraded" if degraded else "ok")
        return 1 if degraded else 0
    finally:
        engine.close()


def main(argv: list[str]) -> int:
    if argv and argv[0] == "report":
        # ``python -m repro.analysis report ...`` is an alias for
        # ``python -m repro report ...`` (the report pipeline lives in
        # this package; see docs/REPORT.md).
        from .report import main as report_cli

        return report_cli(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return tables_main(args)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
