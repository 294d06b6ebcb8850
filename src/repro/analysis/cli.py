"""Argument definitions shared by the command-line entry points.

``python -m repro`` and ``python -m repro.analysis`` build their parsers
from these.  The module imports nothing but :mod:`argparse`, so building
a parser (and every ``--help``) stays cheap; what a command runs is
imported when it runs.
"""

from __future__ import annotations

import argparse

#: Threshold for ``report --diff``'s op-counter gate: a baseline counter
#: that grew by more than this factor is a regression (matches the CI
#: perf-smoke budget).
DEFAULT_COUNTER_RATIO = 2.0

TABLES = ("1", "2", "3", "4")


def add_tables_argument(parser: argparse.ArgumentParser) -> None:
    """The ``N ...`` table selection shared by both CLIs.

    No ``choices``: argparse on 3.11 rejects an empty ``nargs="*"`` list
    against them, and "no tables named" must mean "all of them".
    :func:`repro.analysis.__main__.tables_main` validates the numbers
    instead.
    """
    parser.add_argument(
        "tables",
        nargs="*",
        metavar="N",
        help="tables to print: 1 2 3 4 (default: all)",
    )


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--jobs/--no-cache/--stats/--cache-dir`` flag group."""
    group = parser.add_argument_group("experiment engine")
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = inline, 0 = one per CPU)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    group.add_argument(
        "--stats",
        action="store_true",
        help="print engine metrics (cache hits, wall time, VM counts)",
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="enable tracing; write a Chrome trace-event JSON to FILE",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable metrics; write the JSON metrics export to FILE",
    )
    rgroup = parser.add_argument_group("resilience")
    rgroup.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="fault-injection plan: a JSON file path or inline JSON "
        "(default: $REPRO_FAULT_PLAN; see docs/RESILIENCE.md)",
    )
    rgroup.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts per job before it degrades to FAILED (default 3)",
    )
    rgroup.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-attempt deadline; late attempts are retried, then FAILED",
    )
    rgroup.add_argument(
        "--outcomes-out",
        default=None,
        metavar="FILE",
        help="write per-job outcome records (status, attempts, faults) as JSON",
    )
    cgroup = parser.add_argument_group("checkpointing")
    cgroup.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="record a durable run journal into DIR (fsync'd write-ahead "
        "JSONL; see docs/CHECKPOINTING.md)",
    )
    cgroup.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume an interrupted run from DIR's journal: completed jobs "
        "are rehydrated, only pending ones re-execute",
    )
    cgroup.add_argument(
        "--supervised",
        action="store_true",
        help="lease parallel work to --jobs spawned local workers: dead or "
        "hung workers are respawned and their jobs requeued",
    )
    dgroup = parser.add_argument_group("distributed execution")
    dgroup.add_argument(
        "--workers",
        choices=("local", "remote"),
        default="local",
        help="execution fabric: 'local' pools in this process, 'remote' "
        "leases units to worker processes over a work plane "
        "(see docs/SERVER.md)",
    )
    dgroup.add_argument(
        "--remote-workers",
        type=int,
        default=None,
        metavar="N",
        help="with --workers remote: worker processes to spawn on the "
        "work plane (default 2)",
    )
    dgroup.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="with --workers remote or --supervised: lease expiry before "
        "a silent worker's unit requeues (default 30)",
    )


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``report`` command's arguments (see docs/REPORT.md)."""
    parser.add_argument(
        "runs",
        nargs="*",
        metavar="RUNS-DIR",
        help="run directories (journals, --outcomes-out files, BENCH_*.json)",
    )
    parser.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="DIR",
        help="write report.md, report.tex, report.json and paper_tables.txt "
        "into DIR (default: print markdown to stdout)",
    )
    parser.add_argument(
        "--paper-tables",
        action="store_true",
        help="print only the paper-table sections, byte-identical to "
        "`python -m repro.analysis` output for the journaled run",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="regression mode: compare two run directories (or report.json "
        "files); exits 1 on material regressions",
    )
    parser.add_argument(
        "--counter-ratio",
        type=float,
        default=DEFAULT_COUNTER_RATIO,
        metavar="X",
        help="op-counter growth budget for --diff (default 2.0)",
    )
