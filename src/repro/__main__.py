"""Command-line interface.

Examples::

    python -m repro list                         # available workloads
    python -m repro info iir                     # graph + retiming stats
    python -m repro csr figure2                  # paper-style CSR listing
    python -m repro csr figure2 --unfold 3       # retimed-unfolded CSR
    python -m repro run figure4 -n 12            # execute + verify on the VM
    python -m repro parse my_loop.txt --csr      # front-end to CSR listing
    python -m repro dot elliptic > elliptic.dot  # Graphviz export
    python -m repro tables 1 2                   # regenerate paper tables
    python -m repro tables --jobs 4 --stats      # parallel cached tables
    python -m repro sweep --graphs 200 --jobs 0  # differential test sweep
    python -m repro sweep --oracle --graphs 15   # + exact-optimality oracle
    python -m repro sweep --workers remote --jobs 2
                                                 # on the lease fabric
    python -m repro profile --workload figure8 --trace out.json
                                                 # per-stage breakdown + trace

This is the only command-line module: ``python -m repro.analysis`` is an
alias of ``python -m repro tables`` (and of ``report``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# Each command imports what it runs, so building the parser (and every
# `--help`) loads neither the server, the remote fabric nor numpy.  The
# start-up budget is pinned by tests/test_startup.py.

TABLES = ("1", "2", "3", "4")


def _bounded(kind, low: int, strict: bool = False, high: int | None = None):
    """An argparse ``type=`` that parses ``kind`` and requires a finite
    value ``>= low`` (``> low`` if ``strict``) and ``<= high``, so an
    out-of-range flag ends in argparse's one ``error:`` line, not a
    traceback or a run that silently misbehaves."""

    def parse(text: str):
        value = kind(text)
        if (
            not math.isfinite(value)
            or value < low
            or (strict and value == low)
            or (high is not None and value > high)
        ):
            bound = f"{'>' if strict else '>='} {low}"
            if high is not None:
                bound += f" and <= {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return parse


_count = _bounded(int, 0)
_positive_int = _bounded(int, 1)
_positive_float = _bounded(float, 0, strict=True)


def _cmd_list(_args) -> int:
    from .workloads import WORKLOADS, get_workload

    for name in sorted(WORKLOADS):
        g = get_workload(name)
        print(f"{name:10s} {g.num_nodes:3d} nodes, {g.num_edges:3d} edges")
    return 0


def _cmd_info(args) -> int:
    from .core import size_csr_pipelined, size_pipelined
    from .graph import critical_cycle, cycle_period, cycle_stats, iteration_bound
    from .retiming import minimize_cycle_period
    from .workloads import get_workload

    g = get_workload(args.workload)
    period, r = minimize_cycle_period(g)
    print(f"workload      : {g.name}")
    print(f"nodes / edges : {g.num_nodes} / {g.num_edges}")
    print(f"cycle period  : {cycle_period(g)} -> {period} (retimed)")
    print(f"iteration bnd : {iteration_bound(g)}")
    witness = critical_cycle(g)
    if witness:
        t, d = cycle_stats(g, witness)
        print(f"critical cycle: {' -> '.join(witness)} (T={t}, D={d})")
    print(f"retiming      : {r.as_dict()}")
    print(f"M_r / |N_r|   : {r.max_value} / {r.registers_needed()}")
    print(f"code size     : {g.num_nodes} -> {size_pipelined(g, r)} (pipelined) "
          f"-> {size_csr_pipelined(g, r)} (CSR)")
    return 0


def _cmd_csr(args) -> int:
    from .codegen import format_program
    from .core import csr_pipelined_loop, csr_retimed_unfolded_loop
    from .retiming import minimize_cycle_period
    from .workloads import get_workload

    g = get_workload(args.workload)
    _, r = minimize_cycle_period(g)
    if args.unfold > 1:
        program = csr_retimed_unfolded_loop(g, r, args.unfold)
    else:
        program = csr_pipelined_loop(g, r)
    print(format_program(program))
    return 0


def _cmd_run(args) -> int:
    from .core import assert_equivalent, csr_pipelined_loop
    from .retiming import minimize_cycle_period
    from .workloads import get_workload

    g = get_workload(args.workload)
    _, r = minimize_cycle_period(g)
    program = csr_pipelined_loop(g, r)
    result = assert_equivalent(g, program, args.n)
    print(f"{program.name}: n={args.n}, {result.executed} computes executed, "
          f"{result.disabled} disabled — equivalent to the original loop")
    return 0


def _cmd_compile(args) -> int:
    from .codegen import format_program
    from .compiler import compile_loop
    from .schedule import ResourceModel
    from .workloads import get_workload

    g = get_workload(args.workload)
    resources = None
    if args.alu or args.mul:
        units = {}
        if args.alu:
            units["alu"] = args.alu
        if args.mul:
            units["mul"] = args.mul
        resources = ResourceModel(units=units)
    result = compile_loop(
        g,
        resources=resources,
        max_unfold=args.max_unfold,
        code_budget=args.budget,
        max_registers=args.registers,
    )
    print(f"factor            : {result.factor}")
    print(f"iteration period  : {result.iteration_period}")
    print(f"code size         : {result.code_size}")
    print(f"registers         : {result.registers}")
    print(f"verified at n     : {result.verified_n}")
    print()
    print(format_program(result.program))
    return 0


def _cmd_parse(args) -> int:
    from .codegen import format_program, original_loop
    from .core import csr_pipelined_loop
    from .frontend import parse_loop
    from .graph.serialize import to_json
    from .retiming import minimize_cycle_period

    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    g = parse_loop(source, name=args.name)
    if args.csr:
        _, r = minimize_cycle_period(g)
        print(format_program(csr_pipelined_loop(g, r)))
    elif args.json:
        print(to_json(g))
    else:
        print(format_program(original_loop(g)))
    return 0


def _cmd_cgen(args) -> int:
    from .codegen import emit_c, original_loop
    from .core import csr_pipelined_loop
    from .retiming import minimize_cycle_period
    from .workloads import get_workload

    g = get_workload(args.workload)
    if args.csr:
        _, r = minimize_cycle_period(g)
        program = csr_pipelined_loop(g, r)
    else:
        program = original_loop(g)
    print(emit_c(program, g))
    return 0


def _cmd_dot(args) -> int:
    from .graph.serialize import to_dot
    from .workloads import get_workload

    print(to_dot(get_workload(args.workload)))
    return 0


def _cmd_json(args) -> int:
    from .graph.serialize import to_json
    from .workloads import get_workload

    print(to_json(get_workload(args.workload)))
    return 0


# -- the engine commands (tables, sweep) ------------------------------


class UsageError(SystemExit):
    """A bad flag combination: :func:`main` prints ``error: <message>``
    and the process exits 2, like an argparse error."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.code = 2


def validate_engine_args(args: argparse.Namespace) -> None:
    """Reject conflicting engine flags before any engine spins up: one
    ``error:`` line instead of a mid-run surprise.  ``--resume DIR``
    already appends to the journal it replays, so it excludes
    ``--journal``."""
    if args.lease_timeout is not None and args.workers != "remote":
        raise UsageError("--lease-timeout requires --workers remote")
    if args.journal and args.resume:
        raise UsageError(
            "--journal and --resume are mutually exclusive "
            "(--resume already appends to the journal it replays)"
        )


def topology_from_args(args: argparse.Namespace) -> dict:
    """The execution-topology fingerprint a journal records: resuming
    under a different fabric would replay the journal against different
    failure semantics."""
    return {"workers": args.workers}


def check_topology(config: dict, args: argparse.Namespace) -> None:
    """Refuse ``--resume`` under a different topology than was journaled.

    Journals from before topology recording carry no fingerprint and
    stay resumable.  Older journals record ``{"workers": ...,
    "supervised": ...}``: a supervised run was the lease fabric, so it
    resumes under ``--workers remote``.  Raises :class:`JournalError`,
    which :func:`main` turns into one ``error:`` line and exit 2.
    """
    recorded = config.get("topology")
    if recorded is None:
        return
    from .runner.journal import JournalError

    workers = "remote" if recorded.get("supervised") else recorded["workers"]
    if workers != args.workers:
        raise JournalError(
            "--resume topology mismatch: the journal recorded "
            f"workers={workers} but this command says workers={args.workers} "
            "(rerun with the recorded topology)"
        )


def engine_from_args(args: argparse.Namespace):
    """Build the :class:`~repro.runner.engine.ExperimentEngine` the
    engine flags describe.

    ``--metrics-out`` turns metrics on for the whole run (workers
    included) before any work is submitted; ``--trace`` turns on spans
    as well.  ``--fault-plan``
    (or ``$REPRO_FAULT_PLAN``) activates the fault-injection plan
    process-wide, so the engine forwards it to its workers.  ``--workers
    remote`` swaps the local pool for the lease fabric
    (:class:`~repro.runner.remote.RemoteFabric`) with the engine's
    resolved ``--jobs`` spawned workers (0 = one per CPU).
    """
    from . import observability
    from .runner import resilience
    from .runner.engine import default_engine

    validate_engine_args(args)
    if args.trace or args.metrics_out:
        observability.enable(trace=bool(args.trace))
    spec = args.fault_plan or os.environ.get(resilience.FAULT_PLAN_ENV)
    if spec:
        try:
            resilience.activate(resilience.FaultPlan.from_spec(spec))
        except ValueError as exc:
            raise UsageError(f"invalid fault plan: {exc}") from None
    retry = resilience.RetryPolicy(
        max_attempts=args.retries or resilience.RetryPolicy.max_attempts,
        timeout=args.job_timeout,
    )
    engine = default_engine(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        retry=retry,
    )
    if args.workers == "remote":
        from .runner.remote import RemoteFabric

        engine.remote = RemoteFabric(
            workers=engine.jobs,
            policy=retry,
            lease_timeout=args.lease_timeout or 30.0,
        )
    return engine


def checkpoint_from_args(args: argparse.Namespace):
    """The ``--journal`` / ``--resume`` checkpoint, if either was given.

    ``--resume DIR`` implies journaling into the same directory (the
    resumed run appends to the journal it replays).  The journal module
    loads only when one of the flags asks for it.
    """
    if not (args.journal or args.resume):
        return None
    from .runner.journal import RunCheckpoint

    if args.resume:
        return RunCheckpoint(args.resume, resume=True)
    return RunCheckpoint(args.journal)


def export_observability(args: argparse.Namespace, engine) -> None:
    """Write the ``--trace`` / ``--metrics-out`` artifacts after a run."""
    if not args.trace and not args.metrics_out:
        return
    from . import observability
    from .ioutil import atomic_write_text

    engine.publish_metrics()
    if args.trace:
        observability.write_chrome_trace(args.trace, observability.OBS.tracer.roots)
        print(f"wrote Chrome trace: {args.trace}", file=sys.stderr)
    if args.metrics_out:
        atomic_write_text(args.metrics_out, observability.OBS.metrics.to_json())
        print(f"wrote metrics JSON: {args.metrics_out}", file=sys.stderr)


def report_resilience(args: argparse.Namespace, engine) -> int:
    """Write the ``--outcomes-out`` artifact, print the failure summary
    of a degraded run, and return the number of FAILED or timed-out
    units."""
    if args.outcomes_out:
        import json

        from .ioutil import atomic_write_text

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
        atomic_write_text(args.outcomes_out, json.dumps(doc, indent=2))
        print(f"wrote job outcomes JSON: {args.outcomes_out}", file=sys.stderr)
    summary = engine.failure_summary()
    if summary:
        print("=== Failure summary ===", file=sys.stderr)
        print(summary, file=sys.stderr)
    return engine.stats.failed + engine.stats.timed_out


def _run_engine_command(args: argparse.Namespace, command: str, config: dict, body) -> int:
    """The flow ``tables`` and ``sweep`` share around their ``body``.

    Builds the engine.  With ``--journal`` it records ``config`` and the
    topology fingerprint; with ``--resume`` it restores them instead and
    checks the topology.  Then it runs ``body(engine, config)`` (true
    when the command's own checks passed), prints ``--stats``, writes
    the observability and outcome artifacts and finishes the journal.
    Exit 0 only when ``body`` passed and no unit failed.
    """
    engine = engine_from_args(args)
    try:
        checkpoint = checkpoint_from_args(args)
        config = {**config, "topology": topology_from_args(args)}
        if checkpoint is not None:
            if checkpoint.resume:
                config = checkpoint.restore_config(command)
                check_topology(config, args)
            checkpoint.attach(engine, command, config)
        ok = body(engine, config)
        if args.stats:
            print("=== Engine stats ===")
            print(engine.stats_summary())
        export_observability(args, engine)
        ok = not report_resilience(args, engine) and ok
        if checkpoint is not None:
            checkpoint.finish(engine, "ok" if ok else "degraded")
        return 0 if ok else 1
    finally:
        engine.close()


def _print_tables(engine, config: dict) -> bool:
    """The body of ``tables``: print the selected tables.

    Titles come from ``TABLE_TITLES`` so this live output and the report
    pipeline's ``--paper-tables`` rendering stay byte-identical.
    """
    from .analysis.experiments import (
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

    wanted = set(config["tables"])
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
    return True


def _cmd_tables(args) -> int:
    """Regenerate the paper's tables through the experiment engine.

    Rows are cached on disk (``.repro-cache`` or ``$REPRO_CACHE_DIR``),
    keyed on graph content, parameters and a digest of the library
    sources, so a second run is served from the cache.  Checkpoint-aware:
    ``--resume DIR`` restores the recorded table selection and recomputes
    only the rows the journal lacks.
    """
    bad = [t for t in args.tables if t not in TABLES]
    if bad:
        print(
            f"error: unknown table(s): {' '.join(bad)} "
            f"(choose from {' '.join(TABLES)})",
            file=sys.stderr,
        )
        return 2
    config = {"tables": sorted(set(args.tables) or set(TABLES))}
    return _run_engine_command(args, "tables", config, _print_tables)


def _cmd_report(args) -> int:
    from .analysis.report import report_main

    return report_main(args)


def _cmd_sweep(args) -> int:
    """Randomized differential sweep through the experiment engine.

    Checkpoint-aware: ``--journal DIR`` makes every job's completion a
    durable write-ahead record; ``--resume DIR`` restores the recorded
    sweep parameters, rehydrates completed jobs from the journal, and
    re-executes only the pending ones — producing output bit-identical
    to an uninterrupted run.
    """
    from .runner.difftest import check_sweep_params, differential_sweep

    try:
        check_sweep_params(args.graphs, args.factors, args.max_nodes, args.oracle_timeout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def body(engine, config: dict) -> bool:
        # `.get()` defaults keep journals from pre-oracle runs resumable.
        report = differential_sweep(
            num_graphs=config["graphs"],
            seed=config["seed"],
            factors=tuple(config["factors"]),
            max_nodes=config["max_nodes"],
            engine=engine,
            oracle=config.get("oracle", False),
            oracle_timeout=config.get("oracle_timeout"),
        )
        print(report.summary())
        if report.oracle_records:
            print()
            print("=== Oracle optimality gaps ===")
            print(report.gap_table())
        if args.gap_table_out:
            from .ioutil import atomic_write_text

            atomic_write_text(args.gap_table_out, report.gap_table() + "\n")
            print(f"wrote gap table: {args.gap_table_out}", file=sys.stderr)
        return report.ok

    config = {
        "graphs": args.graphs,
        "seed": args.seed,
        "factors": list(args.factors),
        "max_nodes": args.max_nodes,
        "oracle": args.oracle,
        "oracle_timeout": args.oracle_timeout,
    }
    return _run_engine_command(args, "sweep", config, body)


def _cmd_serve(args) -> int:
    """Run the retiming request server until SIGTERM/SIGINT, then drain."""
    from .server import ServerConfig, serve_main

    return serve_main(
        ServerConfig(
            host=args.host,
            port=args.port,
            socket=args.socket,
            workers=args.workers,
            max_inflight=args.max_inflight,
            batch_max=args.batch_max,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            fault_plan=args.fault_plan,
            distributed=args.distributed,
            remote_workers=args.remote_workers,
            lease_timeout=args.lease_timeout,
        )
    )


def _cmd_worker(args) -> int:
    """Join a coordinator's work plane as a remote worker."""
    from .server.worker import worker_main

    return worker_main(args)


def _cmd_profile(args) -> int:
    """Per-stage time breakdown of the pipeline on one workload."""
    from . import observability
    from .core import (
        assert_equivalent,
        csr_pipelined_loop,
        csr_retimed_unfolded_loop,
    )
    from .ioutil import atomic_write_text
    from .machine.vm import run_program
    from .retiming import minimize_cycle_period
    from .workloads import get_workload

    observability.enable()
    g = get_workload(args.workload)
    with observability.span(
        "profile", workload=args.workload, n=args.n, unfold=args.unfold
    ):
        with observability.span("stage.retiming"):
            period, r = minimize_cycle_period(g)
        with observability.span("stage.csr_rewrite"):
            if args.unfold > 1:
                program = csr_retimed_unfolded_loop(g, r, args.unfold)
            else:
                program = csr_pipelined_loop(g, r)
        with observability.span("stage.vm_execute"):
            if args.no_verify:
                result = run_program(program, args.n)
            else:
                result = assert_equivalent(g, program, args.n)

    roots = observability.OBS.tracer.roots
    print(
        f"profile: {g.name} — period {period}, code size {program.code_size}, "
        f"n={args.n}, {result.executed} executed / {result.disabled} disabled"
    )
    print()
    print(observability.format_breakdown(roots))
    counters = observability.OBS.metrics.as_dict()["counters"]
    if counters:
        print()
        print("counters:")
        for name, value in counters.items():
            print(f"  {name} = {value}")
    if args.trace:
        observability.write_chrome_trace(args.trace, roots)
        print()
        print(
            f"wrote Chrome trace: {args.trace} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
    if args.metrics_out:
        atomic_write_text(args.metrics_out, observability.OBS.metrics.to_json())
        print(f"wrote metrics JSON: {args.metrics_out}")
    if args.prometheus_out:
        atomic_write_text(
            args.prometheus_out, observability.OBS.metrics.to_prometheus()
        )
        print(f"wrote Prometheus metrics: {args.prometheus_out}")
    return 0


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine flags ``tables`` and ``sweep`` share."""
    group = parser.add_argument_group("experiment engine")
    group.add_argument(
        "--jobs",
        type=_count,
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
        type=_positive_int,
        default=None,
        metavar="N",
        help="max attempts per job before it degrades to FAILED (default 3)",
    )
    rgroup.add_argument(
        "--job-timeout",
        type=_positive_float,
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
    dgroup = parser.add_argument_group("execution fabric")
    dgroup.add_argument(
        "--workers",
        choices=("local", "remote"),
        default="local",
        help="'local' runs --jobs pool processes; 'remote' leases units to "
        "--jobs spawned workers over a work plane, respawning dead or hung "
        "ones (see docs/SERVER.md)",
    )
    dgroup.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=None,
        metavar="SEC",
        help="with --workers remote: lease expiry before a silent "
        "worker's unit requeues (default 30)",
    )


def _add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """CLI flags for the ``worker`` subcommand (see
    :func:`repro.server.worker.worker_main`)."""
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator's work-plane address",
    )
    parser.add_argument(
        "--id",
        default=f"worker-{os.getpid()}",
        help="worker identity in leases and journals (default: worker-<pid>)",
    )
    parser.add_argument(
        "--max-units",
        type=_count,
        default=0,
        metavar="N",
        help="exit after N units (0 = run until the coordinator closes)",
    )
    parser.add_argument(
        "--poll-max",
        type=_positive_float,
        default=1.0,
        metavar="SEC",
        help="max sleep between idle lease polls",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the coordinator's shared cache spec (separate hosts)",
    )
    parser.add_argument(
        "--retry-max",
        type=_positive_int,
        default=4,
        metavar="N",
        help="client retry attempts per request",
    )
    parser.add_argument(
        "--retry-backoff",
        type=_bounded(float, 0),
        default=0.05,
        metavar="SEC",
        help="client retry backoff base",
    )
    parser.add_argument(
        "--request-timeout",
        type=_positive_float,
        default=30.0,
        metavar="SEC",
        help="per-request transport timeout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Code-size reduction for software-pipelined DSP loops "
        "(Zhuge et al., 2002 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(fn=_cmd_list)

    p = sub.add_parser("info", help="graph and retiming statistics")
    p.add_argument("workload")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("csr", help="print the conditional-register program")
    p.add_argument("workload")
    p.add_argument("--unfold", type=int, default=1, metavar="F")
    p.set_defaults(fn=_cmd_csr)

    p = sub.add_parser("run", help="execute the CSR program and verify it")
    p.add_argument("workload")
    p.add_argument("-n", type=int, default=20, help="trip count (default 20)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("compile", help="auto-compile: factors, budgets, verify")
    p.add_argument("workload")
    p.add_argument("--max-unfold", type=int, default=4)
    p.add_argument("--budget", type=int, default=None, help="code-size budget")
    p.add_argument("--registers", type=int, default=None, help="register budget")
    p.add_argument("--alu", type=int, default=0, help="ALU count (0 = unlimited)")
    p.add_argument("--mul", type=int, default=0, help="multiplier count")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("parse", help="parse loop source (file or '-')")
    p.add_argument("file")
    p.add_argument("--name", default="loop")
    p.add_argument("--csr", action="store_true", help="retime + CSR the result")
    p.add_argument("--json", action="store_true", help="emit DFG JSON")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("cgen", help="emit standalone C for a workload's loop")
    p.add_argument("workload")
    p.add_argument("--csr", action="store_true", help="emit the CSR program")
    p.set_defaults(fn=_cmd_cgen)

    p = sub.add_parser("dot", help="Graphviz export of a workload")
    p.add_argument("workload")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("json", help="JSON export of a workload")
    p.add_argument("workload")
    p.set_defaults(fn=_cmd_json)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    # No `choices`: argparse on 3.11 rejects an empty `nargs="*"` list
    # against them, and no tables named means all of them.
    p.add_argument(
        "tables", nargs="*", metavar="N",
        help="tables to print: 1 2 3 4 (default: all)",
    )
    _add_engine_arguments(p)
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser(
        "report",
        help="aggregate journaled runs into publication tables (markdown "
        "+ LaTeX + report.json; --diff gates regressions; see "
        "docs/REPORT.md)",
    )
    p.add_argument(
        "runs", nargs="*", metavar="RUNS-DIR",
        help="run directories (journals, --outcomes-out files, BENCH_*.json)",
    )
    p.add_argument(
        "-o", "--out", default=None, metavar="DIR",
        help="write report.md, report.tex, report.json and paper_tables.txt "
        "into DIR (default: print markdown to stdout)",
    )
    p.add_argument(
        "--paper-tables", action="store_true",
        help="print only the paper-table sections, byte-identical to "
        "`python -m repro tables` output for the journaled run",
    )
    p.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), default=None,
        help="regression mode: compare two run directories (or report.json "
        "files); exits 1 on material regressions",
    )
    p.add_argument(
        "--counter-ratio", type=_positive_float, default=None, metavar="X",
        help="op-counter growth budget for --diff (default 2.0)",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "profile",
        help="per-stage time breakdown (retiming, CSR rewrite, VM execution)",
    )
    p.add_argument("--workload", required=True, help="workload to profile")
    p.add_argument("-n", type=int, default=50, help="trip count (default 50)")
    p.add_argument("--unfold", type=int, default=1, metavar="F")
    p.add_argument(
        "--trace", metavar="FILE", help="write a Chrome trace-event JSON"
    )
    p.add_argument(
        "--metrics-out", metavar="FILE", help="write the JSON metrics export"
    )
    p.add_argument(
        "--prometheus-out",
        metavar="FILE",
        help="write the Prometheus text-format metrics export",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="run the VM without checking against the original loop",
    )
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "serve",
        help="run the retiming request server (analyze/transform/oracle/"
        "sweep over HTTP; see docs/SERVER.md)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=_bounded(int, 0, high=65535), default=8750,
        help="TCP port (0 = any)",
    )
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    p.add_argument(
        "--workers", type=_count, default=1,
        help="engine worker processes (1 = inline, 0 = one per CPU)",
    )
    p.add_argument(
        "--max-inflight", type=_positive_int, default=128,
        help="bounded request queue; beyond it requests shed with 503",
    )
    p.add_argument(
        "--batch-max", type=_positive_int, default=16,
        help="max queued requests coalesced into one engine dispatch",
    )
    p.add_argument("--cache-dir", default=None, help="result cache location")
    p.add_argument("--no-cache", action="store_true", help="disable the cache")
    p.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="activate a fault-injection plan: a JSON file path or inline "
        "JSON (testing)",
    )
    p.add_argument(
        "--distributed", action="store_true",
        help="run engine units through a leased work plane instead of a "
        "local pool (see docs/SERVER.md)",
    )
    p.add_argument(
        "--remote-workers", type=_count, default=0, metavar="N",
        help="spawn N worker processes on the work plane "
        "(0 = external `repro worker` processes only)",
    )
    p.add_argument(
        "--lease-timeout", type=_positive_float, default=30.0, metavar="SEC",
        help="work-plane lease expiry; a silent worker's unit requeues "
        "after this long",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "worker",
        help="remote worker: lease, execute and complete work units from "
        "a coordinator's work plane (see docs/SERVER.md)",
    )
    _add_worker_arguments(p)
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "sweep", help="randomized differential-testing sweep (all orders)"
    )
    p.add_argument("--graphs", type=int, default=200, help="random DFG count")
    p.add_argument("--seed", type=int, default=0, help="first graph seed")
    p.add_argument(
        "--factors", type=int, nargs="+", default=[2, 3], metavar="F",
        help="unfolding factors to sweep",
    )
    p.add_argument("--max-nodes", type=int, default=6, help="max nodes per graph")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="pin the heuristic stack against the exact repro.optimal "
        "solvers (one oracle job per graph, gap table in the report)",
    )
    p.add_argument(
        "--oracle-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-graph oracle search deadline; on expiry the oracle "
        "degrades to a bounded-gap certificate instead of hanging",
    )
    p.add_argument(
        "--gap-table-out",
        default=None,
        metavar="FILE",
        help="write the oracle gap table to FILE (CI artifact)",
    )
    _add_engine_arguments(p)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly like a
        # well-behaved unix tool.
        try:
            sys.stdout.close()
        except OSError:
            pass
        os._exit(0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise
    except Exception as exc:
        # Only the journaled commands raise JournalError; this import
        # runs only on a failing command.
        from .runner.journal import JournalError

        if not isinstance(exc, JournalError):
            raise
        # A bad --resume target (missing, corrupt, or wrong-command
        # journal) is an operator error: one clear line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
