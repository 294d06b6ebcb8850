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
    python -m repro profile --workload figure8 --trace out.json
                                                 # per-stage breakdown + trace
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports what it runs, so building the parser (and every
# `--help`) loads neither the server, the remote fabric nor numpy.  The
# start-up budget is pinned by tests/test_startup.py.


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


def _cmd_tables(args) -> int:
    from .analysis.__main__ import tables_main

    return tables_main(args)


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
    from .analysis.__main__ import (
        check_topology,
        checkpoint_from_args,
        engine_from_args,
        export_observability,
        report_resilience,
        topology_from_args,
    )
    from .ioutil import atomic_write_text
    from .runner.difftest import check_sweep_params, differential_sweep

    try:
        check_sweep_params(args.graphs, args.factors, args.max_nodes, args.oracle_timeout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = engine_from_args(args)
    try:
        checkpoint = checkpoint_from_args(args)
        config = {
            "graphs": args.graphs,
            "seed": args.seed,
            "factors": list(args.factors),
            "max_nodes": args.max_nodes,
            "oracle": args.oracle,
            "oracle_timeout": args.oracle_timeout,
            "topology": topology_from_args(args),
        }
        if checkpoint is not None:
            if checkpoint.resume:
                # `.get()` defaults keep journals from pre-oracle runs
                # resumable.
                config = checkpoint.restore_config("sweep")
                check_topology(config, args)
            checkpoint.attach(engine, "sweep", config)
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
            atomic_write_text(args.gap_table_out, report.gap_table() + "\n")
            print(f"wrote gap table: {args.gap_table_out}", file=sys.stderr)
        if args.stats:
            print("=== Engine stats ===")
            print(engine.stats_summary())
        export_observability(args, engine)
        degraded = report_resilience(args, engine)
        ok = report.ok and not degraded
        if checkpoint is not None:
            checkpoint.finish(engine, "ok" if ok else "degraded")
        return 0 if ok else 1
    finally:
        engine.close()


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
            shards=args.shards,
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
        type=int,
        default=0,
        metavar="N",
        help="exit after N units (0 = run until the coordinator closes)",
    )
    parser.add_argument(
        "--poll-max",
        type=float,
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
        type=int,
        default=4,
        metavar="N",
        help="client retry attempts per request",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SEC",
        help="client retry backoff base",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SEC",
        help="per-request transport timeout",
    )


def build_parser() -> argparse.ArgumentParser:
    from .analysis.cli import (
        add_engine_arguments,
        add_report_arguments,
        add_tables_argument,
    )

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
    add_tables_argument(p)
    add_engine_arguments(p)
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser(
        "report",
        help="aggregate journaled runs into publication tables (markdown "
        "+ LaTeX + report.json; --diff gates regressions; see "
        "docs/REPORT.md)",
    )
    add_report_arguments(p)
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
    p.add_argument("--port", type=int, default=8750, help="TCP port (0 = any)")
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="engine worker processes (1 = inline, 0 = one per CPU)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=128,
        help="bounded request queue; beyond it requests shed with 503",
    )
    p.add_argument(
        "--batch-max", type=int, default=16,
        help="max queued requests coalesced into one engine dispatch",
    )
    p.add_argument(
        "--shards", type=int, default=0,
        help="result-cache shard directories (0 = unsharded layout)",
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
        "--remote-workers", type=int, default=0, metavar="N",
        help="spawn N worker processes on the work plane "
        "(0 = external `repro worker` processes only)",
    )
    p.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SEC",
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
    add_engine_arguments(p)
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
    except Exception as exc:
        # Only the journaled commands raise JournalError, and they have
        # imported it already, so this import is free.
        from .runner.journal import JournalError

        if not isinstance(exc, JournalError):
            raise
        # A bad --resume target (missing, corrupt, or wrong-command
        # journal) is an operator error: one clear line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
