#!/usr/bin/env python
"""Hot-path benchmark: old implementations vs the overhauled engines.

Measures the four hot paths end to end, old vs new, on random graphs of
20–500 nodes (``--quick`` stops at 120 for CI):

* ``minimize_cycle_period`` — the FEAS search over integer periods vs
  the same integer search probing by ``_retime_for_period_reference``
  (a per-probe W/D rebuild + fresh solve);
* ``iteration_bound`` — Howard's policy iteration over the shared edge
  kernel, timed alone: its reference,
  :func:`~repro.graph.iteration_bound.iteration_bound_exhaustive`, is
  exponential at these sizes, so these rows carry no ``ref_s``; the
  ``bound`` each row records is the fixed reference instead, and
  ``--check`` fails when it changes;
* ``vm`` — the dataclass-walking reference interpreter
  (``run_program(..., dispatch=False)``) vs compiled dispatch;
* ``vliw`` — the packed executor, reference vs pre-compiled word slots.

Every ``ref_s``/``new_s`` is the median of ``REPEATS`` timed calls, each
graph search on a freshly built graph so no call reuses another's edge
kernel.  Besides wall times and speedup ratios, each measurement
snapshots, from one more run, the *deterministic operation counters* the
new engines emit (edge scans, FEAS passes, executed instructions).
Counters — unlike wall time — are machine-independent, so CI gates on
them: ``--check BASELINE.json`` exits non-zero if any counter grew more
than ``--check-factor`` (default 2x) over the committed baseline, catching
algorithmic regressions (a search doing extra probes, a FEAS probe
taking extra passes) without flaky timing thresholds.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick] [--out F]
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick \
        --check BENCH_hotpaths.json [--out F]

With ``--check`` the report is written only to an explicit ``--out``, so
checking never overwrites the committed full-mode baseline.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.codegen import original_loop  # noqa: E402
from repro.core import csr_pipelined_loop  # noqa: E402
from repro.graph import iteration_bound  # noqa: E402
from repro.graph.generators import random_dfg, random_unit_time_dfg  # noqa: E402
from repro.machine import run_program  # noqa: E402
from repro.machine.vliw_vm import run_packed  # noqa: E402
from repro.observability import OBS  # noqa: E402
from repro.graph.period import cycle_period  # noqa: E402
from repro.retiming import minimize_cycle_period  # noqa: E402
from repro.retiming.optimal import (  # noqa: E402
    _least_feasible,
    _retime_for_period_reference,
)
from repro.schedule import ResourceModel  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

QUICK_SIZES = (20, 60, 120)
FULL_SIZES = (20, 60, 120, 250, 500)

#: Timed calls per measurement; each reported time is their median.
REPEATS = 5

#: Counters that must stay bounded relative to the committed baseline.
GATED_COUNTERS = (
    "retiming.feas.passes",
    "kernel.relax_edges",
    "kernel.relax_sweeps",
    "vm.instructions.executed",
    "vliw.cycles",
)


def _timed(fn, *args, **kwargs):
    """``(result, seconds)`` for one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _median_s(calls) -> float:
    """Median wall time, in seconds, of the zero-argument ``calls``."""
    return statistics.median(_timed(call)[1] for call in calls)


def _counted(fn, *args, **kwargs):
    """``(result, counters)`` of one call with a clean metrics registry."""
    was = OBS.enabled, OBS.tracing
    OBS.reset()
    OBS.enable()
    try:
        result = fn(*args, **kwargs)
        counters = dict(OBS.metrics.as_dict()["counters"])
    finally:
        OBS.reset()
        OBS.enabled, OBS.tracing = was
    return result, counters


def _reference_search(g) -> tuple[int, object]:
    """``minimize_cycle_period``'s integer search, probing by the W/D
    constraint solve instead of FEAS."""
    lo = max(v.time for v in g.nodes())
    c, r, _ = _least_feasible(lo, cycle_period(g), partial(_retime_for_period_reference, g))
    return c, r


def bench_minimize(sizes) -> list[dict]:
    rows = []
    for size in sizes:
        def graph():
            return random_unit_time_dfg(
                random.Random(size), num_nodes=size, extra_edges=size,
                max_delay=4,
            )

        ref_period, ref_r = _reference_search(graph())
        ref_s = _median_s(
            partial(_reference_search, graph()) for _ in range(REPEATS)
        )
        new_s = _median_s(
            partial(minimize_cycle_period, graph()) for _ in range(REPEATS)
        )
        res, counters = _counted(minimize_cycle_period, graph())
        assert res[0] == ref_period, f"period mismatch at size {size}"
        assert res[1].as_dict() == ref_r.as_dict(), f"witness mismatch at size {size}"
        rows.append(
            {
                "size": size,
                "period": ref_period,
                "ref_s": round(ref_s, 4),
                "new_s": round(new_s, 4),
                "speedup": round(ref_s / new_s, 2) if new_s else None,
                "counters": {
                    k: v for k, v in counters.items()
                    if k.startswith(("retiming.", "kernel."))
                },
            }
        )
    return rows


def bench_iteration_bound(sizes) -> list[dict]:
    rows = []
    for size in sizes:
        def graph():
            return random_dfg(
                random.Random(size),
                num_nodes=size,
                extra_edges=size,
                max_delay=4,
                max_time=5,
            )

        new_s = _median_s(
            partial(iteration_bound, graph()) for _ in range(REPEATS)
        )
        bound, counters = _counted(iteration_bound, graph())
        rows.append(
            {
                "size": size,
                "bound": str(bound),
                "new_s": round(new_s, 4),
                "counters": {
                    k: v for k, v in counters.items()
                    if k.startswith("kernel.")
                },
            }
        )
    return rows


def bench_vm(trip_count: int) -> list[dict]:
    rows = []
    for wname in ("elliptic", "allpole"):
        g = WORKLOADS[wname]()
        _, r = minimize_cycle_period(g)
        p = csr_pipelined_loop(g, r)
        min_n = p.meta.get("min_n", 1) or 1
        n = trip_count + min_n
        ref = run_program(p, n, dispatch=False)
        ref_s = _median_s(
            [partial(run_program, p, n, dispatch=False)] * REPEATS
        )
        # Warm the compile cache so the measurement isolates dispatch.
        run_program(p, n)
        new_s = _median_s([partial(run_program, p, n)] * REPEATS)
        new, counters = _counted(run_program, p, n)
        assert new.arrays == ref.arrays, f"vm mismatch on {wname}"
        rows.append(
            {
                "workload": wname,
                "n": n,
                "ref_s": round(ref_s, 4),
                "new_s": round(new_s, 4),
                "speedup": round(ref_s / new_s, 2) if new_s else None,
                "counters": {
                    k: v for k, v in counters.items() if k.startswith("vm.")
                },
            }
        )
    return rows


def bench_vliw(trip_count: int) -> list[dict]:
    machine = ResourceModel(units={"alu": 2, "mul": 1})
    rows = []
    for wname in ("elliptic", "allpole"):
        g = WORKLOADS[wname]()
        _, r = minimize_cycle_period(g)
        p = csr_pipelined_loop(g, r)
        min_n = p.meta.get("min_n", 1) or 1
        n = trip_count + min_n
        ref = run_packed(p, n, machine, control_slots=2, dispatch=False)
        ref_s = _median_s(
            [partial(run_packed, p, n, machine, control_slots=2,
                     dispatch=False)] * REPEATS
        )
        new_s = _median_s(
            [partial(run_packed, p, n, machine, control_slots=2)] * REPEATS
        )
        new, counters = _counted(run_packed, p, n, machine, control_slots=2)
        assert new.arrays == ref.arrays and new.cycles == ref.cycles, (
            f"vliw mismatch on {wname}"
        )
        rows.append(
            {
                "workload": wname,
                "n": n,
                "cycles": ref.cycles,
                "ref_s": round(ref_s, 4),
                "new_s": round(new_s, 4),
                "speedup": round(ref_s / new_s, 2) if new_s else None,
                "counters": {
                    k: v for k, v in counters.items() if k.startswith("vliw.")
                },
            }
        )
    return rows


def run_benchmarks(quick: bool) -> dict:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    # The trip count is mode-independent so the VM/VLIW operation counters
    # of a quick CI run are directly comparable to a full-mode baseline.
    trip = 20000
    report = {
        "benchmark": "hotpaths",
        "mode": "quick" if quick else "full",
        "sizes": list(sizes),
        "trip_count": trip,
        "results": {},
    }
    print(f"== minimize_cycle_period (sizes {list(sizes)}) ==", flush=True)
    report["results"]["minimize_cycle_period"] = bench_minimize(sizes)
    for row in report["results"]["minimize_cycle_period"]:
        print(f"  n={row['size']:4d}  ref {row['ref_s']:8.3f}s  "
              f"new {row['new_s']:8.3f}s  {row['speedup']}x", flush=True)
    print("== iteration_bound ==", flush=True)
    report["results"]["iteration_bound"] = bench_iteration_bound(sizes)
    for row in report["results"]["iteration_bound"]:
        print(f"  n={row['size']:4d}  new {row['new_s']:8.3f}s", flush=True)
    print(f"== vm (trip count ~{trip}) ==", flush=True)
    report["results"]["vm"] = bench_vm(trip)
    for row in report["results"]["vm"]:
        print(f"  {row['workload']:10s}  ref {row['ref_s']:8.3f}s  "
              f"new {row['new_s']:8.3f}s  {row['speedup']}x", flush=True)
    print(f"== vliw (trip count ~{trip}) ==", flush=True)
    report["results"]["vliw"] = bench_vliw(trip)
    for row in report["results"]["vliw"]:
        print(f"  {row['workload']:10s}  ref {row['ref_s']:8.3f}s  "
              f"new {row['new_s']:8.3f}s  {row['speedup']}x", flush=True)
    return report


def _counter_rows(report: dict):
    """Yield ``(path, label, counter_name, value)`` for every gated counter."""
    for path, rows in report.get("results", {}).items():
        for row in rows:
            if "size" in row:
                label = row["size"]
            else:
                label = f"{row.get('workload')}@{row.get('n')}"
            for name, value in row.get("counters", {}).items():
                if name in GATED_COUNTERS:
                    yield path, label, name, value


def check_against_baseline(report: dict, baseline: dict, factor: float) -> int:
    """Compare operation counters and iteration bounds against a
    committed baseline.

    Only counters present in *both* reports are compared (labels are keyed
    by graph size / workload name, so quick-mode runs check the quick-mode
    subset of a full-mode baseline).  A recorded ``bound`` must be equal at
    every size both reports hold.  Returns the number of regressions.
    """
    base = {
        (path, label, name): value
        for path, label, name, value in _counter_rows(baseline)
    }
    regressions = 0
    compared = 0
    for path, label, name, value in _counter_rows(report):
        key = (path, label, name)
        if key not in base:
            continue
        compared += 1
        allowed = base[key] * factor
        if value > allowed:
            regressions += 1
            print(
                f"REGRESSION {path}[{label}] {name}: "
                f"{value} > {factor}x baseline {base[key]}"
            )
    base_bounds = {
        row["size"]: row["bound"]
        for row in baseline.get("results", {}).get("iteration_bound", [])
    }
    for row in report.get("results", {}).get("iteration_bound", []):
        expected = base_bounds.get(row["size"])
        if expected is not None and row["bound"] != expected:
            regressions += 1
            print(f"MISMATCH iteration_bound[{row['size']}] bound: "
                  f"{row['bound']} != baseline {expected}")
    print(f"checked {compared} counters against baseline: "
          f"{regressions} regression(s)")
    return regressions


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI mode: sizes up to 120, shorter trip counts")
    ap.add_argument("--out", default=None,
                    help="output JSON path (default: BENCH_hotpaths.json; "
                         "with --check, no file unless given)")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare operation counters against a baseline "
                         "JSON; exit 1 on any regression")
    ap.add_argument("--check-factor", type=float, default=2.0,
                    help="allowed counter growth factor (default: 2.0)")
    args = ap.parse_args(argv)

    report = run_benchmarks(quick=args.quick)
    out = args.out or (None if args.check else "BENCH_hotpaths.json")
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        if check_against_baseline(report, baseline, args.check_factor):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
