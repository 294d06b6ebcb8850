"""Module-level work functions for the request server.

:func:`analyze_graph` is an engine unit of work (importable, JSON in /
JSON out — the process-pool pickling contract, same as
:func:`repro.runner.jobs.execute_job`).  It keeps nothing between
requests: a repeated request is answered by the engine's result cache
before it runs.
"""

from __future__ import annotations

import time

from ..core.codesize import size_csr_pipelined, size_pipelined
from ..core.csr import csr_pipelined_loop
from ..core.verify import assert_equivalent
from ..graph.dfg import DFGError
from ..graph.iteration_bound import iteration_bound
from ..graph.period import cycle_period
from ..graph.serialize import from_json
# Unused here: benchmarks/e2e/replay.py patches this module-level binding.
from ..graph.wd import wd_kernel  # noqa: F401
from ..machine.vm import run_program
from ..observability import span
from ..retiming.optimal import minimize_cycle_period

__all__ = ["analyze_graph"]


def analyze_graph(params: dict) -> dict:
    """Engine unit: full analysis payload for one serialized graph.

    ``params``: ``{"graph": <DFG JSON>, "trip_count": n, "verify": bool}``.
    Failures are in-band (``{"ok": False, ...}``), like every engine
    unit, so one malformed graph cannot take down a batch.
    """
    start = time.perf_counter()
    n = params["trip_count"]
    with span("server.analyze", n=n):
        try:
            g = from_json(params["graph"])
            period, r = minimize_cycle_period(g)
            program = csr_pipelined_loop(g, r)
            payload = {
                "graph": g.name,
                "nodes": g.num_nodes,
                "edges": g.num_edges,
                "period_original": cycle_period(g),
                "period": period,
                "iteration_bound": str(iteration_bound(g)),
                "registers": r.registers_needed(),
                "max_retiming": r.max_value,
                "code_size_original": g.num_nodes,
                "code_size_pipelined": size_pipelined(g, r),
                "code_size_csr": size_csr_pipelined(g, r),
            }
            if params["verify"]:
                result = assert_equivalent(g, program, n)
                payload["equivalent"] = True
            else:
                result = run_program(program, n)
            payload["executed"] = result.executed
            payload["disabled"] = result.disabled
            payload["ok"] = True
            payload["error"] = None
        except DFGError as exc:
            payload = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
    payload["compute_time"] = time.perf_counter() - start
    return payload
