"""Start-up budget: what ``import repro`` and each CLI entry point load.

Every check compares deterministic module sets in a fresh interpreter,
never timings.  The rule these pin: package ``__init__`` files and the
CLI module import lazily (PEP 562 exports, per-command imports), and
numpy loads only when a vector path first runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.runner
import repro.server

LAZY_PACKAGES = [repro, repro.analysis, repro.runner, repro.server]

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules no ``--help`` may load: numpy, the asyncio/HTTP server stacks,
#: and the lease fabric.
HEAVY = (
    "numpy",
    "asyncio",
    "http.server",
    "repro.runner.remote",
)


def _env(**extra: str) -> dict:
    return {**os.environ, "PYTHONPATH": SRC, **extra}


def _python(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(**env),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _imported(argv: list[str]) -> set[str]:
    """Every module ``python -X importtime <argv>`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


class TestImportBudget:
    def test_import_repro_loads_no_submodule(self):
        loaded = _imported(["-c", "import repro"])
        assert "repro" in loaded
        assert sorted(m for m in loaded if m.startswith("repro.")) == []
        assert "numpy" not in loaded

    def test_vector_modules_import_without_numpy(self):
        loaded = _imported(
            ["-c", "import repro.machine.vm, repro.graph.wd, repro.retiming"]
        )
        assert "repro.machine.trace" in loaded
        assert "repro.retiming.incremental" in loaded
        assert "numpy" not in loaded

    def test_tables_loads_no_ctypes_or_pulp(self):
        loaded = _imported(["-m", "repro", "tables", "1"])
        assert "repro.optimal" in loaded  # imported, but without a pulp probe
        assert sorted(m for m in ("ctypes", "pulp") if m in loaded) == []

    @pytest.mark.parametrize("command", ["tables", "sweep", "report", "worker"])
    def test_help_skips_heavy_modules(self, command):
        loaded = _imported(["-m", "repro", command, "--help"])
        assert sorted(m for m in HEAVY if m in loaded) == []
        assert sorted(m for m in loaded if m.startswith("repro.server")) == []

    def test_serve_help_skips_numpy(self):
        loaded = _imported(["-m", "repro", "serve", "--help"])
        assert "argparse" in loaded
        assert "numpy" not in loaded


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda p: p.__name__)
    def test_every_export_resolves_and_is_listed(self, package):
        listed = dir(package)
        for name in package.__all__:
            assert getattr(package, name) is not None, name
            assert name in listed, name

    @pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda p: p.__name__)
    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["DFG"] is repro.graph.DFG

    def test_exports_resolve_in_a_fresh_interpreter(self):
        out = _python(
            "import repro, repro.analysis, repro.runner, repro.server\n"
            "for package in (repro, repro.analysis, repro.runner, repro.server):\n"
            "    for name in package.__all__:\n"
            "        getattr(package, name)\n"
            "print('ok')"
        )
        assert out.strip() == "ok"


_TRACE_RUN = """
import json, sys
from repro import observability
from repro.core.csr import csr_pipelined_loop
from repro.machine.vm import run_program
from repro.retiming import minimize_cycle_period
from repro.workloads import get_workload

numpy_before = "numpy" in sys.modules
g = get_workload("iir")
_, r = minimize_cycle_period(g)
program = csr_pipelined_loop(g, r)
observability.enable()
result = run_program(program, 1000)
counters = observability.OBS.metrics.as_dict()["counters"]
print(json.dumps({
    "numpy_before": numpy_before,
    "steps": counters.get("vm.trace.steps", 0),
    "arrays": {k: sorted(v.items()) for k, v in result.arrays.items()},
    "executed": result.executed,
    "disabled": result.disabled,
}))
"""


class TestTraceVmStillTraces:
    """A lazy numpy import that failed quietly would drop every traceable
    loop to the interpreter: same results, 13-16x slower, no error.  So
    this checks the trace backend really runs in a fresh interpreter
    where nothing has loaded numpy yet."""

    def test_first_traceable_run_loads_numpy_and_traces(self):
        traced = json.loads(_python(_TRACE_RUN, REPRO_VM_TRACE="1"))
        reference = json.loads(_python(_TRACE_RUN, REPRO_VM_TRACE="0"))
        assert traced["numpy_before"] is False
        assert traced["steps"] > 0
        assert reference["steps"] == 0
        for key in ("arrays", "executed", "disabled"):
            assert traced[key] == reference[key], key
