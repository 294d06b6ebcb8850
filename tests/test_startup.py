"""Start-up budget: what ``import repro`` and each CLI entry point load.

Every check compares deterministic module sets in a fresh interpreter,
never timings.  The rule these pin: package ``__init__`` files and the
CLI module import lazily (PEP 562 exports, per-command imports), and
nothing loads numpy (``tests/test_numpy_free.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.codegen
import repro.core
import repro.graph
import repro.machine
import repro.optimal
import repro.retiming
import repro.runner
import repro.schedule
import repro.server
import repro.unfolding
import repro.workloads

#: Every package whose ``__init__`` exports through ``_lazy_exports``.
LAZY_PACKAGES = [
    repro,
    repro.analysis,
    repro.codegen,
    repro.core,
    repro.graph,
    repro.machine,
    repro.optimal,
    repro.retiming,
    repro.runner,
    repro.schedule,
    repro.server,
    repro.unfolding,
    repro.workloads,
]

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules no ``--help`` may load: numpy, the asyncio/HTTP server stacks,
#: and the lease fabric.
HEAVY = (
    "numpy",
    "asyncio",
    "http.server",
    "repro.runner.remote",
)

#: What the paper tables never run: they need only the closed-form size
#: models, so no code generator, VM, verifier, scheduler, oracle, job
#: body or journal.
NOT_ON_TABLES = (
    "repro.codegen",
    "repro.machine",
    "repro.core.verify",
    "repro.optimal",
    "repro.schedule",
    "repro.runner.jobs",
    "repro.runner.journal",
)

#: What a sweep never runs: C emission, program printing, the packed VLIW
#: VM and list scheduling.
NOT_ON_SWEEP = (
    "repro.codegen.c_emitter",
    "repro.codegen.printer",
    "repro.machine.vliw_vm",
    "repro.schedule.list_scheduling",
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
            ["-c", "import repro.machine.vm, repro.graph.wd, repro.retiming.optimal"]
        )
        assert "repro.retiming.optimal" in loaded
        assert "numpy" not in loaded

    def test_tables_loads_no_ctypes_or_pulp(self):
        loaded = _imported(["-m", "repro", "tables", "1"])
        assert "repro.optimal" not in loaded
        assert sorted(m for m in ("ctypes", "pulp") if m in loaded) == []

    def test_tables_load_only_the_size_models(self):
        loaded = _imported(["-m", "repro", "tables", "1", "2", "3", "4", "--no-cache"])
        assert "repro.core.codesize" in loaded
        assert sorted(m for m in loaded if m.startswith(NOT_ON_TABLES)) == []

    def test_sweep_skips_what_it_never_runs(self):
        loaded = _imported(["-m", "repro", "sweep", "--graphs", "2", "--no-cache"])
        assert "repro.machine.vm" in loaded
        assert sorted(m for m in NOT_ON_SWEEP if m in loaded) == []

    @pytest.mark.parametrize(
        "argv",
        [["tables", "1", "2", "3", "4", "--no-cache"], ["sweep", "--graphs", "2", "--no-cache"]],
        ids=["tables", "sweep"],
    )
    def test_serial_runs_load_no_process_pool(self, argv):
        """``ProcessPoolExecutor`` loads when a pool starts, not with the
        engine module."""
        loaded = _imported(["-m", "repro", *argv])
        assert "repro.runner.engine" in loaded
        pool = ("concurrent.futures.process", "multiprocessing")
        assert sorted(m for m in loaded if m.startswith(pool)) == []

    def test_remote_sweep_parent_loads_one_http_stack(self):
        """The parent serves its work plane on the asyncio transport: no
        ``http.server``/``socketserver``, and not the request service."""
        loaded = _imported(
            ["-m", "repro", "sweep", "--graphs", "2", "--no-cache",
             "--workers", "remote", "--jobs", "1"]
        )
        assert "repro.server.transport" in loaded
        unwanted = ("http.server", "socketserver", "repro.server.service")
        assert sorted(m for m in unwanted if m in loaded) == []

    def test_lease_worker_loads_no_server_stack(self):
        """A spawned worker speaks plain ``http.client``."""
        loaded = _imported(["-c", "import repro.server.worker"])
        assert "repro.runner.remote" in loaded
        assert sorted(m for m in ("asyncio", "http.server") if m in loaded) == []

    @pytest.mark.parametrize("command", ["tables", "sweep", "report", "worker"])
    def test_help_skips_heavy_modules(self, command):
        loaded = _imported(["-m", "repro", command, "--help"])
        assert sorted(m for m in HEAVY if m in loaded) == []
        assert sorted(m for m in loaded if m.startswith("repro.server")) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--graphs", "2", "--no-cache"],
            ["run", "iir", "-n", "1000"],
            ["tables", "1", "2", "3", "4", "--no-cache"],
        ],
        ids=["sweep", "run", "tables"],
    )
    def test_vm_commands_load_no_numpy(self, argv):
        """The VM and the graph kernels are pure Python, so running
        programs loads no numpy.  Table 4 retimes 104-node unfolded
        graphs to a fixed period by FEAS, which builds no ``W``/``D``
        matrices."""
        loaded = _imported(["-m", "repro", *argv])
        if argv[0] != "tables":  # the tables run no program at all
            assert "repro.machine.dispatch" in loaded
        assert sorted(m for m in loaded if m.split(".")[0] == "numpy") == []

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
        names = ", ".join(p.__name__ for p in LAZY_PACKAGES)
        out = _python(
            f"import {names}\n"
            f"for package in ({names}):\n"
            "    for name in package.__all__:\n"
            "        getattr(package, name)\n"
            "print('ok')"
        )
        assert out.strip() == "ok"

    def test_no_export_resolves_to_a_submodule(self):
        """Importing a submodule binds it on its package.  A lazy export
        with the submodule's own name would then resolve to the module,
        so such names are bound eagerly; loading every submodule first
        must leave every export a non-module."""
        names = ", ".join(p.__name__ for p in LAZY_PACKAGES)
        out = _python(
            "import importlib, pkgutil, types\n"
            f"import {names}\n"
            f"packages = ({names})\n"
            "for package in packages:\n"
            "    for info in pkgutil.iter_modules(package.__path__):\n"
            "        if info.name != '__main__':\n"
            "            importlib.import_module(f'{package.__name__}.{info.name}')\n"
            "for package in packages:\n"
            "    for name in package.__all__:\n"
            "        if isinstance(getattr(package, name), types.ModuleType):\n"
            "            print(f'{package.__name__}.{name}')\n"
        )
        assert out.split() == []

