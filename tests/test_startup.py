"""Start-up budget: what ``import repro`` and each CLI entry point load.

Every check compares deterministic module sets in a fresh interpreter,
never timings.  The rule these pin: package ``__init__`` files and the
CLI module import lazily (PEP 562 exports, per-command imports), and
numpy loads only when a vector path first runs.
"""

from __future__ import annotations

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
        assert "repro.retiming.optimal" in loaded
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
        """The VM is pure Python, and these commands' graphs stay below
        every numpy threshold, so running programs loads no numpy.
        Table 4 retimes 104-node unfolded graphs to a fixed period by
        FEAS, which builds no ``W``/``D`` matrices."""
        loaded = _imported(["-m", "repro", *argv])
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
        out = _python(
            "import repro, repro.analysis, repro.runner, repro.server\n"
            "for package in (repro, repro.analysis, repro.runner, repro.server):\n"
            "    for name in package.__all__:\n"
            "        getattr(package, name)\n"
            "print('ok')"
        )
        assert out.strip() == "ok"

