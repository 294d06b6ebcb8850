"""``src/`` runs without networkx.

networkx is a dev dependency: only the references and test helpers that
compare against it import it, inside their own bodies, so the CLI's
commands run with networkx blocked.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The only functions whose bodies may import networkx.
ALLOWED = {"iteration_bound_exhaustive", "to_networkx", "from_networkx"}


def _networkx_imports(tree: ast.AST, inside: str | None = None):
    """``(enclosing function, line)`` of every networkx import."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _networkx_imports(node, node.name)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "networkx" for name in names):
            yield inside, node.lineno
        yield from _networkx_imports(node, inside)


def test_networkx_is_imported_only_by_references_and_interop():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for inside, line in _networkx_imports(ast.parse(path.read_text(), str(path))):
            found[f"{path.relative_to(SRC)}:{line}"] = inside
    assert found and set(found.values()) <= ALLOWED, found


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "1", "2", "3", "4", "--no-cache"],
        ["info", "elliptic"],
        ["sweep", "--graphs", "3", "--no-cache"],
    ],
    ids=" ".join,
)
def test_cli_runs_with_networkx_blocked(argv):
    code = (
        'import runpy, sys; sys.modules["networkx"] = None\n'
        f"sys.argv = ['repro', *{argv!r}]\n"
        'runpy.run_module("repro", run_name="__main__")\n'
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
