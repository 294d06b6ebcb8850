"""``src/`` runs without numpy.

The graph kernels have one pure-Python implementation at every size, so
no import of numpy appears anywhere in the package, and the paths that
once switched to numpy on large graphs run with numpy blocked.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Makes ``import numpy`` raise ImportError in the child interpreter.
_BLOCK = 'import sys; sys.modules["numpy"] = None\n'


def _run_blocked(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK + code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_no_module_in_src_imports_numpy():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_large_graph_kernels_run_with_numpy_blocked():
    """300 nodes and 600 edges: above both sizes at which the W/D build
    and the cycle test used to switch to numpy."""
    out = _run_blocked(
        """
import random
from fractions import Fraction
from repro.graph import critical_cycle, cycle_stats, iteration_bound, wd_kernel
from repro.graph.generators import random_dfg

g = random_dfg(random.Random(300), num_nodes=300, extra_edges=301,
               max_delay=4, max_time=5)
assert g.num_edges == 600
bound = iteration_bound(g)
t, d = cycle_stats(g, critical_cycle(g))
assert Fraction(t, d) == bound
W, D = wd_kernel(g)
assert all(W[(v, v)] == 0 and D[(v, v)] == g.node(v).time for v in g.node_names())
assert "numpy" not in [m.split(".")[0] for m in sys.modules if sys.modules[m]]
print(bound, len(W))
"""
    )
    bound, pairs = out.split()
    assert Fraction(bound) > 0
    assert int(pairs) >= 300


def test_info_runs_with_numpy_blocked():
    out = _run_blocked(
        'import runpy; sys.argv = ["repro", "info", "elliptic"]\n'
        'runpy.run_module("repro", run_name="__main__")\n'
    )
    assert "iteration bnd : 13" in out
    assert "critical cycle: " in out

