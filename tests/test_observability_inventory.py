"""Metric and span inventory: every literal name the library passes to
``count``, ``counter``, ``gauge``, ``histogram`` or ``span`` (or to a
``Counter``/``Gauge``/``Histogram`` constructor) in ``src/`` has a row in
the "Inventory" table of ``docs/OBSERVABILITY.md``, and every name that
table lists is emitted somewhere in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_EMITTERS = {"count", "counter", "gauge", "histogram", "span",
             "Counter", "Gauge", "Histogram"}


def _emitted() -> set[str]:
    """String constants in the first argument of an emitter call (both
    branches of a conditional name count)."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called not in _EMITTERS:
                continue
            names |= {
                sub.value
                for sub in ast.walk(node.args[0])
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            }
    return names


def _documented() -> set[str]:
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("\n## Inventory\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {row.split("`")[1] for row in rows}


def test_every_emitted_name_is_documented():
    assert sorted(_emitted() - _documented()) == []


def test_every_documented_name_is_emitted():
    assert sorted(_documented() - _emitted()) == []


def test_the_fabric_publishes_no_mirror_gauges():
    assert not _emitted() & {
        "remote.leases_granted",
        "remote.requeues_total",
        "remote.duplicates_discarded_total",
        "remote.local_fallback_units",
    }
