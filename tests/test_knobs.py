"""Knob inventory: every ``REPRO_*`` environment variable the library reads
is documented in the "Runtime switches" table of ``docs/PERFORMANCE.md``,
and every variable that table lists is read somewhere in ``src/``.  Every
``--flag`` the docs name is one the CLI accepts.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

from repro.__main__ import build_parser

ROOT = Path(__file__).resolve().parents[1]
_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: Flags the docs name for tools other than ``python -m repro``
#: (pytest-benchmark, the benchmark scripts, the golden-report updater).
_NON_CLI_FLAGS = {
    "--benchmark-only",
    "--check",
    "--quick",
    "--regen-golden",
    "--seconds",
}


def _read_in_src() -> set[str]:
    """``REPRO_*`` names that appear as whole string literals in ``src/``
    (the form ``os.environ`` lookups take, directly or via a constant)."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _documented() -> set[str]:
    text = (ROOT / "docs" / "PERFORMANCE.md").read_text()
    section = text.split("### Runtime switches", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {_NAME.search(row.split("|")[1]).group() for row in rows}


def test_every_read_variable_is_documented():
    assert sorted(_read_in_src() - _documented()) == []


def test_every_documented_variable_is_read():
    assert sorted(_documented() - _read_in_src()) == []


def test_inventory():
    assert _read_in_src() == {"REPRO_CACHE_DIR", "REPRO_FAULT_PLAN"}


def _cli_flags() -> set[str]:
    parser = build_parser()
    flags = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= set(sub._option_string_actions)
    return flags


def test_documented_flags_are_accepted_by_the_cli():
    cli = _cli_flags()
    stale = {
        f"{path.relative_to(ROOT)}: {flag}"
        for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
        for flag in _FLAG.findall(path.read_text())
        if flag not in cli and flag not in _NON_CLI_FLAGS
    }
    assert sorted(stale) == []
