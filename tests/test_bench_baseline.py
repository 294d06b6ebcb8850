"""Schema validation of the committed hot-path benchmark baseline.

``BENCH_hotpaths.json`` is a CI gate: quick-mode runs compare their
operation counters against it (see ``benchmarks/bench_hotpaths.py
--check``).  A malformed or stale baseline silently weakens that gate —
rows the checker cannot match are skipped, not flagged — so this test
pins the committed file's shape: full mode, every section present, every
row carrying the gated counters the checker keys on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "benchmarks"))

from bench_hotpaths import FULL_SIZES, GATED_COUNTERS, _counter_rows  # noqa: E402


@pytest.fixture(scope="module")
def baseline() -> dict:
    path = REPO / "BENCH_hotpaths.json"
    assert path.exists(), "committed baseline BENCH_hotpaths.json is missing"
    return json.loads(path.read_text())


def test_top_level_shape(baseline):
    assert baseline["benchmark"] == "hotpaths"
    assert baseline["mode"] == "full", (
        "the committed baseline must be a full-mode run so quick-mode CI "
        "checks find every (path, label, counter) key"
    )
    assert baseline["sizes"] == list(FULL_SIZES)
    assert set(baseline["results"]) == {
        "minimize_cycle_period", "iteration_bound", "vm", "vliw",
    }


def test_rows_have_measurements(baseline):
    for path, rows in baseline["results"].items():
        assert rows, f"{path}: empty section"
        # The iteration bound's reference is exponential at these sizes,
        # so its rows time the fast path alone.
        timed = ("new_s",)
        if path != "iteration_bound":
            timed += ("ref_s", "speedup")
        for row in rows:
            assert ("size" in row) != ("workload" in row)
            for key in timed:
                assert isinstance(row[key], (int, float)), (path, key)
            assert isinstance(row["counters"], dict)
            for name, value in row["counters"].items():
                assert isinstance(value, int), (path, name)


def test_gated_counters_present(baseline):
    """Every gated counter the new engines emit appears in the rows the
    checker will key on — including the shared-kernel sweeps."""
    seen = {name for (_p, _l, name, _v) in _counter_rows(baseline)}
    assert seen == set(GATED_COUNTERS), (
        f"baseline gated-counter coverage drifted: missing "
        f"{set(GATED_COUNTERS) - seen}, unknown {seen - set(GATED_COUNTERS)}"
    )


def test_counter_keys_unique(baseline):
    """The checker builds a dict keyed by (path, label, counter); duplicate
    keys would shadow rows and weaken the gate."""
    keys = [(p, l, n) for (p, l, n, _v) in _counter_rows(baseline)]
    assert len(keys) == len(set(keys))


def test_recorded_speedups_meet_floors(baseline):
    """The committed (already-measured) numbers back the performance
    claims: >= 3x on the 500-node period search and >= 1.5x for compiled
    dispatch over the reference interpreter on every VM and VLIW row.  This reads the committed JSON — it never re-times
    anything, so it cannot flake."""
    minimize = {r["size"]: r for r in baseline["results"]["minimize_cycle_period"]}
    assert minimize[500]["speedup"] >= 3.0
    for section in ("vm", "vliw"):
        for row in baseline["results"][section]:
            assert row["speedup"] >= 1.5, (section, row["workload"])


def test_check_writes_only_an_explicit_out(tmp_path, monkeypatch):
    """``--check BENCH_hotpaths.json`` must not overwrite the committed
    full-mode baseline with the run it is checking."""
    import bench_hotpaths

    monkeypatch.setattr(bench_hotpaths, "run_benchmarks",
                        lambda quick: {"mode": "quick", "results": {}})
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_hotpaths.json"
    baseline.write_text('{"mode": "full", "results": {}}\n')
    assert bench_hotpaths.main(["--quick", "--check", baseline.name]) == 0
    assert baseline.read_text() == '{"mode": "full", "results": {}}\n'
    assert [p.name for p in tmp_path.iterdir()] == [baseline.name]
    assert bench_hotpaths.main(
        ["--quick", "--check", baseline.name, "--out", "ci.json"]
    ) == 0
    assert json.loads((tmp_path / "ci.json").read_text())["mode"] == "quick"
