"""Tests of the end-to-end benchmark's own machinery.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import asyncio
import heapq
import json
import re
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import compare
import layers
import loadgen
import replay
import run
from spans import Span, SpanRecorder, self_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- request generator ------------------------------------------------------


def test_request_stream_is_deterministic_per_seed():
    first = [i.doc for i in islice(loadgen.request_stream(7, "open"), 300)]
    again = [i.doc for i in islice(loadgen.request_stream(7, "open"), 300)]
    other = [i.doc for i in islice(loadgen.request_stream(8, "open"), 300)]
    assert first == again
    assert first != other


def test_request_stream_keeps_the_mix_shares():
    items = list(islice(loadgen.request_stream(3, "open"), 5000))
    shares = Counter(i.tag for i in items)
    for tag, share in loadgen.MIX:
        assert shares[tag] / len(items) == pytest.approx(share, abs=0.02)
    for prev, item in zip(items, items[1:]):
        if item.tag == "duplicate":
            assert item.doc == prev.doc


def test_generated_graphs_are_accepted_by_the_program():
    from repro.server.protocol import parse_request

    for item in islice(loadgen.request_stream(1, "open"), 60):
        assert parse_request(item.doc).key


def test_duplicates_are_due_with_their_original():
    items = list(islice(loadgen.request_stream(5, "open"), 200))
    schedule = loadgen.open_schedule(items, rate=50.0)
    for (due_prev, _), (due, item) in zip(schedule, schedule[1:]):
        if item.tag == "duplicate":
            assert due == due_prev
    assert schedule[-1][0] == pytest.approx(199 / 50.0, abs=0.05)


# -- open-loop timing under a fake clock ------------------------------------


class VirtualClock:
    """Virtual time for asyncio: time moves only to the next pending sleep,
    once every runnable task has reached one."""

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: list = []
        self._seq = 0

    def time(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        future = asyncio.get_running_loop().create_future()
        self._seq += 1
        heapq.heappush(self._timers, (self.now + max(delay, 0.0), self._seq, future))
        await future

    def run(self, coro):
        async def drive():
            task = asyncio.ensure_future(coro)
            while not task.done():
                for _ in range(50):
                    await asyncio.sleep(0)
                if task.done():
                    break
                if not self._timers:
                    raise RuntimeError("deadlock: no task is sleeping")
                self.now, _, future = heapq.heappop(self._timers)
                future.set_result(None)
            return task.result()

        return asyncio.run(drive())


def test_latency_runs_from_the_due_time_so_a_stall_delays_the_queue():
    clock = VirtualClock()
    items = [loadgen.Item("transform", {"i": i}) for i in range(5)]
    schedule = [(0.010 * i, item) for i, item in enumerate(items)]

    async def send(item):
        await clock.sleep(0.100 if item.doc["i"] == 1 else 0.002)
        return 200, b"{}"

    samples = clock.run(
        loadgen.open_loop(schedule, send, clock=clock.time, sleep=clock.sleep, max_conns=1)
    )
    # Request 1 stalls for 100 ms; 2-4 fall due meanwhile and queue.
    assert [s.latency for s in samples] == pytest.approx([0.002, 0.100, 0.092, 0.084, 0.076])
    # Timed from when each was sent, the queued ones would look healthy.
    assert [s.end - s.start for s in samples[2:]] == pytest.approx([0.002] * 3)


def test_closed_loop_counts_completions_over_elapsed_time():
    clock = VirtualClock()

    async def send(item):
        await clock.sleep(0.010)
        return 200, b"{}"

    samples, elapsed = clock.run(
        loadgen.closed_loop(loadgen.request_stream(1, "closed"), send, clock=clock.time, duration=1.0, conns=2)
    )
    assert len(samples) / elapsed == pytest.approx(200, rel=0.02)


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = Span("engine", 0, 100)
    children = [Span("a", 10, 40), Span("b", 30, 60), Span("c", 90, 130)]
    # Children cover 10-60 and 90-100 of the parent: 60 ns.
    assert self_ns(parent, children) == 40


def test_recorder_self_times_follow_nesting():
    ticks = iter(range(0, 1000, 10))
    rec = SpanRecorder("test", clock=lambda: next(ticks))
    with rec.span("outer"):  # 0 .. 50
        with rec.span("inner"):  # 10 .. 20
            pass
        with rec.span("inner"):  # 30 .. 40
            pass
    assert rec.self_times() == {"outer": 30, "inner": 20}
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert {s.run_id for s in rec.spans} == {"test"}


# -- readers of the program's exports ----------------------------------------


def test_importtime_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       200 |        300 | encodings",
        "import time:        50 |         50 |     numpy.core",
        "import time:        70 |        120 |   numpy",
        "import time:       900 |       1000 | repro",
        "import time:       400 |        400 | argparse",
        "usage: python -m repro sweep [-h]",
    ])
    assert layers.parse_importtime(text) == {
        "startup.import_ms": 1.4,
        "startup.modules": 6,
        "startup.numpy_loaded": 1,
    }


def test_stats_parser():
    text = (
        "work units  : 1400 requested, 0 computed, 1400 from cache, 0 failed\n"
        "cache       : 1400 hits / 0 misses (100.0% hit rate), 0 stored, 0 corrupt quarantined, 0 write failures\n"
        "checkpoint  : 0 jobs resumed, 0 workers respawned, journal on (2801 records)\n"
    )
    assert layers.parse_stats(text) == {
        "units": 1400, "computed": 0, "hits": 1400, "stored": 0, "journal_records": 2801,
    }


def test_pool_busy_fraction_from_a_trace():
    events = [
        {"name": "engine.map", "ph": "X", "ts": 0, "dur": 100, "pid": 1},
        {"name": "job.execute", "ph": "X", "ts": 0, "dur": 30, "pid": 2},
        {"name": "job.execute", "ph": "X", "ts": 50, "dur": 20, "pid": 3},
    ]
    assert layers.pool_busy_frac({"traceEvents": events}, workers=2) == pytest.approx(0.25)
    assert layers.pool_busy_frac({}, workers=2) == 0.0


# -- the replay --------------------------------------------------------------


def test_replay_wrappers_do_not_change_results():
    from repro.runner.difftest import differential_jobs
    from repro.runner.jobs import execute_job

    jobs = differential_jobs(11)[::5] + differential_jobs(4, max_nodes=30)[::9]
    recorder = SpanRecorder("test")
    for job in jobs:
        params = job.to_params()
        plain = execute_job(params)
        with replay.instrumented(recorder):
            timed = execute_job(params)
        for key in ("code_size", "executed", "disabled"):
            assert timed.get(key) == plain.get(key), job.label
    assert recorder.named("stage.vm") and recorder.named("stage.transform")
    from repro.runner import jobs as jobs_module

    assert not hasattr(jobs_module.run_program, "__wrapped__")  # wrappers removed


def test_replay_stages_cover_the_replayed_compute(tmp_path):
    recorder = SpanRecorder("test")
    argv = ["sweep", "--graphs", "3", "--seed", "40", "--max-nodes", "6", "--factors", "2", "3",
            "--jobs", "2", "--no-cache", "--journal", str(tmp_path / "journal")]
    text, metrics = replay.replay_cli(argv, recorder)
    assert text.startswith("differential sweep: PASS")
    assert replay.coverage(recorder) >= 0.9
    assert metrics["ipc.task_bytes"] > 0 and metrics["journal.append_ms"] > 0
    assert metrics["vm.instructions.executed"] > 0


# -- sweep unit references ---------------------------------------------------


def _context() -> run.Context:
    return run.Context(seed=0, seconds=0.0, run_dir=Path("."), env={})


def _reference_results(start: int) -> dict:
    """What ``execute_job`` gives for the units of a reference window."""
    from repro.runner.difftest import differential_jobs
    from repro.runner.jobs import execute_job

    return {
        job.label: execute_job(job.to_params())
        for s in range(start, start + run.VERIFY_GRAPHS)
        for job in differential_jobs(s, factors=run.FACTORS, max_nodes=run.MAX_NODES)
    }


def test_reference_windows_are_the_first_seed0_windows():
    known = json.loads(run.UNIT_DIGESTS.read_text())
    assert set(known) == set(run.SWEEPS)
    for name in run.SWEEPS:
        starts = list(islice(run.window_starts(name, 0), run.REFERENCE_WINDOWS))
        assert [w["start"] for w in known[name]] == starts, name
    # Every seed checks one of them.
    assert {run.reference_window("sweep-serial", s)["start"] for s in range(8)} == {
        w["start"] for w in known["sweep-serial"]
    }


@pytest.mark.parametrize("name", ["sweep-serial", "sweep-pool"])
def test_committed_unit_digests_match_execute_job(name):
    ref = run.reference_window(name, 0)
    results = _reference_results(ref["start"])
    assert len(results) == ref["units"]
    assert run.units_digest(results) == ref["sha256"]
    # A change to one unit's result changes the digest.
    label = sorted(results)[len(results) // 2]
    changed = {**results, label: {**results[label], "code_size": results[label].get("code_size", 0) + 1}}
    assert run.units_digest(changed) != ref["sha256"]


def test_unit_results_are_read_back_from_a_run_journal(tmp_path):
    from repro.runner.journal import RunJournal

    journal = RunJournal(tmp_path)
    journal.job_submitted("k1", "a")
    journal.job_done("k1", "a", {"code_size": 3, "ok": True})
    journal.job_failed("k2", "b", {"ok": False})
    assert run.journaled_results(tmp_path) == {"a": {"code_size": 3, "ok": True}}
    assert run.plain({"code_size": 3, "compute_time": 0.5}) == {"code_size": 3}


def test_setup_probes_are_spread_over_the_reps():
    order = []

    class Rep:
        wall = 0.01

    def rep(_):
        time.sleep(0.01)
        order.append("rep")
        return Rep

    def probe():
        order.append("probe")
        return 0.0

    reps, probes = run.repeat(_context(), rep, 0.3, probe=probe)
    assert len(probes) == run.SETUP_REPS
    assert order[0] == "probe" and order[-1] == "probe"
    between = order[order.index("rep"):len(order) - order[::-1].index("rep")]
    assert between.count("probe") >= run.SETUP_REPS - 3


def test_pace_scales_by_the_reference_times_around_a_measurement(monkeypatch):
    times = iter([0.30, 0.10, 0.20])
    monkeypatch.setattr(run.Pace, "_time", lambda self: next(times))
    pace = run.Pace({})
    # The first measurement ran between references of 0.30 and 0.10 s, so
    # the host ran at REFERENCE_S / 0.20 of the reported speed.
    assert pace.factor() == pytest.approx(run.REFERENCE_S / 0.20)
    assert pace.factor() == pytest.approx(run.REFERENCE_S / 0.15)


def test_pace_times_the_reference_process(tmp_path):
    pace = run.Pace(run.hermetic_env(tmp_path))
    assert pace.factor() > 0
    assert len(pace.samples) == 2 and all(t > 0 for t in pace.samples)


# -- the declaration -----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_benchmark_json_stays_within_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_what_it_moves():
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers.WORKLOADS) == workloads
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.LAYERS)
    for name, (moves, where, bypassed) in layers.LAYERS.items():
        assert moves in end_to_end, name
        assert where in workloads and where not in bypassed, name
        assert set(bypassed) <= workloads, name


def test_tables_reference_is_the_committed_golden_file():
    golden = ROOT / "tests" / "data" / "golden" / "clean_paper_tables.txt"
    assert (HERE / "expected" / "tables.txt").read_bytes() == golden.read_bytes()


def test_compare_verdicts():
    assert compare.verdict([100, 101, 99, 100], [130, 131, 129, 130], 0.1, "lower") == "worse"
    assert compare.verdict([100, 101, 99, 100], [70, 71, 69, 70], 0.1, "lower") == "better"
    assert compare.verdict([100, 101, 99, 100], [102, 101, 103, 102], 0.1, "lower") == "same"
    assert compare.verdict([100, 101, 99, 100], [102, 101, 103, 102], 0.1, "higher") == "same"
    assert compare.verdict([50, 100, 150, 200], [60, 110, 160, 210], 0.1, "lower") == "unresolved"
