"""Per-graph stage reuse: shared stages never change a payload or a
counter, only how often the stages run."""

from __future__ import annotations

import json
import random

import pytest

from repro import observability
from repro.graph.dfg import DFGError
from repro.runner import jobs as jobs_module
from repro.runner.difftest import differential_jobs
from repro.runner.engine import ExperimentEngine
from repro.runner.jobs import Job, execute_job
from repro.runner.reuse import GRAPHS, ReuseScope, reuse

#: A 10-graph window of the differential sweep.
WINDOW = [job.to_params() for seed in range(10) for job in differential_jobs(seed)]


def _plain(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "compute_time"}


@pytest.fixture
def observed():
    observability.OBS.reset()
    observability.enable()
    try:
        yield observability.OBS
    finally:
        observability.disable()
        observability.OBS.reset()


def _logical(metrics) -> dict:
    """Counters and histograms of the stage work (the engine's own cache
    counters aside)."""
    doc = metrics.as_dict()
    counters = {k: v for k, v in doc["counters"].items() if not k.startswith("cache.")}
    return {"counters": counters, "histograms": doc["histograms"]}


@pytest.fixture(scope="module")
def cold() -> list[dict]:
    """Every window unit computed outside any scope."""
    return [_plain(execute_job(p)) for p in WINDOW]


class TestPayloads:
    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_reuse_equals_cold(self, cold, order):
        indices = list(range(len(WINDOW)))
        if order == "reversed":
            indices.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(indices)
        with reuse() as scope:
            got = {i: _plain(execute_job(WINDOW[i])) for i in indices}
        assert [got[i] for i in range(len(WINDOW))] == cold
        assert scope.stats.hits > 0
        if order != "shuffled":  # graph-major: each graph evicted once
            assert scope.stats.hits > scope.stats.builds
            assert scope.stats.evictions == len({p["graph"] for p in WINDOW}) - GRAPHS

    def test_capacity_one_evicts_on_every_graph(self, cold):
        indices = list(range(len(WINDOW)))
        random.Random(11).shuffle(indices)
        with reuse(ReuseScope(capacity=1)) as scope:
            got = {i: _plain(execute_job(WINDOW[i])) for i in indices}
        assert [got[i] for i in range(len(WINDOW))] == cold
        assert scope.stats.evictions > len({p["graph"] for p in WINDOW})


class TestCounters:
    UNITS = [job for seed in range(3) for job in differential_jobs(seed)]

    def test_serial_pool_and_cold_sum_agree(self, observed):
        for job in self.UNITS:
            execute_job(job.to_params())
        cold_sum = _logical(observed.metrics)

        runs = []
        for jobs_n in (1, 2):
            observed.reset()
            engine = ExperimentEngine(jobs=jobs_n, cache=None)
            assert all(r.ok for r in engine.run_jobs(self.UNITS))
            assert engine.reuse.hits > 0
            runs.append(_logical(observed.metrics))
        assert runs[0] == cold_sum
        assert runs[1] == cold_sum

    @pytest.mark.parametrize("flags", [[], ["--jobs", "2"]], ids=["serial", "pool"])
    def test_sweep_metrics_equal_the_pinned_run(self, tmp_path, capsys, flags):
        """Sharing graphs, instructions and compiled code below the stages
        changes no count: a sweep's ``--metrics-out`` counters and
        histograms equal those pinned from a run that derived everything
        afresh in every cell."""
        from pathlib import Path

        from repro.__main__ import main

        pinned = json.loads(
            (Path(__file__).parents[1] / "data" / "metrics" / "sweep-seed9.json").read_text()
        )
        out = tmp_path / "m.json"
        argv = ["sweep", "--graphs", "4", "--seed", "9", "--no-cache", "--metrics-out", str(out)]
        observability.OBS.reset()
        try:
            assert main(argv + flags) == 0
        finally:
            observability.disable()
            observability.OBS.reset()
        capsys.readouterr()
        metrics = json.loads(out.read_text())
        # A fault plan (REPRO_FAULT_PLAN) adds its retries as ``jobs.*``
        # counters; it injects before a unit runs, so the work is the same.
        work = {k: v for k, v in metrics["counters"].items() if not k.startswith("jobs.")}
        assert work == pinned["counters"]
        assert metrics["histograms"] == pinned["histograms"]

    def test_unobserved_entry_does_not_serve_an_observed_lookup(self):
        params = Job(transform="csr-pipelined", workload="iir", trip_count=9).to_params()
        scope = ReuseScope()
        with reuse(scope):
            execute_job(params)  # observability off: entries carry no delta
        built = scope.stats.builds
        observability.OBS.reset()
        observability.enable()
        try:
            with reuse(scope):
                execute_job(params)
            warm = _logical(observability.OBS.metrics)
            assert scope.stats.builds == 2 * built  # every stage rebuilt
            observability.OBS.reset()
            execute_job(params)
            assert warm == _logical(observability.OBS.metrics)
            assert warm["counters"]["vm.instructions.executed"] > 0
            # Now observed, the entries serve both kinds of lookup.
            with reuse(scope):
                execute_job(params)
            observability.disable()
            with reuse(scope):
                execute_job(params)
        finally:
            observability.disable()
            observability.OBS.reset()
        assert scope.stats.builds == 2 * built


STAGE_FUNCTIONS = (
    "from_json",
    "minimize_cycle_period",
    "retime_unfold",
    "original_loop",
    "csr_retimed_unfolded_loop",
    "run_program",
)


def _count_calls(monkeypatch) -> dict:
    calls = dict.fromkeys(STAGE_FUNCTIONS, 0)
    for name in STAGE_FUNCTIONS:
        original = getattr(jobs_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(jobs_module, name, counted)
    return calls


class TestScopeRule:
    PARAMS = [
        Job(transform=t, workload="iir", factor=2, trip_count=9).to_params()
        for t in ("csr-pipelined", "csr-retime-unfold")
    ]

    def test_outside_a_scope_every_call_builds_every_stage(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        for _ in range(2):
            for params in self.PARAMS:
                assert execute_job(params)["ok"]
        assert calls == {
            "from_json": 4,
            "minimize_cycle_period": 2,
            "retime_unfold": 2,
            "original_loop": 4,
            "csr_retimed_unfolded_loop": 2,
            "run_program": 4,  # the reference (verify runs the program)
        }

    def test_inside_a_scope_each_stage_builds_once(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        with reuse():
            for _ in range(2):
                for params in self.PARAMS:
                    assert execute_job(params)["ok"]
        assert calls == {
            "from_json": 1,
            "minimize_cycle_period": 1,
            "retime_unfold": 1,
            "original_loop": 1,
            "csr_retimed_unfolded_loop": 1,
            "run_program": 1,
        }

    def test_failed_build_fails_in_band_every_time_and_stores_nothing(self, monkeypatch):
        attempts = []

        def broken(g, f, period=None):
            attempts.append(f)
            raise DFGError("no retiming")

        monkeypatch.setattr(jobs_module, "retime_unfold", broken)
        scope = ReuseScope()
        with reuse(scope):
            for _ in range(3):
                payload = execute_job(self.PARAMS[1])
                assert payload["ok"] is False and payload["error"] == "no retiming"
        assert attempts == [2, 2, 2]
        assert scope.stats.builds == 1  # the parsed graph only

        bad = dict(self.PARAMS[0], graph="not json")
        with reuse(scope):
            for _ in range(2):
                assert execute_job(bad)["error_type"] == "GraphFormatError"
        assert scope.stats.builds == 1


class TestStats:
    UNITS = [job for seed in range(2) for job in differential_jobs(seed)]

    def test_stats_line_merges_worker_deltas(self):
        serial = ExperimentEngine(jobs=1, cache=None)
        serial.run_jobs(self.UNITS)
        pool = ExperimentEngine(jobs=2, cache=None)
        pool.run_jobs(self.UNITS)
        for engine in (serial, pool):
            assert engine.reuse.hits > engine.reuse.builds > 0
            assert f"reuse       : {engine.reuse.hits} stage hits, " in engine.stats_summary()
        # Each of the two workers builds the stages it uses.
        assert pool.reuse.builds >= serial.reuse.builds

    def test_pool_builds_each_graph_once_like_serial(self):
        """Graph-affine chunks: on a 10-graph window a 2-worker pool builds
        exactly what a serial run builds, with byte-identical payloads."""
        runs = []
        for jobs_n in (1, 2):
            engine = ExperimentEngine(jobs=jobs_n, cache=None)
            payloads = engine.map_cached("job", execute_job, WINDOW)
            text = [json.dumps(_plain(p), sort_keys=True) for p in payloads]
            runs.append((engine.reuse.builds, text))
        assert runs[1] == runs[0]
        assert runs[0][0] > 0

    def test_a_batch_of_one_unit_runs_in_a_scope(self):
        engine = ExperimentEngine(jobs=1, cache=None)
        engine.run_jobs(self.UNITS[:1])
        assert engine.reuse.builds > 0
