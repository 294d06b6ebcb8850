"""Engine behavior: ordering, parallelism, stats, and the job matrix."""

from __future__ import annotations

import os

import pytest

from repro.runner import (
    ExperimentEngine,
    Job,
    NullCache,
    ResultCache,
    TRANSFORMS,
    jobs_for_matrix,
)
from repro.runner.engine import _chunks


def _matrix() -> list[Job]:
    return jobs_for_matrix(
        workloads=["iir", "figure4"],
        transforms=["original", "csr-pipelined", "csr-retime-unfold", "orders"],
        factors=[2, 3],
        trip_counts=[0, 9],
    )


class TestEngine:
    def test_results_in_submission_order(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        jobs = _matrix()
        results = engine.run_jobs(jobs)
        assert [r.job for r in results] == jobs
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]

    def test_parallel_equals_serial(self, tmp_path):
        """Determinism under parallelism: a 2-worker pool returns payloads
        bit-identical to an inline run of the same matrix."""
        jobs = _matrix()
        serial = ExperimentEngine(jobs=1, cache=None).run_jobs(jobs)
        parallel = ExperimentEngine(jobs=2, cache=None).run_jobs(jobs)
        assert [r.payload for r in serial] == [r.payload for r in parallel]

    def test_second_run_is_all_hits(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        jobs = _matrix()
        first = engine.run_jobs(jobs)
        assert not any(r.cached for r in first)
        second = engine.run_jobs(jobs)
        assert all(r.cached for r in second)
        assert [r.payload for r in first] == [r.payload for r in second]
        assert engine.cache.stats.hit_rate == 0.5  # second half all hits

    def test_cross_engine_cache_sharing(self, tmp_path):
        """Two engines over one cache dir: the second replays the first."""
        jobs = _matrix()
        a = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        b = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        pa = [r.payload for r in a.run_jobs(jobs)]
        rb = b.run_jobs(jobs)
        assert all(r.cached for r in rb)
        assert [r.payload for r in rb] == pa

    def test_stats_accumulate(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        jobs = _matrix()
        results = engine.run_jobs(jobs)
        s = engine.stats
        assert s.calls == len(jobs)
        assert s.computed == len(jobs)
        assert s.vm_executed > 0
        assert s.wall_time > 0
        walls = [(r.job.label, r.wall_time) for r in results]
        assert s.slowest == max(walls, key=lambda kv: kv[1])
        summary = engine.stats_summary()
        assert "hit rate" in summary and "computes executed" in summary
        assert f"slowest     : {s.slowest[0]} " in summary

    def test_map_cached_generic_fn(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        out = engine.map_cached("square", _square, [{"x": i} for i in range(5)])
        assert [p["y"] for p in out] == [0, 1, 4, 9, 16]
        again = engine.map_cached("square", _square, [{"x": i} for i in range(5)])
        assert again == out
        assert engine.cache.stats.hits == 5

    def test_engine_jobs_zero_means_cpu_count(self):
        assert ExperimentEngine(jobs=0, cache=None).jobs >= 1
        assert isinstance(ExperimentEngine(jobs=0, cache=None).cache, NullCache)


def _square(params: dict) -> dict:
    return {"ok": True, "y": params["x"] ** 2}


class TestJobMatrix:
    def test_factorless_transforms_not_duplicated(self):
        jobs = jobs_for_matrix(["iir"], ["csr-pipelined"], [2, 3, 4], [5])
        assert len(jobs) == 1  # factor-independent: one cell, not three

    def test_factorful_transforms_sweep_factors(self):
        jobs = jobs_for_matrix(["iir"], ["csr-unfolded"], [2, 3, 4], [5, 6])
        assert len(jobs) == 6

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            Job(transform="nonsense", workload="iir")

    def test_graph_source_is_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            Job(transform="original")
        with pytest.raises(ValueError, match="exactly one"):
            Job(transform="original", workload="iir", graph_json="{}")

    def test_labels_parse_each_graph_once(self, monkeypatch):
        from repro.runner import jobs as jobs_module
        from repro.runner.difftest import differential_jobs

        jobs = differential_jobs(11)
        parses = []
        real_loads = jobs_module.json.loads
        monkeypatch.setattr(
            jobs_module.json, "loads", lambda s: parses.append(s) or real_loads(s)
        )
        jobs_module._graph_name.cache_clear()
        labels = [job.label for job in jobs + jobs]
        assert len(set(labels)) == len(jobs)
        assert labels[0].startswith("rand11/original/")
        assert len(parses) == 1

    def test_all_transforms_run_on_a_benchmark(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=None)
        jobs = [
            Job(transform=t, workload="figure4", factor=2, trip_count=8)
            for t in TRANSFORMS
        ]
        results = engine.run_jobs(jobs)
        failed = [r.job.label for r in results if not r.ok]
        assert not failed, failed


class TestCrossProcessStats:
    """Workers own cache I/O in parallel mode; their stats deltas must
    merge into the parent so ``--stats`` reports fleet-wide numbers."""

    JOBS = [{"x": i} for i in range(6)]

    def test_cold_parallel_run_pins_miss_and_put_totals(self, tmp_path):
        engine = ExperimentEngine(jobs=2, cache=ResultCache(tmp_path))
        engine.map_cached("square", _square, self.JOBS)
        c = engine.cache.stats
        assert c.as_dict() == {
            "hits": 0,
            "misses": len(self.JOBS),
            "puts": len(self.JOBS),
            "discarded": 0,
            "write_failures": 0,
            "quarantine_pruned": 0,
        }

    def test_warm_parallel_run_pins_aggregate_hits(self, tmp_path):
        ExperimentEngine(jobs=2, cache=ResultCache(tmp_path)).map_cached(
            "square", _square, self.JOBS
        )
        warm = ExperimentEngine(jobs=2, cache=ResultCache(tmp_path))
        out = warm.map_cached("square", _square, self.JOBS)
        assert [p["y"] for p in out] == [i**2 for i in range(6)]
        c = warm.cache.stats
        # The pinned fleet-wide aggregate: every lookup happened in some
        # worker process, yet the parent reports them all.
        assert c.hits == len(self.JOBS)
        assert c.misses == 0
        assert c.hit_rate == 1.0
        assert warm.stats.computed == 0

    def test_parallel_null_cache_counts_worker_misses(self):
        engine = ExperimentEngine(jobs=2, cache=None)
        engine.map_cached("square", _square, self.JOBS)
        assert engine.cache.stats.misses == len(self.JOBS)
        assert engine.cache.stats.puts == 0

    def test_publish_metrics_exports_fleet_hit_rate(self, tmp_path):
        from repro import observability

        observability.OBS.reset()
        try:
            ExperimentEngine(jobs=2, cache=ResultCache(tmp_path)).map_cached(
                "square", _square, self.JOBS
            )
            warm = ExperimentEngine(jobs=2, cache=ResultCache(tmp_path))
            warm.map_cached("square", _square, self.JOBS)
            warm.publish_metrics()
            gauges = observability.OBS.metrics.as_dict()["gauges"]
            assert gauges["cache.hit_rate"] == 100.0
            assert gauges["cache.lookups"] == len(self.JOBS)
            assert gauges["engine.computed"] == 0
        finally:
            observability.OBS.reset()

    def test_worker_spans_and_counters_aggregate(self, tmp_path):
        """With observability on, worker-process spans land under the
        parent's engine.map span and worker counters merge into the
        parent registry — equal to what a serial run records."""
        from repro import observability
        from repro.runner.jobs import Job

        jobs = [
            Job(transform="csr-pipelined", workload="iir", trip_count=n)
            for n in (5, 6, 7, 8)
        ]

        def run(jobs_n, cache_dir):
            observability.OBS.reset()
            observability.enable()
            try:
                engine = ExperimentEngine(jobs=jobs_n, cache=ResultCache(cache_dir))
                engine.run_jobs(jobs)
                counters = observability.OBS.metrics.as_dict()["counters"]
                roots = observability.OBS.tracer.roots
                return counters, roots
            finally:
                observability.disable()
                observability.OBS.reset()

        parallel_counters, parallel_roots = run(2, tmp_path / "par")
        serial_counters, _ = run(1, tmp_path / "ser")

        # Worker job spans nest under the parent batch span, keeping
        # their worker pids.
        batch = next(r for r in parallel_roots if r.name == "engine.map")
        names = {s.name for s in batch.walk()}
        assert "job.execute" in names and "vm.run" in names
        # Counter totals are partition-invariant (cache.puts included:
        # both runs were cold).
        assert parallel_counters == serial_counters
        assert parallel_counters["vm.instructions.executed"] > 0


def _where(params: dict) -> dict:
    return {"ok": True, "i": params["i"], "pid": os.getpid()}


def _units(graphs: str) -> list[dict]:
    """One unit per character; equal characters share a graph, ``-``
    has none."""
    return [
        {"i": i} if g == "-" else {"i": i, "graph": g} for i, g in enumerate(graphs)
    ]


class TestChunkedDispatch:
    """The process pool runs graph-affine chunks, one task per chunk."""

    @pytest.mark.parametrize(
        "graphs", ["aaabbbbcc", "abababab", "aaaa--bb--", "a", "-----", "aab"]
    )
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_chunks_cover_in_order_and_never_span_two_graphs(self, graphs, workers):
        units = _units(graphs)
        chunks = _chunks(units, workers)
        assert [i for c in chunks for i in c] == list(range(len(units)))
        for c in chunks:
            assert len(c) > 0
            assert len({units[i].get("graph") for i in c}) == 1
        assert len(chunks) >= min(workers, len(units))

    def test_runs_are_maximal_when_there_are_enough(self):
        assert _chunks(_units("aaabbbbcc"), 2) == [range(0, 3), range(3, 7), range(7, 9)]
        # Graph-less units form runs of their own.
        assert _chunks(_units("aa--b-"), 1) == [
            range(0, 2), range(2, 4), range(4, 5), range(5, 6)
        ]

    def test_one_graph_keeps_its_parallelism(self):
        assert _chunks(_units("a" * 70), 2) == [range(0, 35), range(35, 70)]
        assert [len(c) for c in _chunks(_units("a" * 70), 4)] == [17, 18, 17, 18]

    def test_pool_results_come_back_in_submission_order(self):
        units = _units("aaabbbbcc-d")
        engine = ExperimentEngine(jobs=2, cache=None)
        out = engine.map_cached("where", _where, units)
        assert [p["i"] for p in out] == list(range(len(units)))
        # Each chunk ran in one worker process.
        for c in _chunks(units, 2):
            assert len({out[i]["pid"] for i in c}) == 1

    def test_pool_class_is_looked_up_when_a_pool_starts(self, monkeypatch):
        """The engine module binds ``ProcessPoolExecutor`` lazily, and a
        pool uses whatever the name is bound to at the time."""
        from concurrent.futures import Future, ProcessPoolExecutor

        import repro.runner.engine as engine_module

        assert engine_module.ProcessPoolExecutor is ProcessPoolExecutor
        started = []

        class InlinePool:
            def __init__(self, max_workers=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, task):
                future = Future()
                future.set_result(fn(task))
                return future

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", InlinePool)
        units = _units("aabb")
        out = ExperimentEngine(jobs=2, cache=None).map_cached("where", _where, units)
        assert started == [2]
        assert [p["i"] for p in out] == list(range(len(units)))
        assert {p["pid"] for p in out} == {os.getpid()}

    def test_pool_chunk_spans_show_the_chunk_layout(self):
        from repro import observability

        jobs = [
            Job(transform=t, workload=w, factor=2, trip_count=9)
            for w in ("iir", "figure4")
            for t in ("original", "csr-pipelined", "csr-retime-unfold")
        ]
        observability.OBS.reset()
        observability.enable()
        try:
            ExperimentEngine(jobs=2, cache=None).run_jobs(jobs)
            roots = observability.OBS.tracer.roots
        finally:
            observability.disable()
            observability.OBS.reset()
        batch = next(r for r in roots if r.name == "engine.map")
        assert batch.attributes["chunks"] == 2
        chunks = [s for s in batch.walk() if s.name == "pool.chunk"]
        assert [c.attributes["units"] for c in chunks] == [3, 3]
        nodes = [len(list(job.graph().nodes())) for job in jobs[::3]]
        assert sorted(c.attributes["graph"] for c in chunks) == sorted(nodes)
        for c in chunks:
            assert sum(1 for s in c.walk() if s.name == "job.execute") == 3

    def test_journaled_pool_run_commits_once_per_chunk(self, tmp_path, monkeypatch):
        import repro.runner.journal as journal_module
        from repro.runner import RunJournal, scan_journal

        engine = ExperimentEngine(jobs=2, cache=None)
        engine.journal = RunJournal(tmp_path)
        engine.journal.run_start("test", {})
        fsyncs = []
        real = journal_module.os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: (fsyncs.append(fd), real(fd))
        )
        units = _units("aaabbbbcc")
        out = engine.map_cached("where", _where, units)
        engine.journal.close()
        # One commit for the submitted records, one per landed chunk.
        assert len(fsyncs) == 1 + 3
        scan = scan_journal(tmp_path / "journal.jsonl")
        types = [r["type"] for r in scan.records]
        assert types == ["run.start"] + ["job.submitted"] * 9 + ["job.done"] * 9
        done = scan.completed()
        assert sorted(d["payload"]["i"] for d in done.values()) == [p["i"] for p in out]

    def test_journaled_serial_run_commits_once_per_chunk(self, tmp_path, monkeypatch):
        """Inline completions group-commit at the pool's chunk boundaries:
        one fsync per graph-affine run of units, not one per unit."""
        import repro.runner.journal as journal_module
        from repro.runner import RunJournal, scan_journal

        engine = ExperimentEngine(jobs=1, cache=None)
        engine.journal = RunJournal(tmp_path)
        engine.journal.run_start("test", {})
        fsyncs = []
        real = journal_module.os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: (fsyncs.append(fd), real(fd))
        )
        units = _units("aaabbbbcc--d")
        out = engine.map_cached("where", _where, units)
        engine.journal.close()
        # One commit for the submitted records, one per chunk.
        assert len(_chunks(units, 1)) == 5
        assert len(fsyncs) == 1 + 5
        scan = scan_journal(tmp_path / "journal.jsonl")
        types = [r["type"] for r in scan.records]
        assert types == ["run.start"] + ["job.submitted"] * 12 + ["job.done"] * 12
        done = scan.completed()
        assert sorted(d["payload"]["i"] for d in done.values()) == [p["i"] for p in out]

    def test_keys_are_computed_only_when_something_reads_them(self, tmp_path, monkeypatch):
        """No cache, journal, resume state or fabric: no unit is hashed."""
        import repro.runner.engine as engine_module
        from repro.runner import RunJournal

        hashed = []
        real = engine_module.cache_key
        monkeypatch.setattr(
            engine_module, "cache_key", lambda kind, p: hashed.append(p) or real(kind, p)
        )
        units = _units("aab")
        for jobs in (1, 2):
            out = ExperimentEngine(jobs=jobs, cache=None).map_cached("where", _where, units)
            assert [p["i"] for p in out] == [0, 1, 2]
        assert hashed == []
        ExperimentEngine(jobs=1, cache=tmp_path / "cache").map_cached("where", _where, units)
        assert len(hashed) == 3
        engine = ExperimentEngine(jobs=1, cache=None)
        engine.journal = RunJournal(tmp_path / "journal")
        engine.map_cached("where", _where, units)
        engine.journal.close()
        assert len(hashed) == 6


class TestOneLandingPath:
    """Serial, pool and fabric batches run the one unit loop and land
    through one path, so their journals agree record for record."""

    def _plan(self, labels: list[str]):
        from repro.runner.resilience import FaultPlan, FaultSpec

        # Every unit crashes once and retries; one crashes on every attempt.
        return FaultPlan([
            FaultSpec("job.start", labels[3], times=0),
            FaultSpec("job.start", "*", times=1),
        ])

    @pytest.mark.parametrize("executor", ["serial", "pool", "fabric"])
    def test_every_executor_journals_the_same_completions(self, tmp_path, executor):
        from repro.runner import (
            RemoteFabric, RetryPolicy, RunJournal, resilience, scan_journal,
        )
        from repro.runner.cache import cache_key
        from repro.runner.jobs import execute_job
        from repro.runner.resilience import run_attempts

        jobs = _matrix()
        labels = [j.label for j in jobs]
        keys = [cache_key("job", j.to_params()) for j in jobs]
        retry = RetryPolicy(max_attempts=3, backoff=0.0)
        # The reference: each unit on its own, straight through the retry loop.
        expected = []
        with resilience.activated(self._plan(labels)):
            for job, key in zip(jobs, keys):
                payload, outcome, _ = run_attempts(
                    execute_job, job.to_params(), job.label, retry
                )
                kind = "job.done" if outcome.status == "ok" else "job.failed"
                expected.append((kind, key, job.label, payload, False, outcome.status))
        assert {e[5] for e in expected} == {"ok", "failed"}

        remote = None
        if executor == "fabric":
            remote = RemoteFabric(workers=0, worker_grace=0.05, poll_interval=0.01)
        engine = ExperimentEngine(
            jobs=2 if executor == "pool" else 1, cache=None, retry=retry, remote=remote
        )
        engine.journal = RunJournal(tmp_path)
        try:
            with resilience.activated(self._plan(labels)):
                engine.run_jobs(jobs)
        finally:
            engine.journal.close()
            engine.close()
        if remote is not None:
            assert remote.fallback_units == len(jobs)
        records = [
            r for r in scan_journal(tmp_path / "journal.jsonl").records
            if r["type"] in ("job.done", "job.failed")
        ]
        if executor != "pool":  # a pool journals its chunks as they finish
            assert [r["data"]["key"] for r in records] == keys
        records.sort(key=lambda r: keys.index(r["data"]["key"]))
        got = [
            (r["type"], d["key"], d["label"], d["payload"], d.get("cached", False),
             d["outcome"]["status"])
            for r in records
            for d in [r["data"]]
        ]
        assert got == expected
