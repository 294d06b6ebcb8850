"""Fault-injection and recovery tests for the resilience layer.

Every named injection site is driven end to end — worker crashes that
retry and succeed, retry exhaustion degrading to FAILED cells, injected
and real deadlines, cache corruption through quarantine, crashed cache
writers — and the load-bearing property is pinned throughout: a run whose
faults were all *recovered* produces results bit-identical to a fault-free
run, with the recovery visible only in the stats.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.runner import (
    ExperimentEngine,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    Job,
    JobTimeoutError,
    ResultCache,
    RetryPolicy,
    cache_key,
    resilience,
)
from repro.runner.difftest import differential_sweep
from repro.runner.resilience import run_attempts

# A fast policy for tests: same attempt budget, no sleeping.
FAST = RetryPolicy(max_attempts=3, backoff=0.0)


def _square(params: dict) -> dict:
    return {"ok": True, "y": params["x"] ** 2}


def _slow_square(params: dict) -> dict:
    import time

    time.sleep(params.get("sleep", 0.05))
    return {"ok": True, "y": params["x"] ** 2}


def _crash_once_plan(site: str = "job.start", match: str = "*") -> FaultPlan:
    return FaultPlan([FaultSpec(site=site, match=match, times=1)])


class TestFaultPlanParsing:
    def test_from_inline_json(self):
        plan = FaultPlan.from_spec(
            '{"seed": 9, "faults": [{"site": "job.start", "match": "a*"}]}'
        )
        assert plan.seed == 9
        assert plan.faults == [FaultSpec("job.start", "a*", 1, 1.0)]

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"site": "cache.read", "times": 0}]}')
        plan = FaultPlan.from_spec(str(path))
        assert plan.faults == [FaultSpec("cache.read", "*", 0, 1.0)]

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(resilience.FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(
            resilience.FAULT_PLAN_ENV, '{"faults": [{"site": "job.timeout"}]}'
        )
        plan = FaultPlan.from_env()
        assert plan.faults[0].site == "job.timeout"

    def test_roundtrip_through_dict(self):
        plan = FaultPlan(
            [FaultSpec("job.start", "t*", 2, 0.5)], seed=3
        )
        again = FaultPlan.from_dict(plan.as_dict())
        assert again.seed == plan.seed and again.faults == plan.faults

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="job.nonsense")
        with pytest.raises(ValueError, match="times"):
            FaultSpec(site="job.start", times=-1)
        with pytest.raises(ValueError, match="prob"):
            FaultSpec(site="job.start", prob=1.5)
        with pytest.raises(ValueError, match="invalid fault-plan JSON"):
            FaultPlan.from_json("{broken")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")


class TestFaultPlanFiring:
    def test_times_budget_counts_occurrences(self):
        plan = FaultPlan([FaultSpec("job.start", "*", times=2)])
        fired = [plan.fire("job.start", "job-a") is not None for _ in range(4)]
        assert fired == [True, True, False, False]

    def test_counters_are_per_site_and_label(self):
        plan = FaultPlan([FaultSpec("job.start", "*", times=1)])
        assert plan.fire("job.start", "a") is not None
        assert plan.fire("job.start", "b") is not None  # fresh counter
        assert plan.fire("job.start", "a") is None

    def test_times_zero_fires_forever(self):
        plan = FaultPlan([FaultSpec("cache.write", "*", times=0)])
        assert all(plan.fire("cache.write", "k") is not None for _ in range(10))

    def test_match_pattern_filters_labels(self):
        plan = FaultPlan([FaultSpec("job.start", "table1:*", times=0)])
        assert plan.fire("job.start", "table1:iir") is not None
        assert plan.fire("job.start", "table2:iir") is None

    def test_prob_is_deterministic_across_instances(self):
        spec = {"seed": 42, "faults": [{"site": "job.start", "times": 0, "prob": 0.5}]}
        labels = [f"job-{i}" for i in range(64)]

        def draw():
            plan = FaultPlan.from_dict(spec)
            return [plan.fire("job.start", lab) is not None for lab in labels]

        first = draw()
        assert draw() == first  # pure in (seed, site, label, occurrence)
        assert any(first) and not all(first)  # an actual coin, not a constant
        other_seed = FaultPlan.from_dict({**spec, "seed": 43})
        assert [
            other_seed.fire("job.start", lab) is not None for lab in labels
        ] != first

    def test_fault_point_noop_without_plan(self):
        resilience.deactivate()
        resilience.fault_point("job.start", "anything")  # must not raise
        assert resilience.corrupt_point("k", "raw") == "raw"

    def test_fault_point_raises_typed_errors(self):
        with resilience.activated(FaultPlan([FaultSpec("job.start")])):
            with pytest.raises(FaultInjected) as exc:
                resilience.fault_point("job.start", "j")
            assert exc.value.site == "job.start" and exc.value.occurrence == 1
        with resilience.activated(FaultPlan([FaultSpec("job.timeout")])):
            with pytest.raises(JobTimeoutError):
                resilience.fault_point("job.timeout", "j")


class TestRunAttempts:
    def test_retry_then_succeed(self):
        with resilience.activated(_crash_once_plan()):
            payload, outcome, _ = run_attempts(_square, {"x": 4}, "j", FAST)
        assert payload == {"ok": True, "y": 16}
        assert outcome.status == "ok"
        assert outcome.attempts == 2 and outcome.retried == 1
        assert outcome.faults == ["job.start@1"]

    def test_retry_exhaustion_degrades_to_failure_payload(self):
        plan = FaultPlan([FaultSpec("job.start", times=0)])
        with resilience.activated(plan):
            payload, outcome, wall = run_attempts(_square, {"x": 4}, "j", FAST)
        assert payload["ok"] is False and payload["failed"] is True
        assert payload["status"] == "failed"
        assert payload["error_type"] == "FaultInjected"
        assert outcome.status == "failed" and outcome.attempts == 3
        assert outcome.faults == ["job.start@1", "job.start@2", "job.start@3"]

    def test_injected_timeout_reports_timed_out(self):
        plan = FaultPlan([FaultSpec("job.timeout", times=0)])
        with resilience.activated(plan):
            payload, outcome, _ = run_attempts(_square, {"x": 2}, "j", FAST)
        assert payload["status"] == "timed_out"
        assert outcome.status == "timed_out"

    def test_real_deadline_times_out_slow_jobs(self):
        policy = RetryPolicy(max_attempts=2, backoff=0.0, timeout=0.001)
        payload, outcome, _ = run_attempts(
            _slow_square, {"x": 2, "sleep": 0.05}, "slow", policy
        )
        assert outcome.status == "timed_out" and outcome.attempts == 2
        assert payload["ok"] is False
        # A fast job sails under the same deadline.
        payload, outcome, _ = run_attempts(
            _square, {"x": 2}, "fast", policy
        )
        assert outcome.status == "ok" and payload["y"] == 4

    def test_inband_errors_are_not_retried(self):
        calls = []

        def flaky_answer(params):
            calls.append(1)
            return {"ok": False, "error": "deterministic graph error"}

        payload, outcome, _ = run_attempts(flaky_answer, {}, "j", FAST)
        assert len(calls) == 1  # a result, not a crash: no retry
        assert outcome.status == "ok"  # execution succeeded
        assert payload["ok"] is False and "failed" not in payload

    def test_unplanned_exceptions_also_retry(self):
        state = {"n": 0}

        def crashes_once(params):
            state["n"] += 1
            if state["n"] == 1:
                raise OSError("transient")
            return {"ok": True}

        payload, outcome, _ = run_attempts(crashes_once, {}, "j", FAST)
        assert payload == {"ok": True}
        assert outcome.faults == ["OSError@1"]

    def test_backoff_delays_are_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff=0.1, backoff_cap=0.3)
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == [0.1, 0.2, 0.3, 0.3]
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)


class TestCacheFaultSites:
    def test_cache_read_corruption_quarantines_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("square", {"x": 3})
        cache.put(key, {"ok": True, "y": 9})
        plan = FaultPlan([FaultSpec("cache.read", times=1)])
        with resilience.activated(plan):
            assert cache.get(key) is None  # truncated bytes fail the sha
        assert cache.stats.discarded == 1
        assert len(cache.quarantined_entries()) == 1
        # The next read (no fault budget left) misses; a recompute
        # restores the entry.
        assert cache.get(key) is None
        assert cache.put_safe(key, {"ok": True, "y": 9}) is True
        assert cache.get(key) == {"ok": True, "y": 9}

    def test_cache_write_crash_leaves_no_live_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = FaultPlan([FaultSpec("cache.write", times=1)])
        with resilience.activated(plan):
            with pytest.raises(FaultInjected):
                cache.put("aa" * 32, {"ok": True})
            assert len(cache) == 0  # atomic: no torn entry, no temp junk
            assert not list(cache.root.rglob("*.tmp"))
            assert cache.put_safe("aa" * 32, {"ok": True}) is True  # budget spent
        assert cache.get("aa" * 32) == {"ok": True}

    def test_put_safe_degrades_to_counter(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = FaultPlan([FaultSpec("cache.write", times=0)])
        with resilience.activated(plan):
            assert cache.put_safe("bb" * 32, {"ok": True}) is False
        assert cache.stats.write_failures == 1
        assert cache.stats.puts == 0

    def test_unwritable_store_keeps_the_payload(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"ok": True, "v": 7}
        plan = FaultPlan([FaultSpec("cache.write", times=0)])
        with resilience.activated(plan):
            assert cache.get("cc" * 32) is None
            assert cache.put_safe("cc" * 32, payload) is False
        assert payload == {"ok": True, "v": 7}  # the payload is never lost
        assert cache.stats.write_failures == 1
        assert cache.get("cc" * 32) is None  # recomputed on the next run


class TestEngineRecovery:
    JOBS = [{"x": i} for i in range(6)]

    def _run(self, jobs_n, plan, tmp_path=None, retry=FAST):
        cache = ResultCache(tmp_path) if tmp_path else None
        engine = ExperimentEngine(jobs=jobs_n, cache=cache, retry=retry)
        if plan is not None:
            with resilience.activated(plan):
                out = engine.map_cached("square", _square, self.JOBS)
        else:
            out = engine.map_cached("square", _square, self.JOBS)
        return out, engine

    def test_recovered_faults_are_bit_identical_to_fault_free(self, tmp_path):
        """The acceptance criterion: inject recoverable faults everywhere,
        get the exact same payloads, with the recovery visible in stats."""
        clean, _ = self._run(1, None, tmp_path / "clean")
        plan = FaultPlan(
            [
                FaultSpec("job.start", "*", times=1),
                FaultSpec("cache.write", "*", times=1),
            ]
        )
        faulted, engine = self._run(1, plan, tmp_path / "faulted")
        assert faulted == clean  # bit-identical recovery
        assert engine.stats.retried == len(self.JOBS)  # every job crashed once
        assert engine.stats.failed == 0 and engine.stats.timed_out == 0
        assert engine.cache.stats.write_failures == len(self.JOBS)

    def test_parallel_recovery_equals_serial_recovery(self, tmp_path):
        plan_doc = {"faults": [{"site": "job.start", "match": "*", "times": 1}]}
        serial, se = self._run(1, FaultPlan.from_dict(plan_doc))
        parallel, pe = self._run(2, FaultPlan.from_dict(plan_doc))
        assert parallel == serial
        assert pe.stats.retried == se.stats.retried == len(self.JOBS)
        assert sorted(o.as_dict()["label"] for o in pe.stats.outcomes) == sorted(
            o.as_dict()["label"] for o in se.stats.outcomes
        )

    @pytest.mark.parametrize("jobs_n", [1, 2])
    def test_unrecoverable_fault_degrades_to_failed_cells(self, jobs_n):
        plan = FaultPlan([FaultSpec("job.start", "square#2", times=0)])
        out, engine = self._run(jobs_n, plan)
        assert len(out) == len(self.JOBS)  # no job is ever lost
        failed = [p for p in out if p.get("failed")]
        assert len(failed) == 1
        assert failed[0]["status"] == "failed"
        ok = [p for p in out if not p.get("failed")]
        assert [p["y"] for p in ok] == [0, 1, 9, 16, 25]
        assert engine.stats.failed == 1
        assert engine.stats.completed == len(self.JOBS) - 1
        summary = engine.failure_summary()
        assert summary is not None and "square#2" in summary
        assert "attempts=3" in summary

    def test_failure_summary_none_on_clean_runs(self):
        _, engine = self._run(1, None)
        assert engine.failure_summary() is None
        assert "0 jobs.retried" in engine.stats_summary()

    def test_stats_summary_reports_resilience_line(self):
        plan = FaultPlan([FaultSpec("job.timeout", "square#0", times=0)])
        _, engine = self._run(1, plan)
        s = engine.stats_summary()
        assert "1 jobs.timed_out" in s
        assert "max 3 attempts/job" in s

    def test_publish_metrics_exports_resilience_gauges(self):
        from repro import observability

        observability.OBS.reset()
        try:
            plan = _crash_once_plan(match="square#0")
            _, engine = self._run(1, plan)
            engine.publish_metrics()
            gauges = observability.OBS.metrics.as_dict()["gauges"]
            assert gauges["jobs.retried"] == 1
            assert gauges["jobs.failed"] == 0
            assert gauges["jobs.timed_out"] == 0
        finally:
            observability.OBS.reset()

    def test_cached_hits_have_no_outcomes(self, tmp_path):
        self._run(1, None, tmp_path)
        warm_out, warm = self._run(1, None, tmp_path)
        assert [p["y"] for p in warm_out] == [i**2 for i in range(6)]
        assert warm.stats.outcomes == []  # hits never execute attempts

    def test_job_matrix_failure_surfaces_job_status(self):
        plan = FaultPlan([FaultSpec("job.timeout", times=0)])
        engine = ExperimentEngine(jobs=1, cache=None, retry=FAST)
        jobs = [Job(transform="original", workload="iir", trip_count=4)]
        with resilience.activated(plan):
            result = engine.run_jobs(jobs)[0]
        assert result.status == "timed_out"
        assert not result.ok
        assert result.outcome is not None and result.outcome.attempts == 3

    def test_cache_corruption_mid_run_recovers(self, tmp_path):
        """Corrupt every first read: a warm run quarantines, recomputes,
        and still returns the exact cold-run payloads."""
        cold, _ = self._run(1, None, tmp_path)
        plan = FaultPlan([FaultSpec("cache.read", "*", times=1)])
        warm, engine = self._run(1, plan, tmp_path)
        assert warm == cold
        assert engine.cache.stats.discarded == len(self.JOBS)
        assert len(engine.cache.quarantined_entries()) == len(self.JOBS)


class TestSweepUnderFaults:
    def test_recoverable_plan_is_bit_identical_and_green(self):
        clean = differential_sweep(
            num_graphs=6, engine=ExperimentEngine(jobs=1, cache=None, retry=FAST)
        )
        plan = _crash_once_plan()
        engine = ExperimentEngine(jobs=1, cache=None, retry=FAST)
        with resilience.activated(plan):
            faulted = differential_sweep(num_graphs=6, engine=engine)
        assert faulted.ok and clean.ok
        assert faulted.checks == clean.checks
        assert faulted.equivalence_checks == clean.equivalence_checks
        assert engine.stats.retried > 0  # the faults really fired
        assert engine.stats.failed == 0

    def test_unrecoverable_plan_reports_failed_cells_not_crash(self):
        plan = FaultPlan([FaultSpec("job.start", "rand*", times=0)])
        engine = ExperimentEngine(jobs=1, cache=None, retry=FAST)
        with resilience.activated(plan):
            report = differential_sweep(num_graphs=3, engine=engine)
        assert not report.ok
        assert report.failures and all(
            f.kind == "failed" for f in report.failures
        )
        assert engine.stats.failed == len(engine.stats.outcomes) > 0


class TestCLI:
    def test_sweep_with_recoverable_fault_plan_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        plan = '{"faults": [{"site": "job.start", "match": "*", "times": 1}]}'
        out_file = tmp_path / "outcomes.json"
        code = main(
            [
                "sweep",
                "--graphs",
                "2",
                "--no-cache",
                "--stats",
                "--fault-plan",
                plan,
                "--outcomes-out",
                str(out_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "jobs.retried" in captured.out
        doc = json.loads(out_file.read_text())
        assert doc["stats"]["failed"] == 0
        assert doc["stats"]["retried"] > 0
        assert all(o["status"] == "ok" for o in doc["outcomes"])

    def test_sweep_with_unrecoverable_fault_plan_exits_nonzero(self, capsys):
        from repro.__main__ import main

        plan = '{"faults": [{"site": "job.start", "match": "*", "times": 0}]}'
        code = main(
            ["sweep", "--graphs", "1", "--no-cache", "--fault-plan", plan, "--retries", "2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "Failure summary" in captured.err
        assert "FAILED after retries" in captured.err
        assert "Traceback" not in captured.err

    def test_tables_render_failed_cells_on_unrecoverable_fault(self, capsys):
        from repro.__main__ import main

        plan = '{"faults": [{"site": "job.start", "match": "table1:iir", "times": 0}]}'
        code = main(["tables", "1", "--no-cache", "--fault-plan", plan, "--retries", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.out  # the degraded cell, in-table
        assert "Elliptical Filter" in captured.out  # other rows still render
        assert "table1:iir" in captured.err

    def test_env_var_activates_plan_for_cli_runs(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv(
            resilience.FAULT_PLAN_ENV,
            '{"faults": [{"site": "job.start", "match": "*", "times": 1}]}',
        )
        code = main(["sweep", "--graphs", "2", "--no-cache", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        import re

        retried = int(re.search(r"(\d+) jobs\.retried", captured.out).group(1))
        assert retried > 0  # the env-activated plan really fired

    def test_directly_constructed_engines_ignore_env(self, monkeypatch):
        """Only the CLI path consults $REPRO_FAULT_PLAN — library users and
        tests building engines directly are immune."""
        monkeypatch.setenv(
            resilience.FAULT_PLAN_ENV,
            '{"faults": [{"site": "job.start", "match": "*", "times": 0}]}',
        )
        resilience.deactivate()
        engine = ExperimentEngine(jobs=1, cache=None, retry=FAST)
        out = engine.map_cached("square", _square, [{"x": 2}])
        assert out == [{"ok": True, "y": 4}]
        assert engine.stats.failed == 0
