"""Tests for the supervised lease fabric: workers that die and hang.

``--workers remote`` runs the engine's units on the lease fabric with
``--jobs`` spawned local workers.  SIGKILL'd workers (the ``worker.kill``
fault site) and SIGSTOP'd workers (``worker.stop`` — the hang signature,
heartbeat thread frozen too) must both be noticed by the fabric, the
worker killed if need be and respawned, and its unit requeued at once —
never after waiting out the lease — with output identical to a serial
run's.  Engines here are built from the CLI flags, the way
``python -m repro tables --workers remote`` builds them.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.__main__ import build_parser, engine_from_args
from repro.runner import (
    ExperimentEngine,
    RemoteFabric,
    RunJournal,
    resilience,
    scan_journal,
)
from repro.runner.jobs import Job, execute_job
from repro.runner.journal import JOURNAL_NAME

JOBS = [
    Job(transform="csr-pipelined", workload="iir", trip_count=3),
    Job(transform="pipelined", workload="iir", trip_count=4),
    Job(transform="csr-pipelined", workload="fir", trip_count=3),
    Job(transform="csr-unfold-retime", workload="iir", factor=2, trip_count=4),
    Job(transform="pipelined", workload="fir", trip_count=5),
]
PARAMS = [j.to_params() for j in JOBS]
LABELS = [j.label for j in JOBS]


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    monkeypatch.delenv(resilience.FAULT_PLAN_ENV, raising=False)
    yield
    resilience.deactivate()


def _strip(payloads: list[dict]) -> list[dict]:
    """Drop the wall-clock field: everything else must be bit-identical."""
    return [
        {k: v for k, v in p.items() if k != "compute_time"} for p in payloads
    ]


def _serial() -> list[dict]:
    engine = ExperimentEngine(jobs=1, cache=None)
    return _strip(engine.map_cached("job", execute_job, PARAMS, LABELS))


def _plan(site: str, *labels: str) -> str:
    faults = [{"site": site, "match": label, "times": 1} for label in labels]
    return json.dumps({"faults": faults})


def _run_supervised(*flags: str, journal: RunJournal | None = None):
    """Run the batch under ``--workers remote --jobs 2 --no-cache`` + flags."""
    args = build_parser().parse_args(
        ["tables", "--workers", "remote", "--jobs", "2", "--no-cache", *flags]
    )
    engine = engine_from_args(args)
    engine.journal = journal
    try:
        out = engine.map_cached("job", execute_job, PARAMS, LABELS)
    finally:
        engine.close()
        resilience.deactivate()
    return out, engine


def _victim(engine, label: str):
    return next(o for o in engine.stats.outcomes if o.label == label)


class TestPoolBasics:
    def test_matches_serial_results_in_submission_order(self):
        out, engine = _run_supervised()
        assert isinstance(engine.remote, RemoteFabric)
        assert engine.remote.workers == 2
        assert _strip(out) == _serial()
        assert engine.stats.respawned == engine.remote.respawns == 0
        assert engine.stats.completed == len(PARAMS)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            RemoteFabric(workers=-1)
        parse = build_parser().parse_args
        with pytest.raises(SystemExit):  # argparse: must be > 0
            parse(["tables", "--workers", "remote", "--lease-timeout", "0"])
        with pytest.raises(SystemExit, match="--lease-timeout requires"):
            engine_from_args(parse(["tables", "--jobs", "2", "--lease-timeout", "5"]))


class TestDeadWorkerRecovery:
    def test_sigkilled_worker_is_respawned_and_task_requeued(self):
        started = time.monotonic()
        out, engine = _run_supervised(
            "--lease-timeout", "60", "--fault-plan", _plan("worker.kill", LABELS[2])
        )
        assert time.monotonic() - started < 30.0  # not the 60 s lease
        assert _strip(out) == _serial()
        assert engine.stats.respawned == engine.remote.respawns == 1
        assert engine.stats.completed == len(PARAMS)
        assert engine.stats.failed == engine.stats.timed_out == 0
        victim = _victim(engine, LABELS[2])
        assert victim.status == "ok"
        assert victim.respawned == 1
        assert victim.faults[0] == "lease.expired@1"
        assert "1 workers respawned" in engine.stats_summary()

    def test_multiple_victims_all_recover(self):
        out, engine = _run_supervised(
            "--lease-timeout", "60",
            "--fault-plan", _plan("worker.kill", LABELS[1], LABELS[4]),
        )
        assert _strip(out) == _serial()
        assert engine.stats.respawned == engine.remote.respawns == 2
        assert engine.stats.completed == len(PARAMS)
        for label in (LABELS[1], LABELS[4]):
            victim = _victim(engine, label)
            assert victim.status == "ok" and victim.respawned == 1


class TestHungWorkerRecovery:
    def test_sigstopped_worker_is_killed_respawned_and_task_redispatched(self):
        """A stopped worker renews nothing and never exits on its own:
        the fabric kills it, spawns a replacement and requeues its unit
        without waiting out the (60 s) lease."""
        started = time.monotonic()
        out, engine = _run_supervised(
            "--lease-timeout", "60", "--fault-plan", _plan("worker.stop", LABELS[2])
        )
        assert time.monotonic() - started < 30.0
        assert engine.remote.lease_age_max < 30.0
        assert _strip(out) == _serial()
        assert engine.stats.respawned == engine.remote.respawns == 1
        assert engine.stats.completed == len(PARAMS)
        assert engine.stats.failed == engine.stats.timed_out == 0
        victim = _victim(engine, LABELS[2])
        assert victim.status == "ok"
        assert victim.respawned == 1
        assert victim.faults[0] == "lease.expired@1"


class TestJournalIntegration:
    def test_supervised_run_journals_completions_and_resumes(self, tmp_path):
        journal = RunJournal(tmp_path)
        ref, _ = _run_supervised(
            "--fault-plan", _plan("worker.kill", LABELS[1]), journal=journal
        )
        journal.close()
        scan = scan_journal(tmp_path / JOURNAL_NAME)
        assert scan.pending() == {}
        assert len(scan.completed()) == len(PARAMS)
        records = [
            json.loads(line)
            for line in (tmp_path / JOURNAL_NAME).read_text().splitlines()
        ]
        types = [r["type"] for r in records]
        # One record per unit of the lost lease: the victim shares its
        # graph-affine chunk with LABELS[0].
        assert types.count("job.lease_expired") == 2
        assert types.count("job.done") == len(PARAMS)  # zero duplicates

        # Resume: every unit rehydrates from the journal, none re-runs.
        resumed = ExperimentEngine(jobs=1, cache=None)
        resumed.load_resume_state(scan)
        again = resumed.map_cached("job", execute_job, PARAMS, LABELS)
        assert _strip(again) == _strip(ref)
        assert resumed.stats.resumed == len(PARAMS)
        assert resumed.stats.computed == 0
