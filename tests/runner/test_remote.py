"""Tests for the distributed lease fabric: coordinator, chaos, workers.

The :class:`LeaseCoordinator` exactly-once machinery is exercised first
in isolation — fake clock, no sockets, hypothesis-driven hostile
schedules — and then end to end through real spawned worker processes
under injected kills and partitions, including the ``--supervised``
spelling (the fabric with ``--jobs`` spawned local workers).  The
invariant every test circles: however chaotic the fleet, each unit
completes *exactly once* and the batch's results are bit-identical to a
serial run's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ExperimentEngine,
    LeaseCoordinator,
    RemoteFabric,
    RetryPolicy,
    RunJournal,
    resilience,
    scan_journal,
)
from repro.runner.jobs import Job, execute_job
from repro.runner.remote import (
    REMOTE_FNS,
    fn_name,
    run_task_local,
    task_from_wire,
    wire_task,
)
from repro.runner.journal import JOURNAL_NAME
from repro.runner.resilience import FaultPlan, FaultSpec

SRC = str(Path(__file__).resolve().parents[2] / "src")


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _docs(n: int) -> list[dict]:
    return [{"key": f"k{i}", "label": f"unit#{i}"} for i in range(n)]


def _envelope(i: int, status: str = "ok") -> dict:
    return {
        "payload": {"ok": status == "ok", "i": i},
        "cached": False,
        "wall": 0.0,
        "outcome": {"label": f"unit#{i}", "status": status},
        "cache_stats": {},
    }


def _coord(n: int = 2, max_attempts: int = 3, lease_timeout: float = 10.0):
    clock = FakeClock()
    coord = LeaseCoordinator(
        policy=RetryPolicy(max_attempts=max_attempts, backoff=0.0),
        lease_timeout=lease_timeout,
        clock=clock,
    )
    coord.load(_docs(n))
    return coord, clock


class TestLeaseCoordinator:
    def test_invalid_lease_timeout_rejected(self):
        with pytest.raises(ValueError, match="lease_timeout"):
            LeaseCoordinator(lease_timeout=0.0)

    def test_grant_complete_roundtrip(self):
        coord, _ = _coord(2)
        grants = [coord.lease("w0"), coord.lease("w1")]
        assert [g["idx"] for g in grants] == [0, 1]
        assert all(g["epoch"] == 1 and g["prior_attempts"] == 0 for g in grants)
        # Backlog empty, leases live: the next worker is told to wait.
        assert "wait" in coord.lease("w2")
        for g in grants:
            resp = coord.complete(
                g["token"], g["epoch"], g["idx"], _envelope(g["idx"]),
                worker="w", batch=g["batch"],
            )
            assert resp == {"accepted": True}
        assert coord.done
        assert [e["payload"]["i"] for e in coord.results_in_order()] == [0, 1]
        kinds = [k for k, _ in coord.drain_events()]
        assert kinds == ["leased", "leased", "completed", "completed"]
        assert coord.leases_granted == 2
        assert coord.duplicates_discarded == 0

    def test_closing_tells_workers_done(self):
        coord, _ = _coord(1)
        coord.closing = True
        assert coord.lease("w") == {"done": True}

    def test_results_before_done_raises(self):
        coord, _ = _coord(1)
        with pytest.raises(RuntimeError, match="not complete"):
            coord.results_in_order()

    def test_renew_extends_deadline(self):
        coord, clock = _coord(1, lease_timeout=10.0)
        g = coord.lease("w")
        clock.advance(8.0)
        assert coord.renew(g["token"], g["epoch"]) == {"ok": True}
        clock.advance(8.0)  # t=16 < renewed deadline of 18
        assert coord.expire() == 0
        clock.advance(3.0)
        assert coord.expire() == 1
        assert coord.renew(g["token"], g["epoch"])["ok"] is False

    def test_expiry_requeues_and_stale_epoch_is_discarded(self):
        coord, clock = _coord(1, lease_timeout=5.0)
        zombie = coord.lease("w0")
        clock.advance(6.0)
        assert coord.expire() == 1
        assert coord.requeues == 1
        regrant = coord.lease("w1")
        assert regrant["epoch"] == 2 and regrant["prior_attempts"] == 1
        # The zombie resurfaces with the original (stale) epoch: discarded.
        resp = coord.complete(
            zombie["token"], zombie["epoch"], 0, _envelope(0),
            worker="w0", batch=zombie["batch"],
        )
        assert resp == {"accepted": False, "reason": "stale-epoch"}
        assert coord.duplicates_discarded == 1
        resp = coord.complete(
            regrant["token"], regrant["epoch"], 0, _envelope(0),
            worker="w1", batch=regrant["batch"],
        )
        assert resp["accepted"]
        assert coord.done
        # Losses are stamped into the surviving completion's outcome.
        outcome = coord.results_in_order()[0]["outcome"]
        assert outcome["respawned"] == 1
        assert outcome["faults"][0].startswith("lease.expired@1")
        kinds = [k for k, _ in coord.drain_events()]
        assert kinds == ["leased", "lease_expired", "leased",
                         "discarded", "completed"]

    def test_expired_but_not_regranted_completion_still_lands(self):
        """Epoch unmoved after expiry: the late result is taken and the
        unit pulled back off the backlog instead of re-executing."""
        coord, clock = _coord(1, lease_timeout=5.0)
        g = coord.lease("w0")
        clock.advance(6.0)
        assert coord.expire() == 1
        resp = coord.complete(
            g["token"], g["epoch"], 0, _envelope(0), worker="w0",
            batch=g["batch"],
        )
        assert resp["accepted"]
        assert coord.done
        assert "wait" in coord.lease("w1")  # nothing left to grant

    def test_double_completion_discarded_as_duplicate(self):
        coord, _ = _coord(1)
        g = coord.lease("w")
        assert coord.complete(
            g["token"], g["epoch"], 0, _envelope(0), batch=g["batch"]
        )["accepted"]
        resp = coord.complete(
            g["token"], g["epoch"], 0, _envelope(0), batch=g["batch"]
        )
        assert resp == {"accepted": False, "reason": "duplicate"}
        assert coord.duplicates_discarded == 1

    def test_stale_batch_discarded(self):
        coord, _ = _coord(1)
        g = coord.lease("w")
        assert coord.complete(
            g["token"], g["epoch"], 0, _envelope(0), batch=g["batch"]
        )["accepted"]
        coord.load(_docs(1))  # next batch: old coordinates are meaningless
        resp = coord.complete(
            g["token"], g["epoch"], 0, _envelope(0), batch=g["batch"]
        )
        assert resp == {"accepted": False, "reason": "stale-batch"}
        g2 = coord.lease("w")
        assert g2["batch"] == g["batch"] + 1
        assert g2["token"] != g["token"]  # batch-scoped token namespace

    def test_dead_worker_leases_expire_before_their_deadline(self):
        coord, clock = _coord(3, lease_timeout=10.0)
        dead = [coord.lease("w0"), coord.lease("w0")]
        alive = coord.lease("w1")
        clock.advance(1.0)
        assert coord.expire(worker="w0") == 2
        assert coord.requeues == 2
        expiries = [d for k, d in coord.drain_events() if k == "lease_expired"]
        assert sorted(d["idx"] for d in expiries) == [g["idx"] for g in dead]
        assert all(d["requeued"] and d["age"] == 1.0 for d in expiries)
        # The live worker's lease is untouched, and a dead worker's unit
        # is granted again with the same budget and provenance.
        assert coord.renew(alive["token"], alive["epoch"]) == {"ok": True}
        regrant = coord.lease("w1")
        assert regrant["epoch"] == 2 and regrant["prior_attempts"] == 1

    def test_budget_exhaustion_degrades_to_timed_out(self):
        coord, clock = _coord(1, max_attempts=2, lease_timeout=5.0)
        for _ in range(2):
            coord.lease("w")
            clock.advance(6.0)
            assert coord.expire() == 1
        assert coord.requeues == 1  # the second expiry exhausts the budget
        assert coord.done
        env = coord.results_in_order()[0]
        assert env["payload"]["ok"] is False
        assert env["outcome"]["status"] == "timed_out"
        assert env["outcome"]["faults"] == [
            "lease.expired@1", "lease.expired@2"
        ]
        expiries = [d for k, d in coord.drain_events() if k == "lease_expired"]
        assert [d["requeued"] for d in expiries] == [True, False]

    def test_load_over_live_leases_raises(self):
        coord, _ = _coord(1)
        coord.lease("w")
        with pytest.raises(RuntimeError, match="live leases"):
            coord.load(_docs(1))

    def test_seize_pending_is_atomic_and_lease_aware(self):
        coord, _ = _coord(2)
        g = coord.lease("w")
        # A live lease blocks the seize: its result may still arrive.
        assert coord.seize_pending() == []
        assert coord.complete(
            g["token"], g["epoch"], g["idx"], _envelope(g["idx"]),
            batch=g["batch"],
        )["accepted"]
        taken = coord.seize_pending()
        assert [idx for idx, _ in taken] == [1]
        assert coord.seize_pending() == []  # backlog is gone
        assert "wait" in coord.lease("w2")  # and so is any grantable unit
        coord.deliver_local(1, _envelope(1))
        assert coord.done


# Operation codes for the hypothesis schedule below.
_OPS = st.sampled_from(
    ["lease", "complete", "zombie", "duplicate", "renew", "advance", "expire"]
)


class TestCoordinatorProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hostile_schedule_preserves_exactly_once(self, data):
        """Any interleaving of grants, completions, zombie resubmissions,
        expiries and clock jumps ends with exactly one result per unit and
        every discard accounted."""
        n = data.draw(st.integers(1, 5), label="units")
        coord, clock = _coord(n, max_attempts=3, lease_timeout=10.0)
        held: list[dict] = []
        finished: list[dict] = []
        accepted = 0
        events: list[tuple[str, dict]] = []

        def submit(grant: dict) -> bool:
            resp = coord.complete(
                grant["token"], grant["epoch"], grant["idx"],
                _envelope(grant["idx"]), worker="w", batch=grant["batch"],
            )
            return bool(resp["accepted"])

        for op in data.draw(st.lists(_OPS, max_size=40), label="schedule"):
            if op == "lease":
                g = coord.lease("w")
                if "task" in g:
                    held.append(g)
            elif op == "complete" and held:
                g = held.pop(data.draw(st.integers(0, len(held) - 1)))
                finished.append(g)
                accepted += submit(g)
            elif op == "zombie" and held:
                # Let the lease rot past its deadline, expire it, then
                # submit anyway — the classic partitioned worker.
                g = held.pop(data.draw(st.integers(0, len(held) - 1)))
                clock.advance(coord.lease_timeout + 1.0)
                coord.expire()
                finished.append(g)
                accepted += submit(g)
            elif op == "duplicate" and finished:
                g = finished[data.draw(st.integers(0, len(finished) - 1))]
                assert submit(g) is False
            elif op == "renew" and held:
                g = held[data.draw(st.integers(0, len(held) - 1))]
                coord.renew(g["token"], g["epoch"])
            elif op == "advance":
                clock.advance(data.draw(st.floats(0.0, 15.0)))
            elif op == "expire":
                coord.expire()
            events.extend(coord.drain_events())

        # Drive the batch to completion: the owner's run loop in miniature.
        for _ in range(20 * n):
            events.extend(coord.drain_events())
            if coord.done:
                break
            g = coord.lease("w")
            if "task" in g:
                accepted += submit(g)
            else:
                clock.advance(coord.lease_timeout + 1.0)
                coord.expire()
        events.extend(coord.drain_events())

        assert coord.done
        assert len(coord.results_in_order()) == n
        completed = [d["idx"] for k, d in events if k == "completed"]
        assert sorted(completed) == list(range(n))  # exactly once, each
        timed_out = sum(
            1
            for k, d in events
            if k == "completed"
            and d["envelope"]["outcome"]["status"] == "timed_out"
        )
        assert accepted + timed_out == n  # conservation
        discards = sum(1 for k, _ in events if k == "discarded")
        assert discards == coord.duplicates_discarded


class TestWireFormat:
    def test_roundtrip(self):
        params = Job(transform="csr-pipelined", workload="iir",
                     trip_count=3).to_params()
        task = (execute_job, params, "key0", ("/tmp/c", 4), True,
                "iir/csr-pipelined/f=1/n=3", {"max_attempts": 2}, None)
        doc = wire_task(task)
        assert doc["fn"] == "repro.runner.jobs:execute_job"
        assert json.loads(json.dumps(doc)) == doc  # JSON-clean
        assert task_from_wire(doc) == task

    def test_only_allowlisted_functions_cross_the_wire(self):
        with pytest.raises(ValueError, match="not registered"):
            fn_name(_coord)  # any non-allowlisted callable
        from repro.runner.remote import resolve_fn

        with pytest.raises(ValueError, match="not registered"):
            resolve_fn("os:system")
        for name in REMOTE_FNS:
            assert callable(resolve_fn(name))


def _job_params(count: int = 4) -> tuple[list[dict], list[str]]:
    """A small, fast, deterministic batch of real sweep units."""
    jobs = [
        Job(transform="csr-pipelined", workload="iir", trip_count=3),
        Job(transform="pipelined", workload="iir", trip_count=4),
        Job(transform="csr-pipelined", workload="fir", trip_count=3),
        Job(transform="csr-unfold-retime", workload="iir", factor=2,
            trip_count=4),
    ][:count]
    return [j.to_params() for j in jobs], [j.label for j in jobs]


def _strip(payloads: list[dict]) -> list[dict]:
    """Drop the wall-clock field: everything else must be bit-identical."""
    return [
        {k: v for k, v in p.items() if k != "compute_time"} for p in payloads
    ]


def _serial_reference(params: list[dict], labels: list[str]) -> list[dict]:
    engine = ExperimentEngine(jobs=1, cache=None)
    return _strip(engine.map_cached("job", execute_job, params, labels))


class TestFabricLocalFallback:
    def test_no_workers_degrades_to_local_execution(self):
        params, labels = _job_params()
        fabric = RemoteFabric(
            workers=0, worker_grace=0.05, poll_interval=0.01
        )
        engine = ExperimentEngine(jobs=2, cache=None, remote=fabric)
        try:
            out = engine.map_cached("job", execute_job, params, labels)
        finally:
            engine.close()
        assert _strip(out) == _serial_reference(params, labels)
        assert fabric.fallback_units == len(params)
        assert fabric.coordinator.done
        assert "run locally" in fabric.stats_line()

    def test_fabric_parameter_validation_and_close(self):
        with pytest.raises(ValueError, match="workers"):
            RemoteFabric(workers=-1)
        with pytest.raises(ValueError, match="lease_timeout"):
            RemoteFabric(workers=2, lease_timeout=0.0)
        fabric = RemoteFabric(workers=0)
        fabric.close()
        with pytest.raises(RuntimeError, match="closed"):
            fabric.run([(execute_job, {}, "k", None, False, "l", None, None)])

    def test_supervised_and_remote_are_mutually_exclusive(self):
        # Both spell the lease fabric: the engine builder refuses two.
        from repro.analysis.__main__ import build_parser, engine_from_args

        args = build_parser().parse_args(["--supervised", "--workers", "remote"])
        with pytest.raises(SystemExit, match="mutually exclusive"):
            engine_from_args(args)


class TestFabricEndToEnd:
    """Real spawned worker processes against a live work plane."""

    def _run(self, fabric: RemoteFabric, params, labels, journal=None):
        engine = ExperimentEngine(jobs=2, cache=None, remote=fabric)
        if journal is not None:
            engine.journal = journal
        try:
            out = engine.map_cached("job", execute_job, params, labels)
        finally:
            engine.close()
        return out, engine

    def test_spawned_workers_match_serial(self):
        params, labels = _job_params()
        fabric = RemoteFabric(workers=2, lease_timeout=15.0,
                              poll_interval=0.01)
        out, engine = self._run(fabric, params, labels)
        assert _strip(out) == _serial_reference(params, labels)
        assert fabric.coordinator.leases_granted == len(params)
        assert fabric.coordinator.duplicates_discarded == 0
        assert fabric.fallback_units == 0
        assert engine.stats.respawned == fabric.respawns == 0
        assert engine.stats.completed == len(params)

    def test_killed_worker_requeues_unit_and_respawns(self, tmp_path):
        """The unit requeues when its worker dies, not when the (60 s)
        lease would expire."""
        params, labels = _job_params()
        plan = FaultPlan([FaultSpec("worker.kill", labels[1], times=1)])
        resilience.activate(plan)
        started = time.monotonic()
        try:
            fabric = RemoteFabric(workers=1, lease_timeout=60.0,
                                  poll_interval=0.01)
            journal = RunJournal(tmp_path)
            out, engine = self._run(fabric, params, labels, journal=journal)
            journal.close()
        finally:
            resilience.deactivate()
        assert time.monotonic() - started < 30.0
        assert fabric.lease_age_max < 30.0
        assert _strip(out) == _serial_reference(params, labels)
        assert fabric.respawns == 1
        assert fabric.coordinator.requeues == 1
        victim = next(o for o in engine.stats.outcomes if o.label == labels[1])
        assert victim.status == "ok"
        assert any(f.startswith("lease.expired@") for f in victim.faults)

        scan = scan_journal(tmp_path / JOURNAL_NAME)
        assert scan.pending() == {}
        assert len(scan.completed()) == len(params)
        records = [
            json.loads(line)
            for line in (tmp_path / JOURNAL_NAME).read_text().splitlines()
        ]
        types = [r["type"] for r in records]
        assert types.count("job.leased") >= len(params) + 1
        assert types.count("job.lease_expired") == 1
        assert types.count("job.done") == len(params)  # zero duplicates

    def test_partitioned_worker_zombie_completion_is_discarded(self):
        params, labels = _job_params()
        plan = FaultPlan([FaultSpec("worker.partition", labels[0], times=1)])
        resilience.activate(plan)
        try:
            fabric = RemoteFabric(workers=2, lease_timeout=0.8,
                                  poll_interval=0.01)
            out, _ = self._run(fabric, params, labels)
        finally:
            resilience.deactivate()
        assert _strip(out) == _serial_reference(params, labels)
        assert fabric.coordinator.requeues >= 1
        # The zombie sleeps past its lease (1.5x the timeout) and only
        # then submits — poll briefly for the discard to land.
        deadline = time.monotonic() + 10.0
        while (
            fabric.coordinator.duplicates_discarded == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert fabric.coordinator.duplicates_discarded >= 1

    def test_worker_exits_3_when_coordinator_unreachable(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", "127.0.0.1:9",  # discard port: nothing there
                "--retry-max", "2", "--retry-backoff", "0.01",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert "coordinator unreachable" in proc.stderr


def _run_fabric(params, labels, plan=None, retry=None, lease_timeout=30.0,
                journal=None):
    """Run a batch the way ``--supervised --jobs 2`` does: the lease
    fabric with two spawned local workers and the engine's retry policy."""
    if plan is not None:
        resilience.activate(plan)
    try:
        fabric = RemoteFabric(workers=2, policy=retry,
                              lease_timeout=lease_timeout, poll_interval=0.01)
        engine = ExperimentEngine(jobs=2, cache=None, retry=retry,
                                  remote=fabric)
        engine.journal = journal
        try:
            out = engine.map_cached("job", execute_job, params, labels)
        finally:
            engine.close()
    finally:
        resilience.deactivate()
    return out, engine, fabric


def _accounted(engine) -> int:
    s = engine.stats
    return s.completed + s.failed + s.timed_out


class TestSupervisedFabric:
    """Budget exhaustion on the fabric ``--supervised`` builds: units that
    kill (or silence) every worker end ``timed_out``.  Recovery from
    single deaths and hangs is in ``test_supervisor.py``."""

    def test_empty_task_list(self):
        fabric = RemoteFabric(workers=2)
        try:
            assert fabric.run([]) == []
            assert fabric.coordinator.leases_granted == 0
        finally:
            fabric.close()

    def test_poisoned_unit_exhausts_its_budget(self):
        """A unit that kills every worker it touches ends ``timed_out``
        once its dispatch budget is spent; the other units are unharmed."""
        params, labels = _job_params()
        plan = FaultPlan([FaultSpec("worker.kill", labels[0], times=0)])
        retry = RetryPolicy(max_attempts=2, backoff=0.0)
        out, engine, fabric = _run_fabric(params, labels, plan=plan,
                                          retry=retry)
        assert out[0]["ok"] is False and out[0]["status"] == "timed_out"
        assert _strip(out[1:]) == _serial_reference(params, labels)[1:]
        assert engine.stats.timed_out == 1 and engine.stats.failed == 0
        assert _accounted(engine) == len(params)
        assert engine.stats.respawned == fabric.respawns == 2
        victim = next(o for o in engine.stats.outcomes if o.label == labels[0])
        assert victim.status == "timed_out"
        assert victim.attempts == 2 and victim.respawned == 2
        assert victim.faults == ["lease.expired@1", "lease.expired@2"]

    def test_always_partitioned_unit_times_out(self):
        """A worker that goes silent on every dispatch of a unit (the
        hang case) loses each lease; the budget ends the unit."""
        params, labels = _job_params()
        plan = FaultPlan([FaultSpec("worker.partition", labels[0], times=0)])
        retry = RetryPolicy(max_attempts=2, backoff=0.0)
        out, engine, fabric = _run_fabric(params, labels, plan=plan,
                                          retry=retry, lease_timeout=1.0)
        assert out[0]["ok"] is False and out[0]["status"] == "timed_out"
        assert _strip(out[1:]) == _serial_reference(params, labels)[1:]
        assert engine.stats.timed_out == 1
        assert _accounted(engine) == len(params)
        assert fabric.respawns == 0  # silent, not dead
        victim = next(o for o in engine.stats.outcomes if o.label == labels[0])
        assert victim.faults == ["lease.expired@1", "lease.expired@2"]


def _cli(*argv: str, plan: str | None = None) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(resilience.FAULT_PLAN_ENV, None)
    if plan is not None:
        env[resilience.FAULT_PLAN_ENV] = plan
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestTopologiesAgree:
    """The CLI prints the same bytes whichever fabric runs the units."""

    def test_tables_identical_across_topologies(self):
        serial = _cli("tables", "--no-cache")
        assert "Table 1" in serial
        assert _cli("tables", "--no-cache", "--workers", "remote",
                    "--remote-workers", "1") == serial
        assert _cli("tables", "--no-cache", "--supervised",
                    "--jobs", "2") == serial

    def test_supervised_sweep_survives_a_kill_without_waiting_out_the_lease(
        self,
    ):
        argv = ("sweep", "--graphs", "2", "--seed", "5", "--no-cache")
        serial = _cli(*argv)
        plan = json.dumps({"faults": [
            {"site": "worker.kill", "match": "rand6/pipelined/f=1/n=7",
             "times": 1},
        ]})
        out = _cli(*argv, "--supervised", "--jobs", "2", "--lease-timeout",
                   "600", "--stats", plan=plan)
        table, _, stats = out.partition("=== Engine stats ===\n")
        assert table == serial
        assert "0 jobs resumed, 1 workers respawned" in stats


def test_run_task_local_restores_callers_fault_plan():
    params, labels = _job_params(1)
    plan = FaultPlan([FaultSpec("worker.kill", "elsewhere", times=1)])
    resilience.activate(plan)
    try:
        task = (execute_job, params[0], "k0", None, False, labels[0],
                None, None)
        envelope = run_task_local(task)
        assert envelope["payload"]["ok"]
        assert resilience.active_plan() is plan
    finally:
        resilience.deactivate()
