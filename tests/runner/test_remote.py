"""Tests for the distributed lease fabric: coordinator, chaos, workers.

The :class:`LeaseCoordinator` exactly-once machinery is exercised first
in isolation — fake clock, no sockets, hypothesis-driven hostile
schedules — and then end to end through real spawned worker processes
under injected kills and partitions, including the CLI's
``--workers remote`` (the fabric with ``--jobs`` spawned local workers).  The
invariant every test circles: however chaotic the fleet, each unit
completes *exactly once* and the batch's results are bit-identical to a
serial run's.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
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
from repro.runner.engine import _chunks
from repro.runner.jobs import Job, execute_job
from repro.runner.remote import (
    REMOTE_FNS,
    chunk_from_wire,
    fn_name,
    wire_chunk,
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


def _docs(sizes: list[int]) -> list[dict]:
    """Chunk docs, one per entry of ``sizes``; units numbered in order."""
    docs, first = [], 0
    for size in sizes:
        units = [{"key": f"k{i}", "label": f"unit#{i}"}
                 for i in range(first, first + size)]
        docs.append({"fn": "f", "units": units})
        first += size
    return docs


def _envelope(idxs: list[int], status: str = "ok") -> dict:
    results = [
        {
            "payload": {"ok": status == "ok", "i": i},
            "cached": False,
            "wall": 0.0,
            "outcome": {"label": f"unit#{i}", "status": status},
        }
        for i in idxs
    ]
    return {"results": results, "cache_stats": {}, "reuse_stats": {}}


def _idxs(grant: dict) -> list[int]:
    return [u["idx"] for u in grant["units"]]


def _submit(coord, grant: dict, worker: str = "w") -> dict:
    """Complete ``grant`` the way a worker does: each unit's (idx, epoch)
    and one chunk envelope."""
    units = [{"idx": u["idx"], "epoch": u["epoch"]} for u in grant["units"]]
    return coord.complete(grant["token"], units, _envelope(_idxs(grant)),
                          worker=worker, batch=grant["batch"])


def _coord(n: int = 2, max_attempts: int = 3, lease_timeout: float = 10.0,
           sizes: list[int] | None = None):
    """A coordinator loaded with ``sizes`` chunks (default: ``n`` chunks
    of one unit)."""
    clock = FakeClock()
    coord = LeaseCoordinator(
        policy=RetryPolicy(max_attempts=max_attempts, backoff=0.0),
        lease_timeout=lease_timeout,
        clock=clock,
    )
    coord.load(_docs(sizes or [1] * n))
    return coord, clock


class TestLeaseCoordinator:
    def test_invalid_lease_timeout_rejected(self):
        with pytest.raises(ValueError, match="lease_timeout"):
            LeaseCoordinator(lease_timeout=0.0)

    def test_grant_complete_roundtrip(self):
        coord, _ = _coord(2)
        grants = [coord.lease("w0"), coord.lease("w1")]
        assert [_idxs(g) for g in grants] == [[0], [1]]
        assert all(
            u["epoch"] == 1 and u["prior_attempts"] == 0
            for g in grants for u in g["units"]
        )
        # Backlog empty, leases live: the next worker is told to wait.
        assert "wait" in coord.lease("w2")
        for g in grants:
            assert _submit(coord, g) == {"accepted": True}
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
        assert coord.renew(g["token"]) == {"ok": True}
        clock.advance(8.0)  # t=16 < renewed deadline of 18
        assert coord.expire() == 0
        clock.advance(3.0)
        assert coord.expire() == 1
        assert coord.renew(g["token"])["ok"] is False

    def test_expiry_requeues_and_stale_epoch_is_discarded(self):
        coord, clock = _coord(1, lease_timeout=5.0)
        zombie = coord.lease("w0")
        clock.advance(6.0)
        assert coord.expire() == 1
        assert coord.requeues == 1
        regrant = coord.lease("w1")
        assert regrant["units"] == [{"idx": 0, "epoch": 2, "prior_attempts": 1}]
        # The zombie resurfaces with the original (stale) epoch: discarded.
        resp = _submit(coord, zombie, worker="w0")
        assert resp == {"accepted": False, "reason": "stale-epoch"}
        assert coord.duplicates_discarded == 1
        assert _submit(coord, regrant, worker="w1")["accepted"]
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
        assert _submit(coord, g, worker="w0")["accepted"]
        assert coord.done
        assert "wait" in coord.lease("w1")  # nothing left to grant

    def test_double_completion_discarded_as_duplicate(self):
        coord, _ = _coord(1)
        g = coord.lease("w")
        assert _submit(coord, g)["accepted"]
        resp = _submit(coord, g)
        assert resp == {"accepted": False, "reason": "duplicate"}
        assert coord.duplicates_discarded == 1

    def test_stale_batch_discarded(self):
        coord, _ = _coord(1)
        g = coord.lease("w")
        assert _submit(coord, g)["accepted"]
        coord.load(_docs([1]))  # next batch: old coordinates are meaningless
        resp = _submit(coord, g)
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
        assert sorted(u["idx"] for d in expiries for u in d["units"]) == [
            i for g in dead for i in _idxs(g)
        ]
        assert all(d["age"] == 1.0 for d in expiries)
        assert all(u["requeued"] for d in expiries for u in d["units"])
        # The live worker's lease is untouched, and a dead worker's unit
        # is granted again with the same budget and provenance.
        assert coord.renew(alive["token"]) == {"ok": True}
        regrant = coord.lease("w1")
        assert regrant["units"][0]["epoch"] == 2
        assert regrant["units"][0]["prior_attempts"] == 1

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
        assert [u["requeued"] for d in expiries for u in d["units"]] == [
            True, False
        ]

    def test_load_over_live_leases_raises(self):
        coord, _ = _coord(1)
        coord.lease("w")
        with pytest.raises(RuntimeError, match="live leases"):
            coord.load(_docs([1]))

    def test_seize_pending_is_atomic_and_lease_aware(self):
        coord, _ = _coord(2)
        g = coord.lease("w")
        # A live lease blocks the seize: its result may still arrive.
        assert coord.seize_pending() == []
        assert _submit(coord, g)["accepted"]
        taken = coord.seize_pending()
        assert [idxs for idxs, _ in taken] == [[1]]
        assert taken[0][1]["units"] == [{"key": "k1", "label": "unit#1"}]
        assert coord.seize_pending() == []  # backlog is gone
        assert "wait" in coord.lease("w2")  # and so is any grantable unit
        coord.deliver_local([1], _envelope([1]))
        assert coord.done


class TestChunkLeases:
    """A grant leases a whole chunk; a lost lease requeues its units one
    per group, each with its own epoch and budget."""

    def test_a_chunk_is_leased_and_lands_whole(self):
        coord, _ = _coord(sizes=[3, 2])
        first = coord.lease("w")
        assert _idxs(first) == [0, 1, 2]
        assert [u["label"] for u in first["task"]["units"]] == [
            "unit#0", "unit#1", "unit#2"
        ]
        assert first["task"]["fn"] == "f"
        assert _submit(coord, first) == {"accepted": True}
        completed = [d for k, d in coord.drain_events() if k == "completed"]
        assert [d["idxs"] for d in completed] == [[0, 1, 2]]
        assert not coord.done
        assert _submit(coord, coord.lease("w"))["accepted"]
        assert [r["payload"]["i"] for r in coord.results_in_order()] == [
            0, 1, 2, 3, 4
        ]
        assert coord.leases_granted == 2

    def test_lost_chunk_requeues_units_one_per_group(self):
        coord, clock = _coord(sizes=[3], lease_timeout=5.0)
        zombie = coord.lease("w0")
        clock.advance(6.0)
        assert coord.expire() == 1
        assert coord.requeues == 3
        regrant = coord.lease("w1")
        assert regrant["units"] == [{"idx": 0, "epoch": 2, "prior_attempts": 1}]
        # One unit moved on: the zombie's chunk is discarded whole.
        assert _submit(coord, zombie, worker="w0") == {
            "accepted": False, "reason": "stale-epoch"
        }
        assert _submit(coord, regrant)["accepted"]
        rest = [coord.lease("w1"), coord.lease("w1")]
        assert [_idxs(g) for g in rest] == [[1], [2]]
        assert all(_submit(coord, g)["accepted"] for g in rest)
        assert coord.done
        for result in coord.results_in_order():
            assert result["outcome"]["faults"] == ["lease.expired@1"]
        events = coord.drain_events()
        (expired,) = [d for k, d in events if k == "lease_expired"]
        assert [u["idx"] for u in expired["units"]] == [0, 1, 2]
        assert [k for k, _ in events].count("leased") == 4

    def test_expired_chunk_completion_lands_and_clears_the_backlog(self):
        coord, clock = _coord(sizes=[2], lease_timeout=5.0)
        g = coord.lease("w0")
        clock.advance(6.0)
        coord.expire()
        assert _submit(coord, g)["accepted"]
        assert coord.done
        assert "wait" in coord.lease("w1")

    def test_poisoned_unit_is_isolated_from_its_chunk(self):
        coord, clock = _coord(sizes=[2], max_attempts=2, lease_timeout=5.0)
        coord.lease("w")
        clock.advance(6.0)
        coord.expire()
        poisoned, healthy = coord.lease("w"), coord.lease("w")
        assert _submit(coord, healthy)["accepted"]
        clock.advance(6.0)
        coord.expire()  # the poisoned unit's second loss spends its budget
        assert coord.done
        statuses = [r["outcome"]["status"] for r in coord.results_in_order()]
        assert statuses == ["timed_out", "ok"]
        assert _idxs(poisoned) == [0]

    @pytest.mark.parametrize(
        "units, envelope",
        [
            ("junk", _envelope([0, 1])),
            ([{"idx": 0, "epoch": "1"}, {"idx": 1, "epoch": 1}], _envelope([0, 1])),
            ([{"idx": 0.0, "epoch": 1}, {"idx": 1, "epoch": 1}], _envelope([0, 1])),
            ([{"idx": True, "epoch": 1}, {"idx": 1, "epoch": 1}], _envelope([0, 1])),
            ([{"idx": 0, "epoch": 1}], _envelope([0])),  # not the lease's units
            ([{"idx": 0, "epoch": 1}, {"idx": 0, "epoch": 1}], _envelope([0, 0])),
            ([{"idx": 0, "epoch": 1}, {"idx": 1, "epoch": 1}], {"junk": 1}),
            ([{"idx": 0, "epoch": 1}, {"idx": 1, "epoch": 1}], _envelope([0])),
            ([{"idx": 0, "epoch": 1}, {"idx": 1, "epoch": 1}],
             {**_envelope([0, 1]), "cache_stats": {"hits": "1"}}),
            ([{"idx": 0, "epoch": 1}, {"idx": 1, "epoch": 1}],
             {**_envelope([0, 1]), "results": [{"payload": {}}, {"payload": {}}]}),
            ([{"idx": 7, "epoch": 1}, {"idx": 1, "epoch": 1}], _envelope([7, 1])),
        ],
    )
    def test_malformed_completion_is_refused_and_the_lease_stays_live(
        self, units, envelope
    ):
        coord, _ = _coord(sizes=[2])
        g = coord.lease("w")
        with pytest.raises(ValueError):
            coord.complete(g["token"], units, envelope, batch=g["batch"])
        assert coord.leases_active == 1
        assert coord.renew(g["token"]) == {"ok": True}
        assert _submit(coord, g)["accepted"]


# Operation codes for the hypothesis schedule below.
_OPS = st.sampled_from(
    ["lease", "complete", "zombie", "duplicate", "renew", "advance", "expire"]
)


class TestCoordinatorProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hostile_schedule_preserves_exactly_once(self, data):
        """Any interleaving of grants, completions, zombie resubmissions,
        expiries and clock jumps over chunked groups ends with exactly one
        result per unit and every discard accounted."""
        sizes = data.draw(
            st.lists(st.integers(1, 3), min_size=1, max_size=4), label="chunks"
        )
        n = sum(sizes)
        coord, clock = _coord(max_attempts=3, lease_timeout=10.0, sizes=sizes)
        held: list[dict] = []
        finished: list[dict] = []
        accepted = 0  # units whose completion landed
        events: list[tuple[str, dict]] = []

        def submit(grant: dict) -> int:
            return len(grant["units"]) if _submit(coord, grant)["accepted"] else 0

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
                assert submit(g) == 0  # never lands twice
            elif op == "renew" and held:
                g = held[data.draw(st.integers(0, len(held) - 1))]
                coord.renew(g["token"])
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
        completed = [i for k, d in events if k == "completed" for i in d["idxs"]]
        assert sorted(completed) == list(range(n))  # exactly once, each
        timed_out = sum(
            1
            for k, d in events
            if k == "completed"
            for r in d["envelope"]["results"]
            if r["outcome"]["status"] == "timed_out"
        )
        assert accepted + timed_out == n  # conservation
        discards = sum(1 for k, _ in events if k == "discarded")
        assert discards == coord.duplicates_discarded


class TestWireFormat:
    def test_roundtrip(self):
        jobs = [
            Job(transform=t, workload="iir", trip_count=3)
            for t in ("csr-pipelined", "pipelined")
        ]
        units = [(j.to_params(), f"key{i}", j.label) for i, j in enumerate(jobs)]
        task = (execute_job, "/tmp/c", True, {"max_attempts": 2}, None,
                units)
        doc = wire_chunk(task)
        assert doc["fn"] == "repro.runner.jobs:execute_job"
        assert [u["label"] for u in doc["units"]] == [j.label for j in jobs]
        assert json.loads(json.dumps(doc)) == doc  # JSON-clean
        assert chunk_from_wire(doc) == task

    def test_a_shared_graph_travels_once_per_chunk(self):
        from repro.runner.difftest import differential_jobs

        jobs = differential_jobs(7)
        assert len(jobs) == 70
        units = [(j.to_params(), f"key{i}", j.label) for i, j in enumerate(jobs)]
        task = (execute_job, None, False, None, None, units)
        doc = wire_chunk(task)
        body = json.dumps(doc)
        assert doc["graph"] == jobs[0].graph_json
        assert body.count(json.dumps(jobs[0].graph_json)) == 1
        assert len(body) < 20_000
        assert chunk_from_wire(json.loads(body)) == task

    def test_mixed_graphs_stay_per_unit(self):
        params, labels = _job_params(3)  # two iir units, one fir
        units = [(p, f"key{i}", l) for i, (p, l) in enumerate(zip(params, labels))]
        task = (execute_job, None, False, None, None, units)
        doc = wire_chunk(task)
        assert doc["graph"] is None
        assert all("graph" in u["params"] for u in doc["units"])
        assert chunk_from_wire(doc) == task

    def test_requeued_unit_lease_carries_the_chunk_graph(self):
        params, labels = _job_params(2)  # both units share the iir graph
        units = [(p, f"key{i}", l) for i, (p, l) in enumerate(zip(params, labels))]
        task = (execute_job, None, False, None, None, units)
        coord, clock = _coord(lease_timeout=5.0)
        coord.load([wire_chunk(task)])  # replaces the default batch
        coord.lease("w0")
        clock.advance(6.0)
        assert coord.expire() == 1
        for unit in units:  # one lease per requeued unit
            grant = coord.lease("w1")
            assert chunk_from_wire(json.loads(json.dumps(grant["task"])))[5] == [unit]

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
        assert fabric.fallbacks == {"no worker took a lease": len(params)}
        assert fabric.coordinator.done
        assert (
            f"{len(params)} run locally [no worker took a lease: {len(params)}]"
            in fabric.stats_line()
        )

    def test_fabric_parameter_validation_and_close(self):
        with pytest.raises(ValueError, match="workers"):
            RemoteFabric(workers=-1)
        with pytest.raises(ValueError, match="lease_timeout"):
            RemoteFabric(workers=2, lease_timeout=0.0)
        fabric = RemoteFabric(workers=0)
        fabric.close()
        with pytest.raises(RuntimeError, match="closed"):
            fabric.run([(execute_job, None, False, None, None, [({}, "k", "l")])])


def _post(address: str, path: str, doc: dict) -> tuple[int, dict]:
    host, port = address.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("POST", path, json.dumps(doc),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


class TestWorkPlaneValidation:
    """A malformed completion over HTTP gets a 400 and lands nothing: the
    lease stays live, and its units finish through normal expiry."""

    def test_malformed_completions_are_refused_and_the_run_finishes(self):
        params, labels = _job_params()
        fabric = RemoteFabric(workers=0, lease_timeout=0.5, worker_grace=0.3,
                              poll_interval=0.01)
        engine = ExperimentEngine(jobs=2, cache=None, remote=fabric)
        fabric.ensure_started()
        done: dict = {}
        runner = threading.Thread(target=lambda: done.update(
            out=engine.map_cached("job", execute_job, params, labels)
        ))
        runner.start()
        try:
            grant: dict = {}
            deadline = time.monotonic() + 10.0
            while "task" not in grant and time.monotonic() < deadline:
                grant = _post(fabric.address, "/v1/work/lease", {"worker": "fake"})[1]
            units = [{"idx": u["idx"], "epoch": u["epoch"]} for u in grant["units"]]
            good = {"token": grant["token"], "batch": grant["batch"],
                    "worker": "fake", "units": units}
            bad_epoch = [{**units[0], "epoch": "1"}, *units[1:]]
            bad_idx = [{**units[0], "idx": 0.5}, *units[1:]]
            for doc in (
                {**good, "envelope": {"junk": 1}},
                {**good, "units": bad_epoch, "envelope": {"junk": 1}},
                {**good, "units": bad_idx, "envelope": {"junk": 1}},
                {**good, "units": units[:1], "envelope": {"results": []}},
                {**good, "envelope": {"results": [], "cache_stats": {}}},
            ):
                status, body = _post(fabric.address, "/v1/work/complete", doc)
                assert status == 400, body
            runner.join(timeout=30.0)
            assert not runner.is_alive()
        finally:
            engine.close()
        assert _strip(done["out"]) == _serial_reference(params, labels)
        c = fabric.coordinator
        assert c.duplicates_discarded == 0
        assert c.requeues == len(units)  # the refused lease expired
        assert fabric.fallbacks == {
            "workers went quiet after lease 1": len(params)
        }


def _raw(address: str, request: bytes) -> tuple[int, dict]:
    """One raw HTTP exchange (for requests ``http.client`` will not send)."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


class TestWorkPlaneTransport:
    """The work plane runs on the shared asyncio transport: malformed
    requests get structured errors, an unexpected exception a structured
    500, and it counts none of the service's ``server.*`` metrics."""

    def test_malformed_requests_get_structured_errors(self):
        from repro import observability
        from repro.server.transport import MAX_BODY

        fabric = RemoteFabric(workers=0)
        observability.OBS.reset()
        observability.enable(trace=False)
        try:
            address = fabric.address
            answers = {
                declared: _raw(address, (
                    "POST /v1/work/lease HTTP/1.1\r\n"
                    f"Content-Length: {declared}\r\n\r\n"
                ).encode())
                for declared in ("abc", "-5", str(MAX_BODY + 1))
            }
            not_json = _raw(address, b"POST /v1/work/renew HTTP/1.1\r\n"
                                     b"Content-Length: 5\r\n\r\n{nope")
            not_object = _post(address, "/v1/work/renew", [1])
            unknown = _post(address, "/v1/work/steal", {})
            health = _raw(address, b"GET /healthz HTTP/1.1\r\n\r\n")
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
            observability.OBS.reset()
            fabric.close()
        for declared in ("abc", "-5"):
            status, body = answers[declared]
            assert status == 400
            assert "Content-Length" in body["error"]
        assert answers[str(MAX_BODY + 1)][0] == 413
        assert not_json[0] == 400 and "invalid JSON" in not_json[1]["error"]
        assert not_object == (400, {"error": "request body must be an object",
                                    "error_type": "ProtocolError"})
        assert unknown[0] == 404
        assert health == (200, {"ok": True, "leases_active": 0})
        assert fabric.coordinator.leases_granted == 0
        assert sorted(n for n in counters if n.startswith("server.")) == []

    def test_unexpected_error_is_a_structured_500(self):
        fabric = RemoteFabric(workers=0)

        def broken(worker):
            raise RuntimeError("ledger exploded")

        fabric.coordinator.lease = broken
        try:
            status, body = _post(fabric.address, "/v1/work/lease", {"worker": "w"})
        finally:
            fabric.close()
        assert status == 500
        assert body == {"error": "ledger exploded", "error_type": "RuntimeError"}

    def test_close_stops_the_listener_and_joins_its_thread(self):
        fabric = RemoteFabric(workers=0)
        host, port = fabric.address.rsplit(":", 1)
        assert any(t.name == "repro-work-plane" for t in threading.enumerate())
        fabric.close()
        assert not any(t.name == "repro-work-plane" for t in threading.enumerate())
        with pytest.raises(OSError):
            socket.create_connection((host, int(port)), timeout=5).close()

    def test_lease_ages_resolve_below_a_second(self):
        """``remote.lease_age_seconds`` has the 1 ms-10 s seconds buckets:
        the ages of a small sweep (0.03-0.26 s) land in separate
        buckets, not all in the first."""
        from repro import observability
        from repro.observability.metrics import SECONDS_BUCKETS

        fabric = RemoteFabric(workers=0)
        observability.OBS.reset()
        observability.enable(trace=False)
        try:
            for age in (0.03, 0.07, 0.2):
                fabric._observe_age(age)
            hist = observability.OBS.metrics.as_dict()["histograms"][
                "remote.lease_age_seconds"
            ]
        finally:
            observability.disable()
            observability.OBS.reset()
        assert hist["bounds"] == list(SECONDS_BUCKETS)
        assert [n for n in hist["buckets"] if n] == [1, 1, 1]
        assert fabric.lease_age_max == 0.2


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

    def test_a_single_unit_is_leased(self):
        """A one-unit batch goes to the fabric too (a server's lone
        ``transform`` request under ``serve --distributed``), not inline."""
        params, labels = _job_params(count=1)
        fabric = RemoteFabric(workers=1, lease_timeout=15.0, poll_interval=0.01)
        out, engine = self._run(fabric, params, labels)
        assert _strip(out) == _serial_reference(params, labels)
        assert fabric.coordinator.leases_granted == 1
        assert fabric.fallback_units == 0

    def test_spawned_workers_match_serial(self):
        params, labels = _job_params()
        fabric = RemoteFabric(workers=2, lease_timeout=15.0,
                              poll_interval=0.01)
        out, engine = self._run(fabric, params, labels)
        assert _strip(out) == _serial_reference(params, labels)
        # One lease per graph-affine chunk, not per unit.
        chunks = _chunks(params, fabric.workers)
        assert len(chunks) < len(params)
        assert fabric.coordinator.leases_granted == len(chunks)
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
        # The kill loses the dispatch of the victim's whole chunk (it
        # shares its graph with labels[0]); each unit requeues alone.
        assert fabric.respawns == 1
        assert fabric.coordinator.requeues == 2
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
        assert types.count("job.leased") >= len(params) + 2
        assert types.count("job.lease_expired") == 2
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


    def test_worker_retry_max_is_its_attempt_budget(self):
        """``--retry-max N`` makes N attempts per request, even above the
        default of 4."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", "127.0.0.1:9",
                "--retry-max", "7", "--retry-backoff", "0.001",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert "unreachable after 7 attempt(s)" in proc.stderr

def _run_fabric(params, labels, plan=None, retry=None, lease_timeout=30.0,
                journal=None):
    """Run a batch the way ``--workers remote --jobs 2`` does: the lease
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
    """Budget exhaustion on the fabric ``--workers remote`` builds: units that
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
        assert _cli("tables", "--no-cache", "--workers", "remote") == serial
        assert _cli("tables", "--no-cache", "--workers", "remote",
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
        out = _cli(*argv, "--workers", "remote", "--jobs", "2",
                   "--lease-timeout", "600", "--stats", plan=plan)
        table, _, stats = out.partition("=== Engine stats ===\n")
        assert table == serial
        assert "0 jobs resumed, 1 workers respawned" in stats


def test_local_fallback_runs_like_a_serial_batch(monkeypatch):
    """With no worker to take a lease, the fabric runs the batch on the
    engine's own in-process runner: the caller's fault plan stays
    installed, stage reuse matches a serial run's, and no
    process-lifetime reuse scope is left behind in the coordinator."""
    from repro.runner import reuse

    monkeypatch.setattr(reuse, "_WORKER", None)
    params, labels = _job_params()
    retry = RetryPolicy(max_attempts=3, backoff=0.0)

    def run(remote):
        plan = FaultPlan([FaultSpec("job.start", "*", times=1)])
        engine = ExperimentEngine(jobs=1, cache=None, retry=retry, remote=remote)
        try:
            with resilience.activated(plan):
                out = engine.map_cached("job", execute_job, params, labels)
                assert resilience.active_plan() is plan
        finally:
            engine.close()
        return out, engine

    serial, serial_engine = run(None)
    fabric = RemoteFabric(workers=0, worker_grace=0.05, poll_interval=0.01)
    out, engine = run(fabric)
    assert fabric.fallback_units == len(params)
    assert out == serial
    assert engine.stats.retried == serial_engine.stats.retried == len(params)
    assert engine.reuse.builds == serial_engine.reuse.builds > 0
    assert engine.reuse.as_dict() == serial_engine.reuse.as_dict()
    assert reuse._WORKER is None
