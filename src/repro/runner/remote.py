"""Distributed execution fabric: leased work units over HTTP workers.

The engine's one fault-tolerant executor: the :class:`RemoteFabric`
publishes the engine's work units on a tiny HTTP *work plane* and any
number of worker processes — spawned locally (``--supervised`` spawns
``--jobs`` of them, ``--workers remote`` spawns ``--remote-workers``) or
started by hand on other hosts (``python -m repro worker --connect
HOST:PORT``) — pull them under **time-bounded leases**:

* a worker ``POST /v1/work/lease``\\ s a unit and must renew the lease by
  heartbeat (``/v1/work/renew``) while computing; the coordinator's
  monitor expires unrenewed leases (dead host, network partition, hang)
  and **requeues** the unit, budgeted by the run's
  :class:`~repro.runner.resilience.RetryPolicy`; a spawned worker that
  dies has its leases expired at once, without waiting out the timeout,
  and one that is stopped (SIGSTOP) is killed and treated the same;
* every lease grant bumps the unit's **epoch**.  A completion is
  accepted only if it carries the current epoch and the unit has no
  result yet — the late completion of a zombie worker (partitioned,
  paused, resumed after its lease expired and the unit was re-leased)
  arrives with a stale epoch and is **discarded**, so a unit completes
  *exactly once* however chaotic the fleet:  ``completed + failed +
  timed_out == submitted`` and a journaled run carries exactly one
  ``job.done``/``job.failed`` record per unit;
* lease grants and expiries are journaled (``job.leased`` /
  ``job.lease_expired``) through the run's fsync'd
  :class:`~repro.runner.journal.RunJournal`, giving requeues durable
  provenance; journal appends and ``on_result`` callbacks happen only on
  the fabric's run loop thread (the journal is not thread-safe), with
  HTTP handler threads merely enqueueing events;
* when no worker shows up (or the whole fleet dies), the fabric
  **degrades to local execution** of the remaining units instead of
  hanging — a distributed run can always finish on the coordinator
  alone.

Results are envelopes from the same
:func:`repro.runner.engine._pool_worker` body the process pools run, in
submission order — a distributed run's output is bit-identical to a
serial one's.  Only allowlisted module-level functions
(:data:`REMOTE_FNS`) can be named in a work unit; the worker never
imports or executes arbitrary callables from the wire.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .. import observability
from ..observability import count
from . import resilience
from .resilience import JobOutcome, RetryPolicy, failure_payload

__all__ = [
    "LeaseCoordinator",
    "REMOTE_FNS",
    "RemoteFabric",
    "fn_name",
    "resolve_fn",
    "run_task_local",
    "task_from_wire",
    "wire_task",
]

#: The allowlist of functions a work unit may name on the wire, keyed by
#: ``"module:qualname"``.  Workers resolve strictly through this table —
#: a coordinator (or an attacker reaching the work plane) cannot make a
#: worker import and execute arbitrary code.
REMOTE_FNS: dict[str, tuple[str, str]] = {
    "repro.runner.jobs:execute_job": ("repro.runner.jobs", "execute_job"),
    "repro.server.work:analyze_graph": ("repro.server.work", "analyze_graph"),
    "repro.analysis.experiments:_table1_payload": (
        "repro.analysis.experiments", "_table1_payload",
    ),
    "repro.analysis.experiments:_table2_payload": (
        "repro.analysis.experiments", "_table2_payload",
    ),
    "repro.analysis.experiments:_orders_payload": (
        "repro.analysis.experiments", "_orders_payload",
    ),
}


def fn_name(fn) -> str:
    """The wire name of an allowlisted worker function."""
    name = f"{fn.__module__}:{fn.__qualname__}"
    if name not in REMOTE_FNS:
        raise ValueError(
            f"{name} is not registered for remote execution "
            f"(allowlist: {sorted(REMOTE_FNS)})"
        )
    return name


def resolve_fn(name: str):
    """Import and return an allowlisted function by wire name."""
    entry = REMOTE_FNS.get(name)
    if entry is None:
        raise ValueError(
            f"function {name!r} is not registered for remote execution"
        )
    module, attr = entry
    return getattr(importlib.import_module(module), attr)


def wire_task(task: tuple) -> dict:
    """Serialize one engine pool task tuple for the work plane."""
    fn, params, key, cache_spec, obs_on, label, policy_doc, plan_doc = task
    return {
        "fn": fn_name(fn),
        "params": params,
        "key": key,
        "cache": list(cache_spec) if cache_spec is not None else None,
        "obs": bool(obs_on),
        "label": label,
        "policy": policy_doc,
        "plan": plan_doc,
    }


def task_from_wire(doc: dict, obs_on: bool | None = None) -> tuple:
    """Rebuild the engine pool task tuple from its wire form."""
    cache = doc.get("cache")
    return (
        resolve_fn(doc["fn"]),
        doc["params"],
        doc["key"],
        (cache[0], cache[1]) if cache is not None else None,
        bool(doc.get("obs")) if obs_on is None else obs_on,
        doc["label"],
        doc.get("policy"),
        doc.get("plan"),
    )


def run_task_local(task: tuple) -> dict:
    """Execute one engine task tuple inline in the calling process.

    The fabric's local fallback (no reachable workers): the same
    cached/retried :func:`~repro.runner.engine._pool_worker` body runs,
    but with ``obs_on`` forced off — the caller's live collectors already
    record everything — and the caller's active fault plan saved and
    restored around the worker body's fresh-plan-per-task install.
    """
    from .engine import _pool_worker

    fn, params, key, cache_spec, _obs, label, policy_doc, plan_doc = task
    previous = resilience.active_plan()
    try:
        return _pool_worker(
            (fn, params, key, cache_spec, False, label, policy_doc, plan_doc)
        )
    finally:
        if previous is not None:
            resilience.activate(previous)
        else:
            resilience.deactivate()


@dataclass
class _Lease:
    """One outstanding lease: who holds which unit until when."""

    token: str
    idx: int
    epoch: int
    worker: str
    granted_at: float
    deadline: float


class LeaseCoordinator:
    """Thread-safe lease ledger for one batch of work units.

    The pure core of the fabric — no sockets, no threads of its own, an
    injectable ``clock`` — so the exactly-once requeue machinery is
    directly testable (including by hypothesis schedules) without a
    single real process or real second.

    Every state transition appends a ``(kind, doc)`` event —
    ``"leased"``, ``"lease_expired"``, ``"completed"``, ``"discarded"``
    — to an internal queue the owner drains from *one* thread
    (:meth:`drain_events`), which is how journal writes and ``on_result``
    callbacks stay off the HTTP handler threads.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        lease_timeout: float = 30.0,
        clock=time.monotonic,
        wait_hint: float = 0.05,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        self.policy = policy if policy is not None else RetryPolicy()
        self.lease_timeout = lease_timeout
        self.clock = clock
        self.wait_hint = wait_hint
        self.closing = False  # workers drain off once the fabric closes
        self.leases_granted = 0
        self.requeues = 0
        self.duplicates_discarded = 0
        self._lock = threading.Lock()
        self._batch = 0  # generation counter: one per load()
        self._tasks: list[dict] = []
        self._backlog: deque[int] = deque()
        self._attempts: dict[int, int] = {}  # idx -> dispatches granted
        self._epoch: dict[int, int] = {}  # idx -> current lease generation
        self._faults: dict[int, list[str]] = {}  # idx -> loss provenance
        self._leases: dict[str, _Lease] = {}  # token -> live lease
        self._results: dict[int, dict] = {}  # idx -> envelope, write-once
        self._events: deque[tuple[str, dict]] = deque()

    # -- batch lifecycle -----------------------------------------------

    def load(self, task_docs: list[dict]) -> None:
        """Install a fresh batch; resets all per-batch state."""
        with self._lock:
            if self._leases:
                raise RuntimeError("cannot load a batch over live leases")
            self._batch += 1
            self._tasks = list(task_docs)
            self._backlog = deque(range(len(self._tasks)))
            self._attempts = {i: 0 for i in range(len(self._tasks))}
            self._epoch = {i: 0 for i in range(len(self._tasks))}
            self._faults = {}
            self._results = {}
            self._events.clear()

    @property
    def done(self) -> bool:
        with self._lock:
            return len(self._results) == len(self._tasks)

    @property
    def leases_active(self) -> int:
        with self._lock:
            return len(self._leases)

    def results_in_order(self) -> list[dict]:
        with self._lock:
            if len(self._results) != len(self._tasks):
                raise RuntimeError("batch not complete")
            return [self._results[i] for i in range(len(self._tasks))]

    # -- the work-plane verbs (called from HTTP handler threads) -------

    def lease(self, worker: str) -> dict:
        """Grant the next pending unit, or tell the worker to wait/stop."""
        with self._lock:
            if self.closing:
                return {"done": True}
            if not self._backlog:
                return {"wait": self.wait_hint}
            idx = self._backlog.popleft()
            prior = self._attempts[idx]
            self._attempts[idx] = prior + 1
            self._epoch[idx] += 1
            epoch = self._epoch[idx]
            # Batch-scoped token: a zombie from a *previous* batch (its
            # unit finished without it; the owner moved on) can never
            # name — let alone pop — a live lease of the current one.
            token = f"L{self._batch}.{idx}.{epoch}"
            now = self.clock()
            self._leases[token] = _Lease(
                token=token,
                idx=idx,
                epoch=epoch,
                worker=worker,
                granted_at=now,
                deadline=now + self.lease_timeout,
            )
            self.leases_granted += 1
            doc = self._tasks[idx]
            self._events.append(
                (
                    "leased",
                    {
                        "idx": idx,
                        "key": doc["key"],
                        "label": doc["label"],
                        "worker": worker,
                        "epoch": epoch,
                    },
                )
            )
            return {
                "task": doc,
                "token": token,
                "epoch": epoch,
                "idx": idx,
                "batch": self._batch,
                "lease_timeout": self.lease_timeout,
                "prior_attempts": prior,
            }

    def renew(self, token: str, epoch: int) -> dict:
        """Extend a live lease's deadline (the worker heartbeat)."""
        with self._lock:
            lease = self._leases.get(token)
            if lease is None or lease.epoch != epoch:
                return {"ok": False, "reason": "expired"}
            if self.clock() > lease.deadline:
                return {"ok": False, "reason": "expired"}
            lease.deadline = self.clock() + self.lease_timeout
            return {"ok": True}

    def complete(self, token: str, epoch: int, idx: int, envelope: dict,
                 worker: str = "?", batch: int | None = None) -> dict:
        """Accept a finished unit — exactly once, by epoch.

        A completion lands iff it belongs to the *current* batch, carries
        the unit's *current* lease generation, and no result was written
        yet.  A zombie's late submission (its lease expired and the unit
        was re-leased, bumping the epoch — or the whole batch finished
        without it and a new one loaded) or a double submission is
        discarded, never journaled.
        """
        with self._lock:
            if batch is not None and batch != self._batch:
                # A straggler from an earlier batch: its (idx, epoch)
                # coordinates are meaningless against current state.
                self.duplicates_discarded += 1
                self._events.append(
                    ("discarded", {"idx": idx, "worker": worker,
                                   "epoch": epoch, "reason": "stale-batch"})
                )
                return {"accepted": False, "reason": "stale-batch"}
            lease = self._leases.pop(token, None)
            if (
                not isinstance(idx, int)
                or idx not in self._attempts
                or idx in self._results
                or epoch != self._epoch.get(idx)
            ):
                self.duplicates_discarded += 1
                reason = (
                    "duplicate"
                    if isinstance(idx, int) and idx in self._results
                    else "stale-epoch"
                )
                self._events.append(
                    ("discarded", {"idx": idx, "worker": worker,
                                   "epoch": epoch, "reason": reason})
                )
                return {"accepted": False, "reason": reason}
            # An expired-but-not-yet-re-leased unit is still completable
            # (the epoch has not moved): take the result and pull the
            # unit back off the backlog instead of re-executing it.
            if idx in self._backlog:
                self._backlog.remove(idx)
            age = self.clock() - lease.granted_at if lease is not None else None
            self._finish(idx, envelope, worker=worker, age=age)
            return {"accepted": True}

    # -- owner-side operations (run loop thread) -----------------------

    def expire(self, worker: str | None = None) -> int:
        """Expire overdue leases, and every lease ``worker`` holds;
        requeue or fail their units.

        Returns the number of leases expired.  ``worker`` names a worker
        known to be dead, so its leases are due now rather than at their
        deadline.  A unit whose dispatch budget (``policy.max_attempts``)
        is exhausted degrades into the standard ``timed_out`` FAILED
        envelope.
        """
        now = self.clock()
        expired = 0
        with self._lock:
            for token in [
                t
                for t, l in self._leases.items()
                if now > l.deadline or l.worker == worker
            ]:
                lease = self._leases.pop(token)
                expired += 1
                idx = lease.idx
                if idx in self._results:
                    continue
                attempts = self._attempts[idx]
                faults = self._faults.setdefault(idx, [])
                faults.append(f"lease.expired@{attempts}")
                requeue = attempts < self.policy.max_attempts
                doc = self._tasks[idx]
                self._events.append(
                    (
                        "lease_expired",
                        {
                            "idx": idx,
                            "key": doc["key"],
                            "label": doc["label"],
                            "worker": lease.worker,
                            "epoch": lease.epoch,
                            "age": now - lease.granted_at,
                            "requeued": requeue,
                        },
                    )
                )
                if requeue:
                    self.requeues += 1
                    self._backlog.append(idx)
                    continue
                label = doc["label"]
                err = RuntimeError(
                    f"{label}: lease expired on all {attempts} dispatches "
                    f"(worker {lease.worker})"
                )
                outcome = JobOutcome(
                    label,
                    "timed_out",
                    attempts=attempts,
                    faults=list(faults),
                    error=str(err),
                    respawned=attempts,
                )
                self._finish(
                    idx,
                    {
                        "payload": failure_payload(err, "timed_out"),
                        "cached": False,
                        "wall": 0.0,
                        "outcome": outcome.as_dict(),
                        "cache_stats": {},
                    },
                    worker=lease.worker,
                    age=now - lease.granted_at,
                )
        return expired

    def seize_pending(self) -> list[tuple[int, dict]]:
        """Atomically take the whole backlog iff no lease is live.

        The local-degradation entry point: returns ``(idx, task_doc)``
        pairs now owned by the caller, or ``[]`` when workers still hold
        leases (their results may yet arrive).
        """
        with self._lock:
            if self._leases or not self._backlog:
                return []
            taken = [(idx, self._tasks[idx]) for idx in self._backlog]
            for idx, _ in taken:
                self._attempts[idx] += 1
            self._backlog.clear()
            return taken

    def deliver_local(self, idx: int, envelope: dict) -> None:
        """Record a locally executed (seized) unit's result."""
        with self._lock:
            if idx in self._results:
                return
            self._finish(idx, envelope, worker="local", age=None)

    def _finish(self, idx: int, envelope: dict, worker: str,
                age: float | None) -> None:
        """Write-once result slot + completion event (lock held)."""
        history = self._faults.get(idx)
        if history and envelope.get("outcome") is not None:
            outcome = envelope["outcome"]
            if not outcome.get("respawned"):
                outcome["respawned"] = len(history)
                outcome["faults"] = history + list(outcome.get("faults", []))
        self._results[idx] = envelope
        doc = self._tasks[idx]
        self._events.append(
            (
                "completed",
                {
                    "idx": idx,
                    "key": doc["key"],
                    "label": doc["label"],
                    "worker": worker,
                    "age": age,
                    "envelope": envelope,
                },
            )
        )

    def drain_events(self) -> list[tuple[str, dict]]:
        """Pop all queued events (the owner's single-threaded pump)."""
        out: list[tuple[str, dict]] = []
        with self._lock:
            while self._events:
                out.append(self._events.popleft())
        return out


class _WorkHandler(BaseHTTPRequestHandler):
    """The coordinator's work plane: lease / renew / complete."""

    protocol_version = "HTTP/1.1"
    timeout = 30.0

    def _json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        if self.path != "/healthz":
            self._json(404, {"error": f"no route {self.path}"})
            return
        c = self.server.coordinator  # type: ignore[attr-defined]
        self._json(200, {"ok": True, "leases_active": c.leases_active})

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        try:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            try:
                doc = json.loads(raw) if raw else {}
            except ValueError:
                self._json(400, {"error": "request body is not valid JSON"})
                return
            if not isinstance(doc, dict):
                self._json(400, {"error": "request body must be an object"})
                return
            c = self.server.coordinator  # type: ignore[attr-defined]
            if self.path == "/v1/work/lease":
                out = c.lease(str(doc.get("worker", "?")))
            elif self.path == "/v1/work/renew":
                out = c.renew(str(doc.get("token", "")), doc.get("epoch"))
            elif self.path == "/v1/work/complete":
                out = c.complete(
                    str(doc.get("token", "")),
                    doc.get("epoch"),
                    doc.get("idx"),
                    doc.get("envelope") or {},
                    worker=str(doc.get("worker", "?")),
                    batch=doc.get("batch"),
                )
            else:
                self._json(404, {"error": f"no route {self.path}"})
                return
            self._json(200, out)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client vanished mid-response; its retry will re-ask
        except Exception as exc:  # never a hung socket
            try:
                self._json(500, {"error": str(exc),
                                 "error_type": type(exc).__name__})
            except OSError:
                pass

    def log_message(self, *args) -> None:  # silence per-request noise
        pass


def _stopped(proc: subprocess.Popen) -> bool:
    """Whether the child is stopped (SIGSTOP/SIGTSTP), without reaping a
    live one.  An exit this happens to reap is recorded on ``proc``."""
    if not hasattr(os, "WUNTRACED"):
        return False
    try:
        pid, status = os.waitpid(proc.pid, os.WNOHANG | os.WUNTRACED)
    except ChildProcessError:
        return False
    if pid == 0:
        return False
    if os.WIFSTOPPED(status):
        return True
    proc.returncode = os.waitstatus_to_exitcode(status)
    return False


class RemoteFabric:
    """Coordinator-side executor: leases units to remote workers.

    The engine's ``remote=`` executor — :meth:`run` takes the engine's
    task tuples, returns envelopes in submission order, and fires
    ``on_result(idx, envelope)`` per completion for crash-consistent
    journaling.  Unlike the process pool it persists across batches (a
    tables run is many batches): the work plane binds lazily on first
    use and survives until :meth:`close`, with idle workers polling
    between batches.

    Parameters
    ----------
    workers:
        Local worker processes to spawn (``--jobs`` under
        ``--supervised``, else ``--remote-workers``); ``0`` means external
        workers will connect (``python -m repro worker``).
    policy:
        :class:`RetryPolicy` budgeting lease dispatches per unit.
    lease_timeout:
        Seconds a lease lives without renewal before it expires and the
        unit requeues.
    worker_grace:
        Seconds without any lease grant (and none outstanding) before
        the fabric stops waiting for workers and runs the remaining
        units locally.
    """

    def __init__(
        self,
        workers: int = 0,
        policy: RetryPolicy | None = None,
        lease_timeout: float = 30.0,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.02,
        worker_grace: float = 5.0,
        worker_args: tuple[str, ...] = (),
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.coordinator = LeaseCoordinator(
            policy=self.policy, lease_timeout=lease_timeout
        )
        self.lease_timeout = lease_timeout
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.worker_grace = worker_grace
        self.worker_args = tuple(worker_args)
        self.journal = None  # assigned by the engine per batch
        self.fallback_units = 0
        self.respawns = 0
        self.lease_age_max = 0.0
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._procs: dict[str, subprocess.Popen] = {}  # worker id -> process
        self._next_worker = 0
        self._closing = False
        self._last_grant = 0.0

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` of the work plane (starts the server if needed)."""
        self.ensure_started()
        assert self._server is not None
        return "%s:%d" % self._server.server_address[:2]

    def ensure_started(self) -> None:
        if self._server is not None:
            return
        if self._closing:
            raise RuntimeError("fabric is closed")
        server = ThreadingHTTPServer((self.host, self.port), _WorkHandler)
        server.daemon_threads = True
        server.coordinator = self.coordinator  # type: ignore[attr-defined]
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-work-plane",
            daemon=True,
        )
        thread.start()
        self._server = server
        self._server_thread = thread

    def _spawn_worker(self) -> None:
        wid = f"spawn-{self._next_worker}"
        self._next_worker += 1
        env = os.environ.copy()
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            self.address,
            "--id",
            wid,
            *self.worker_args,
        ]
        # Workers own stderr (fault chatter is diagnosable) but never
        # stdout: the coordinating CLI's output must stay byte-identical
        # to a single-host run's.
        self._procs[wid] = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL
        )
        count("remote.workers_spawned")

    def _ensure_workers(self) -> None:
        while len(self._procs) < self.workers:
            self._spawn_worker()

    def _respawn_dead(self) -> None:
        """Replace spawned workers that died (SIGKILL chaos, crashes) or
        were stopped (SIGSTOP: hung for good, heartbeat and all).

        A stopped worker is killed first.  Either way the worker renews
        nothing, so its leases are expired now rather than at their
        deadline: its unit requeues at once.
        """
        if self._closing:
            return
        for wid, proc in list(self._procs.items()):
            if proc.poll() is None and _stopped(proc):
                proc.kill()
                proc.wait()
                count("remote.workers_stopped")
            if proc.poll() is not None:
                del self._procs[wid]
                self.coordinator.expire(worker=wid)
                self._spawn_worker()
                self.respawns += 1
                count("remote.workers_respawned")

    def close(self) -> None:
        """Stop workers (they drain off on the next poll) and the plane."""
        self._closing = True
        self.coordinator.closing = True
        deadline = time.monotonic() + 5.0
        for proc in self._procs.values():
            try:
                proc.wait(timeout=max(0.05, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._procs = {}
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
            self._server = None
            self._server_thread = None

    # -- the run loop ---------------------------------------------------

    def run(self, tasks: list[tuple], on_result=None) -> list[dict]:
        """Execute every task through the lease fabric.

        Envelopes come back in submission order; ``on_result(idx,
        envelope)`` fires per completion, on this thread, as results
        land — the engine journals from it.
        """
        if not tasks:
            return []
        if self._closing:
            raise RuntimeError("fabric is closed")
        self.coordinator.load([wire_task(t) for t in tasks])
        self.ensure_started()
        self._ensure_workers()
        self._last_grant = time.monotonic()
        while not self.coordinator.done:
            self._pump(on_result)
            if self.coordinator.expire():
                continue  # expiry events pump on the next iteration
            self._respawn_dead()
            if self._maybe_fallback(tasks, on_result):
                continue
            time.sleep(self.poll_interval)
        self._pump(on_result)
        return self.coordinator.results_in_order()

    def _pump(self, on_result) -> None:
        """Drain coordinator events: journal, metrics, result callbacks.

        The only place journal appends and ``on_result`` happen — always
        the run-loop thread, never an HTTP handler thread.
        """
        for kind, doc in self.coordinator.drain_events():
            if kind == "leased":
                self._last_grant = time.monotonic()
                count("remote.leases")
                if self.journal is not None:
                    self.journal.job_leased(
                        doc["key"], doc["label"], doc["worker"], doc["epoch"]
                    )
            elif kind == "lease_expired":
                count("remote.lease_expired")
                if doc["requeued"]:
                    count("remote.requeues")
                self._observe_age(doc["age"])
                if self.journal is not None:
                    self.journal.job_lease_expired(
                        doc["key"],
                        doc["label"],
                        doc["worker"],
                        doc["epoch"],
                        doc["age"],
                        doc["requeued"],
                    )
            elif kind == "completed":
                count("remote.completed")
                if doc["age"] is not None:
                    self._observe_age(doc["age"])
                if on_result is not None:
                    on_result(doc["idx"], doc["envelope"])
            elif kind == "discarded":
                count("remote.duplicates_discarded")
        if observability.OBS.enabled:
            observability.OBS.metrics.gauge(
                "remote.leases_active", "work-plane leases outstanding"
            ).set(self.coordinator.leases_active)

    def _observe_age(self, age: float) -> None:
        self.lease_age_max = max(self.lease_age_max, age)
        if observability.OBS.enabled:
            observability.OBS.metrics.histogram(
                "remote.lease_age_seconds",
                "lease age at completion or expiry",
            ).observe(age)

    def _maybe_fallback(self, tasks: list[tuple], on_result) -> bool:
        """Run the backlog locally once workers have gone quiet."""
        if time.monotonic() - self._last_grant <= self.worker_grace:
            return False
        seized = self.coordinator.seize_pending()
        if not seized:
            return False
        count("remote.local_fallback", len(seized))
        for idx, _doc in seized:
            envelope = run_task_local(tasks[idx])
            self.coordinator.deliver_local(idx, envelope)
            self.fallback_units += 1
            self._pump(on_result)
        return True

    # -- reporting ------------------------------------------------------

    def stats_line(self) -> str:
        c = self.coordinator
        return (
            f"{c.leases_granted} leases granted, {c.requeues} requeued, "
            f"{c.duplicates_discarded} duplicates discarded, "
            f"{self.fallback_units} run locally "
            f"({self.workers} spawned workers, {self.respawns} respawned, "
            f"max lease age {self.lease_age_max:.2f}s)"
        )

    def publish_metrics(self) -> None:
        """Mirror fabric totals into the global metrics registry."""
        m = observability.OBS.metrics
        c = self.coordinator
        m.gauge("remote.leases_active", "work-plane leases outstanding").set(
            c.leases_active
        )
        m.gauge("remote.leases_granted", "lease grants this run").set(
            c.leases_granted
        )
        m.gauge("remote.requeues_total", "units requeued after expiry").set(
            c.requeues
        )
        m.gauge(
            "remote.duplicates_discarded_total",
            "zombie completions rejected by epoch",
        ).set(c.duplicates_discarded)
        m.gauge(
            "remote.local_fallback_units", "units degraded to local execution"
        ).set(self.fallback_units)
