"""Distributed execution fabric: leased work units over HTTP workers.

The engine's one fault-tolerant executor: the :class:`RemoteFabric`
publishes the engine's work units on a tiny HTTP *work plane* and any
number of worker processes — spawned locally (``--supervised`` spawns
``--jobs`` of them, ``--workers remote`` spawns ``--remote-workers``) or
started by hand on other hosts (``python -m repro worker --connect
HOST:PORT``) — pull them under **time-bounded leases**:

* a worker ``POST /v1/work/lease``\\ s a *chunk* — the engine's
  graph-affine run of units (:func:`repro.runner.engine._chunks`) — and
  must renew the lease by heartbeat (``/v1/work/renew``) while
  computing; the coordinator's monitor expires unrenewed leases (dead
  host, network partition, hang) and **requeues** each of its units as
  a chunk of one, budgeted per unit by the run's
  :class:`~repro.runner.resilience.RetryPolicy`; a spawned worker that
  dies has its leases expired at once, without waiting out the timeout,
  and one that is stopped (SIGSTOP) is killed and treated the same;
* every lease grant bumps each of its units' **epoch**.  A completion
  lands only if every unit carries its current epoch and has no result
  yet — the late completion of a zombie worker (partitioned, paused,
  resumed after its lease expired and a unit was re-leased) arrives
  with a stale epoch and is **discarded** whole, so a unit completes
  *exactly once* however chaotic the fleet:  ``completed + failed +
  timed_out == submitted`` and a journaled run carries exactly one
  ``job.done``/``job.failed`` record per unit;
* lease grants and expiries are journaled (``job.leased`` /
  ``job.lease_expired``, one record per unit) through the run's fsync'd
  :class:`~repro.runner.journal.RunJournal`, giving requeues durable
  provenance; journal appends and ``on_landed`` callbacks happen only on
  the fabric's run loop thread (the journal is not thread-safe), with
  HTTP handler threads merely enqueueing events;
* when no worker shows up (or the whole fleet goes quiet), the fabric
  **degrades to local execution** of the remaining units instead of
  hanging — a distributed run can always finish on the coordinator
  alone — and counts the units per reason.

Results are envelopes from the same
:func:`repro.runner.engine._pool_chunk` body the process pool runs,
flattened in submission order — a distributed run's output is
bit-identical to a serial one's.  Only allowlisted module-level functions
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
from contextlib import nullcontext
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .. import observability
from ..observability import count
from . import resilience
from .resilience import JobOutcome, RetryPolicy, _is_int, failure_payload

__all__ = [
    "LeaseCoordinator",
    "REMOTE_FNS",
    "RemoteFabric",
    "chunk_from_wire",
    "fn_name",
    "resolve_fn",
    "run_task_local",
    "wire_chunk",
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


def wire_chunk(task: tuple) -> dict:
    """Serialize one engine chunk task tuple for the work plane.

    A graph-affine chunk's units share one ``graph`` param; it travels
    once, as the chunk's ``graph`` field, instead of once per unit.
    """
    fn, cache_spec, obs_on, policy_doc, plan_doc, units = task
    graphs = {params.get("graph") for params, _key, _label in units}
    graph = graphs.pop() if len(graphs) == 1 else None
    return {
        "fn": fn_name(fn),
        "cache": list(cache_spec) if cache_spec is not None else None,
        "obs": bool(obs_on),
        "policy": policy_doc,
        "plan": plan_doc,
        "graph": graph,
        "units": [
            {
                "params": params if graph is None
                else {k: v for k, v in params.items() if k != "graph"},
                "key": key,
                "label": label,
            }
            for params, key, label in units
        ],
    }


def chunk_from_wire(doc: dict) -> tuple:
    """Rebuild the engine chunk task tuple from its wire form."""
    cache = doc.get("cache")
    graph = doc.get("graph")
    return (
        resolve_fn(doc["fn"]),
        (cache[0], cache[1]) if cache is not None else None,
        bool(doc.get("obs")),
        doc.get("policy"),
        doc.get("plan"),
        [
            (
                u["params"] if graph is None else {"graph": graph, **u["params"]},
                u["key"],
                u["label"],
            )
            for u in doc["units"]
        ],
    )


def run_task_local(task: tuple) -> dict:
    """Execute one engine chunk task tuple inline in the calling process.

    The fabric's local fallback (no reachable workers): the same
    cached/retried :func:`~repro.runner.engine._pool_chunk` body runs,
    but with ``obs_on`` forced off — the caller's live collectors already
    record everything — and the caller's active fault plan saved and
    restored around the chunk body's fresh-plan-per-chunk install.
    """
    from .engine import _pool_chunk

    fn, cache_spec, _obs, policy_doc, plan_doc, units = task
    previous = resilience.active_plan()
    try:
        return _pool_chunk((fn, cache_spec, False, policy_doc, plan_doc, units))
    finally:
        if previous is not None:
            resilience.activate(previous)
        else:
            resilience.deactivate()


def _completion_units(units, envelope) -> tuple[tuple[int, int], ...]:
    """The ``(idx, epoch)`` pairs of a well-formed completion.

    Raises :class:`ValueError` (a 400 on the work plane) unless every
    unit names an integer ``idx`` and ``epoch`` once, and ``envelope``
    has the :func:`~repro.runner.engine._pool_chunk` shape with one
    result per unit.
    """
    if not isinstance(units, list) or not units or not all(
        isinstance(u, dict) and _is_int(u.get("idx")) and _is_int(u.get("epoch"))
        and u["epoch"] > 0  # a unit's epoch is 1 from its first grant on
        for u in units
    ):
        raise ValueError("units must list integer idx and positive epoch pairs")
    pairs = tuple((u["idx"], u["epoch"]) for u in units)
    if len({idx for idx, _ in pairs}) != len(pairs):
        raise ValueError("a completion names each unit once")
    results = envelope.get("results") if isinstance(envelope, dict) else None
    if not isinstance(results, list) or len(results) != len(pairs):
        raise ValueError("envelope must carry one result per completed unit")
    for r in results:
        outcome = r.get("outcome") if isinstance(r, dict) else None
        if not (
            isinstance(r, dict)
            and isinstance(r.get("payload"), dict)
            and isinstance(r.get("cached"), bool)
            and isinstance(r.get("wall"), (int, float))
            and (outcome is None or isinstance(outcome, dict)
                 and isinstance(outcome.get("label"), str)
                 and isinstance(outcome.get("status"), str)
                 and _is_int(outcome.get("attempts", 1))
                 and isinstance(outcome.get("faults", []), list))
        ):
            raise ValueError("malformed unit result in envelope")
    for name in ("cache_stats", "reuse_stats"):
        stats = envelope.get(name, {})
        if not isinstance(stats, dict) or not all(map(_is_int, stats.values())):
            raise ValueError(f"envelope {name} must map names to integers")
    if not isinstance(envelope.get("obs") or {}, dict):
        raise ValueError("envelope obs must be an object")
    return pairs


@dataclass
class _Lease:
    """One outstanding lease: who holds which units until when."""

    token: str
    units: tuple[tuple[int, int], ...]  # (idx, epoch) per unit, in order
    worker: str
    granted_at: float
    deadline: float


class LeaseCoordinator:
    """Thread-safe lease ledger for one batch of work units.

    The pure core of the fabric — no sockets, no threads of its own, an
    injectable ``clock`` — so the exactly-once requeue machinery is
    directly testable (including by hypothesis schedules) without a
    single real process or real second.

    State is kept per unit (attempts, epoch, fault history, a write-once
    result); the backlog holds *groups* of units.  It starts as the
    loaded chunks, a grant leases one group under one token, and a unit
    whose lease is lost is requeued as a group of one, so a poisoned
    unit cannot take the rest of its chunk down with it.

    Every state transition appends a ``(kind, doc)`` event —
    ``"leased"``, ``"lease_expired"``, ``"completed"``, ``"discarded"``
    — to an internal queue the owner drains from *one* thread
    (:meth:`drain_events`), which is how journal writes and result
    callbacks stay off the HTTP handler threads.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        lease_timeout: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        self.policy = policy if policy is not None else RetryPolicy()
        self.lease_timeout = lease_timeout
        self.clock = clock
        self.closing = False  # workers drain off once the fabric closes
        self.leases_granted = 0
        self.requeues = 0
        self.duplicates_discarded = 0
        self._lock = threading.Lock()
        self._batch = 0  # generation counter: one per load()
        self._units: list[dict] = []  # idx -> {"params", "key", "label"}
        self._headers: list[dict] = []  # idx -> its chunk minus "units"
        self._backlog: deque[list[int]] = deque()
        self._attempts: list[int] = []  # idx -> dispatches granted
        self._epoch: list[int] = []  # idx -> current lease generation
        self._faults: dict[int, list[str]] = {}  # idx -> loss provenance
        self._leases: dict[str, _Lease] = {}  # token -> live lease
        self._results: dict[int, dict] = {}  # idx -> unit result, write-once
        self._events: deque[tuple[str, dict]] = deque()

    # -- batch lifecycle -----------------------------------------------

    def load(self, chunks: list[dict]) -> None:
        """Install a fresh batch of chunk docs (each with a ``units``
        list); resets all per-batch state."""
        with self._lock:
            if self._leases:
                raise RuntimeError("cannot load a batch over live leases")
            self._batch += 1
            self._units, self._headers = [], []
            self._backlog = deque()
            for chunk in chunks:
                header = {k: v for k, v in chunk.items() if k != "units"}
                first = len(self._units)
                self._units.extend(chunk["units"])
                self._headers.extend([header] * len(chunk["units"]))
                self._backlog.append(list(range(first, len(self._units))))
            self._attempts = [0] * len(self._units)
            self._epoch = [0] * len(self._units)
            self._faults = {}
            self._results = {}
            self._events.clear()

    @property
    def done(self) -> bool:
        with self._lock:
            return len(self._results) == len(self._units)

    @property
    def leases_active(self) -> int:
        with self._lock:
            return len(self._leases)

    def results_in_order(self) -> list[dict]:
        with self._lock:
            if len(self._results) != len(self._units):
                raise RuntimeError("batch not complete")
            return [self._results[i] for i in range(len(self._units))]

    def _task(self, group: list[int]) -> dict:
        """The wire chunk doc of one backlog group."""
        return {**self._headers[group[0]], "units": [self._units[i] for i in group]}

    def _unit_doc(self, idx: int, **extra) -> dict:
        unit = self._units[idx]
        return {"idx": idx, "key": unit["key"], "label": unit["label"], **extra}

    # -- the work-plane verbs (called from HTTP handler threads) -------

    def lease(self, worker: str) -> dict:
        """Grant the next pending group, or tell the worker to wait/stop."""
        with self._lock:
            if self.closing:
                return {"done": True}
            if not self._backlog:
                return {"wait": 0.05}
            group = self._backlog.popleft()
            self.leases_granted += 1
            # Batch-scoped token: a zombie from a *previous* batch (its
            # units finished without it; the owner moved on) can never
            # name — let alone pop — a live lease of the current one.
            token = f"L{self._batch}.{self.leases_granted}"
            grant = []
            for idx in group:
                grant.append({"idx": idx, "epoch": self._epoch[idx] + 1,
                              "prior_attempts": self._attempts[idx]})
                self._attempts[idx] += 1
                self._epoch[idx] += 1
            now = self.clock()
            pairs = tuple((g["idx"], g["epoch"]) for g in grant)
            deadline = now + self.lease_timeout
            self._leases[token] = _Lease(token, pairs, worker, now, deadline)
            units = [self._unit_doc(g["idx"], epoch=g["epoch"]) for g in grant]
            self._events.append(("leased", {"worker": worker, "units": units}))
            return {"task": self._task(group), "token": token, "units": grant,
                    "batch": self._batch, "lease_timeout": self.lease_timeout}

    def renew(self, token: str) -> dict:
        """Extend a live lease's deadline (the worker heartbeat)."""
        with self._lock:
            lease = self._leases.get(token)
            if lease is None or self.clock() > lease.deadline:
                return {"ok": False, "reason": "expired"}
            lease.deadline = self.clock() + self.lease_timeout
            return {"ok": True}

    def complete(self, token: str, units, envelope, worker: str = "?",
                 batch: int | None = None) -> dict:
        """Accept a finished group — whole, exactly once, by epoch.

        ``units`` lists ``{"idx", "epoch"}`` per unit, ``envelope`` is
        the group's :func:`~repro.runner.engine._pool_chunk` envelope.  A
        malformed completion raises :class:`ValueError` and changes
        nothing (the lease stays live).  A well-formed one lands iff it
        belongs to the *current* batch and every unit carries its
        *current* lease generation with no result written yet.  A
        zombie's late submission (its lease expired and a unit was
        re-leased, bumping its epoch — or the whole batch finished
        without it and a new one loaded) or a double submission is
        discarded whole, never journaled.
        """
        pairs = _completion_units(units, envelope)
        if batch is not None and not _is_int(batch):
            raise ValueError("batch must be an integer")
        with self._lock:
            idxs = [idx for idx, _ in pairs]
            if batch is not None and batch != self._batch:
                # A straggler from an earlier batch: its (idx, epoch)
                # coordinates are meaningless against current state.
                return self._discard(idxs, worker, "stale-batch")
            if not all(0 <= idx < len(self._units) for idx in idxs):
                raise ValueError("completion names a unit outside the batch")
            lease = self._leases.get(token)
            if lease is not None and lease.units != pairs:
                raise ValueError("completion units do not match the lease")
            if any(idx in self._results for idx in idxs):
                return self._discard(idxs, worker, "duplicate")
            if any(epoch != self._epoch[idx] for idx, epoch in pairs):
                return self._discard(idxs, worker, "stale-epoch")
            self._leases.pop(token, None)
            # Expired-but-not-yet-re-leased units are still completable
            # (their epochs have not moved): take the result and pull
            # them back off the backlog instead of re-executing them.
            landed = set(idxs)
            self._backlog = deque(g for g in self._backlog if landed.isdisjoint(g))
            age = self.clock() - lease.granted_at if lease is not None else None
            self._finish(idxs, envelope, worker=worker, age=age)
            return {"accepted": True}

    def _discard(self, idxs: list[int], worker: str, reason: str) -> dict:
        self.duplicates_discarded += 1
        self._events.append(
            ("discarded", {"idxs": idxs, "worker": worker, "reason": reason})
        )
        return {"accepted": False, "reason": reason}

    # -- owner-side operations (run loop thread) -----------------------

    def expire(self, worker: str | None = None) -> int:
        """Expire overdue leases, and every lease ``worker`` holds;
        requeue or fail their units.

        Returns the number of leases expired.  ``worker`` names a worker
        known to be dead, so its leases are due now rather than at their
        deadline.  Each unit of an expired lease is requeued as a group
        of one; a unit whose dispatch budget (``policy.max_attempts``) is
        exhausted degrades into the standard ``timed_out`` FAILED result.
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
                age = now - lease.granted_at
                lost = []
                for idx, epoch in lease.units:
                    attempts = self._attempts[idx]
                    self._faults.setdefault(idx, []).append(f"lease.expired@{attempts}")
                    requeued = attempts < self.policy.max_attempts
                    lost.append(self._unit_doc(idx, epoch=epoch, requeued=requeued))
                self._events.append(("lease_expired", {
                    "worker": lease.worker, "age": age, "units": lost,
                }))
                for unit in lost:
                    idx = unit["idx"]
                    if unit["requeued"]:
                        self.requeues += 1
                        self._backlog.append([idx])
                        continue
                    attempts = self._attempts[idx]
                    err = RuntimeError(
                        f"{unit['label']}: lease expired on all {attempts} "
                        f"dispatches (worker {lease.worker})"
                    )
                    outcome = JobOutcome(
                        unit["label"],
                        "timed_out",
                        attempts=attempts,
                        faults=list(self._faults[idx]),
                        error=str(err),
                        respawned=attempts,
                    )
                    result = {
                        "payload": failure_payload(err, "timed_out"),
                        "cached": False,
                        "wall": 0.0,
                        "outcome": outcome.as_dict(),
                    }
                    self._finish(
                        [idx],
                        {"results": [result], "cache_stats": {}, "reuse_stats": {}},
                        worker=lease.worker,
                        age=age,
                    )
        return expired

    def seize_pending(self) -> list[tuple[list[int], dict]]:
        """Atomically take the whole backlog iff no lease is live.

        The local-degradation entry point: returns ``(idxs, task_doc)``
        per backlog group, now owned by the caller, or ``[]`` when
        workers still hold leases (their results may yet arrive).
        """
        with self._lock:
            if self._leases or not self._backlog:
                return []
            taken = [(group, self._task(group)) for group in self._backlog]
            for group in self._backlog:
                for idx in group:
                    self._attempts[idx] += 1
            self._backlog.clear()
            return taken

    def deliver_local(self, idxs: list[int], envelope: dict) -> None:
        """Record a locally executed (seized) group's envelope."""
        with self._lock:
            if not any(idx in self._results for idx in idxs):
                self._finish(idxs, envelope, worker="local", age=None)

    def _finish(self, idxs: list[int], envelope: dict, worker: str,
                age: float | None) -> None:
        """Write-once result slots + one completion event (lock held)."""
        for idx, result in zip(idxs, envelope["results"]):
            history = self._faults.get(idx)
            outcome = result.get("outcome")
            if history and outcome is not None and not outcome.get("respawned"):
                outcome["respawned"] = len(history)
                outcome["faults"] = history + list(outcome.get("faults", []))
            self._results[idx] = result
        self._events.append(
            ("completed", {"idxs": list(idxs), "worker": worker, "age": age,
                           "envelope": envelope})
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
                out = c.renew(str(doc.get("token", "")))
            elif self.path == "/v1/work/complete":
                out = c.complete(
                    str(doc.get("token", "")),
                    doc.get("units"),
                    doc.get("envelope"),
                    worker=str(doc.get("worker", "?")),
                    batch=doc.get("batch"),
                )
            else:
                self._json(404, {"error": f"no route {self.path}"})
                return
            self._json(200, out)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client vanished mid-response; its retry will re-ask
        except ValueError as exc:  # a malformed completion: nothing changed
            self._json(400, {"error": str(exc)})
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
    """Coordinator-side executor: leases chunks of units to workers.

    The engine's ``remote=`` executor — :meth:`run` takes the engine's
    :func:`~repro.runner.engine._pool_chunk` task tuples, returns unit
    results in submission order, and fires ``on_landed(idxs, envelope)``
    per landed envelope for crash-consistent journaling.  Unlike the
    process pool it persists across batches (a tables run is many
    batches): the work plane binds lazily on first use and survives
    until :meth:`close`, with idle workers polling between batches.

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
        self.journal = None  # assigned by the engine per batch
        self.fallback_units = 0
        self.fallbacks: dict[str, int] = {}  # reason -> units run locally
        self.respawns = 0
        self.lease_age_max = 0.0
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._procs: dict[str, subprocess.Popen] = {}  # worker id -> process
        self._next_worker = 0
        self._closing = False
        self._last_grant = 0.0
        self._batch_grants = 0  # leases granted in the running batch

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

    def run(self, tasks: list[tuple], on_landed=None) -> list[dict]:
        """Execute every chunk task through the lease fabric.

        Unit results come back in submission order; ``on_landed(idxs,
        envelope)`` fires per landed envelope, on this thread, as
        results land — the engine journals and merges deltas from it.
        """
        if not tasks:
            return []
        if self._closing:
            raise RuntimeError("fabric is closed")
        self.coordinator.load([wire_chunk(t) for t in tasks])
        self.ensure_started()
        self._ensure_workers()
        self._last_grant = time.monotonic()
        self._batch_grants = 0
        while not self.coordinator.done:
            self._pump(on_landed)
            if self.coordinator.expire():
                continue  # expiry events pump on the next iteration
            self._respawn_dead()
            if self._maybe_fallback(on_landed):
                continue
            time.sleep(self.poll_interval)
        self._pump(on_landed)
        return self.coordinator.results_in_order()

    def _pump(self, on_landed) -> None:
        """Drain coordinator events: journal, metrics, landing callbacks.

        The only place journal appends and ``on_landed`` happen — always
        the run-loop thread, never an HTTP handler thread.  One drain is
        one journal group commit.
        """
        journal = self.journal
        with journal.batch() if journal is not None else nullcontext():
            for kind, doc in self.coordinator.drain_events():
                if kind == "leased":
                    self._last_grant = time.monotonic()
                    self._batch_grants += 1
                    count("remote.leases")
                    for u in doc["units"]:
                        if journal is not None:
                            journal.job_leased(
                                u["key"], u["label"], doc["worker"], u["epoch"]
                            )
                elif kind == "lease_expired":
                    count("remote.lease_expired")
                    self._observe_age(doc["age"])
                    for u in doc["units"]:
                        if u["requeued"]:
                            count("remote.requeues")
                        if journal is not None:
                            journal.job_lease_expired(
                                u["key"], u["label"], doc["worker"], u["epoch"],
                                doc["age"], u["requeued"],
                            )
                elif kind == "completed":
                    count("remote.completed")
                    if doc["age"] is not None:
                        self._observe_age(doc["age"])
                    if on_landed is not None:
                        on_landed(doc["idxs"], doc["envelope"])
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

    def _maybe_fallback(self, on_landed) -> bool:
        """Run the backlog locally once workers have gone quiet, counted
        per reason: none took a lease this batch, or all went quiet."""
        if time.monotonic() - self._last_grant <= self.worker_grace:
            return False
        seized = self.coordinator.seize_pending()
        if not seized:
            return False
        units = sum(len(idxs) for idxs, _ in seized)
        if self._batch_grants:
            reason = f"workers went quiet after lease {self._batch_grants}"
            count("remote.local_fallback.workers_quiet", units)
        else:
            reason = "no worker took a lease"
            count("remote.local_fallback.no_worker", units)
        count("remote.local_fallback", units)
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + units
        for idxs, doc in seized:
            envelope = run_task_local(chunk_from_wire(doc))
            self.coordinator.deliver_local(idxs, envelope)
            self.fallback_units += len(idxs)
            self._pump(on_landed)
        return True

    # -- reporting ------------------------------------------------------

    def stats_line(self) -> str:
        c = self.coordinator
        reasons = ", ".join(f"{why}: {n}" for why, n in self.fallbacks.items())
        return (
            f"{c.leases_granted} leases granted, {c.requeues} requeued, "
            f"{c.duplicates_discarded} duplicates discarded, "
            f"{self.fallback_units} run locally"
            + (f" [{reasons}]" if reasons else "")
            + f" ({self.workers} spawned workers, {self.respawns} respawned, "
            f"max lease age {self.lease_age_max:.2f}s)"
        )
