"""The asyncio request service: single-flight dedup, batching, shedding.

:class:`RetimingService` sits between a transport (the raw-HTTP
front-end of :mod:`repro.server.http`, or a test client calling
:meth:`~RetimingService.submit` directly) and the
:class:`~repro.runner.engine.ExperimentEngine`:

* **single-flight dedup** — requests are keyed by content address; a
  request whose key is already in flight *joins* the existing
  computation instead of enqueueing a second one, and every joiner
  receives the identical response envelope;
* **batching** — queued requests drain in batches of up to
  ``batch_max`` into one engine dispatch per distinct kind
  (:meth:`~repro.runner.engine.ExperimentEngine.run_units`), executed on
  a single worker thread so the engine (which is not thread-safe) stays
  single-threaded while the event loop keeps accepting;
* **load shedding** — the queue is bounded by ``max_inflight`` distinct
  in-flight keys; beyond it new work is refused with
  :class:`OverloadedError` (HTTP 503 + ``Retry-After``), never queued
  into unbounded memory.  Joining an in-flight key is always admitted —
  a joiner costs no work;
* **graceful drain** — :meth:`drain` stops admission (new requests get
  :class:`ServiceClosedError`), lets everything queued complete, then
  stops the dispatcher.

Accounting is deterministic and test-facing
(:class:`ServerStats`): every submitted request is eventually counted in
exactly one of ``completed`` / ``failed`` / ``shed``, and
``jobs_submitted`` counts the units actually dispatched — the
single-flight tests assert ``jobs_submitted == 1`` for N identical
concurrent requests.

The ``server.respond`` fault site fires per delivered response; an
injected fault degrades that delivery into a structured error envelope
(the requester still gets an answer — never a hung connection).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import observability
from ..observability import count
from ..observability.metrics import Histogram
from ..runner import resilience
from ..runner.difftest import differential_sweep
from ..runner.engine import ExperimentEngine, WorkUnit
from .protocol import Request, error_envelope, response_envelope

__all__ = [
    "OverloadedError",
    "RetimingService",
    "ServerStats",
    "ServiceClosedError",
]


class OverloadedError(Exception):
    """The bounded queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"server overloaded; retry after {retry_after:g}s"
        )
        self.retry_after = retry_after


class ServiceClosedError(Exception):
    """The service is draining and admits no new work.

    Carries ``retry_after`` so the HTTP layer can answer a connection
    that races the drain with a proper 503 + ``Retry-After`` instead of
    a bare refusal — the client may find a respawned server there.
    """

    def __init__(
        self, message: str = "server is draining", retry_after: float = 1.0
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class ServerStats:
    """Deterministic request-accounting counters for one service.

    The conservation law every load test asserts::

        completed + failed + shed == submitted        (once drained)

    ``jobs_submitted`` counts units dispatched toward the engine (the
    single-flight measure: deduped joiners never increment it);
    ``deduped`` counts the joiners.
    """

    submitted: int = 0  # requests received
    deduped: int = 0  # requests that joined an in-flight computation
    shed: int = 0  # requests refused (overload or draining)
    jobs_submitted: int = 0  # unique units dispatched toward the engine
    completed: int = 0  # requests answered with an ok envelope
    failed: int = 0  # requests answered with an error envelope
    batches: int = 0  # engine batch dispatches
    batched_units: int = 0  # units carried by those batches

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "shed": self.shed,
            "jobs_submitted": self.jobs_submitted,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "batched_units": self.batched_units,
        }

    @property
    def answered(self) -> int:
        return self.completed + self.failed


class RetimingService:
    """Single-flight, batching, shedding front-end over one engine."""

    def __init__(
        self,
        engine: ExperimentEngine | None = None,
        *,
        max_inflight: int = 128,
        batch_max: int = 16,
        retry_after: float = 1.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.engine = engine if engine is not None else ExperimentEngine()
        self.max_inflight = max_inflight
        self.batch_max = batch_max
        self.retry_after = retry_after
        self.stats = ServerStats()
        #: Computed engine units per answered request (0 on every
        #: cached/deduped path) — the op-counter-style latency proxy the
        #: soak test budgets instead of wall clocks.  With metrics on,
        #: the global registry's histogram of the same name (served by
        #: ``/metrics``) sees every observation too.
        self.request_cost = Histogram(
            "server.request.computed_units",
            "engine units computed per answered request",
        )
        self._pending: dict[str, asyncio.Future] = {}
        self._queue: asyncio.Queue[Request] = asyncio.Queue()
        self._gate = asyncio.Event()
        self._gate.set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._dispatcher: asyncio.Task | None = None
        self._draining = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher (idempotent)."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="repro-serve-dispatch"
            )

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        """Distinct keys currently queued or executing."""
        return len(self._pending)

    def begin_drain(self) -> None:
        """Stop admission immediately (new submissions shed with 503).

        The synchronous first half of :meth:`drain`: in-flight work keeps
        executing and delivering, but no new key enters the queue.  The
        drain-race tests use this to pin the admission decision without
        racing the full drain's completion wait.
        """
        self._draining = True

    async def drain(self) -> None:
        """Stop admission, complete everything in flight, stop dispatching."""
        self.begin_drain()
        self._gate.set()  # a held gate must not wedge the drain
        while self._pending:
            await asyncio.sleep(0.005)
        await self.aclose()

    async def aclose(self) -> None:
        """Stop the dispatcher and the batch executor (no drain).

        Anything still pending resolves to a structured shutdown error —
        a waiter never hangs on a closed service.
        """
        self._draining = True
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while self._pending:
            _key, fut = self._pending.popitem()
            if not fut.done():
                fut.set_result(
                    (
                        error_envelope(
                            "service closed before completion",
                            "ServiceClosedError",
                        ),
                        0.0,
                    )
                )
        self._executor.shutdown(wait=True)

    # -- test hooks ----------------------------------------------------

    def hold(self) -> None:
        """Pause dispatching (deterministic concurrency tests)."""
        self._gate.clear()

    def release(self) -> None:
        """Resume dispatching after :meth:`hold`."""
        self._gate.set()

    # -- request path --------------------------------------------------

    async def submit(self, req: Request) -> dict:
        """Answer one request; always returns an envelope or raises a
        structured admission error (:class:`OverloadedError`,
        :class:`ServiceClosedError`)."""
        self.stats.submitted += 1
        count("server.requests")
        if self._draining:
            self.stats.shed += 1
            count("server.shed")
            raise ServiceClosedError(
                "server is draining", retry_after=self.retry_after
            )
        existing = self._pending.get(req.key)
        if existing is not None:
            self.stats.deduped += 1
            count("server.deduped")
            env, _cost = await existing
            return self._deliver(req, env, cost=0.0)
        # Bound on distinct in-flight keys, not raw queue depth: an entry
        # leaves _pending only when its result is delivered, so the check
        # cannot race with the dispatcher dequeuing the head of the queue.
        if len(self._pending) >= self.max_inflight:
            self.stats.shed += 1
            count("server.shed")
            raise OverloadedError(self.retry_after)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[req.key] = fut
        self._queue.put_nowait(req)
        self.stats.jobs_submitted += 1
        count("server.jobs.submitted")
        env, cost = await fut
        return self._deliver(req, env, cost=cost)

    def _deliver(self, req: Request, env: dict, cost: float) -> dict:
        """Per-requester delivery: respond fault site, accounting, cost."""
        try:
            resilience.fault_point("server.respond", req.label)
        except resilience.FaultInjected as exc:
            env = error_envelope(
                str(exc), "FaultInjected", kind=req.kind, key=req.key
            )
            count("server.respond_faults")
        if env.get("ok"):
            self.stats.completed += 1
            count("server.completed")
        else:
            self.stats.failed += 1
            count("server.failed")
        self.request_cost.observe(cost)
        if observability.OBS.enabled:
            observability.OBS.metrics.histogram(
                "server.request.computed_units",
                "engine units computed per answered request",
            ).observe(cost)
        return env

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._gate.wait()
            req = await self._queue.get()
            # Re-check after the (possibly long) dequeue wait: hold() may
            # have closed the gate while the queue was empty.
            await self._gate.wait()
            batch = [req]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.batches += 1
            self.stats.batched_units += len(batch)
            count("server.batches")
            try:
                results = await loop.run_in_executor(
                    self._executor, self._run_batch, batch
                )
            except Exception as exc:  # defensive: _run_batch is total
                results = [
                    (
                        error_envelope(
                            str(exc), type(exc).__name__, kind=r.kind, key=r.key
                        ),
                        0.0,
                    )
                    for r in batch
                ]
            for r, result in zip(batch, results):
                fut = self._pending.pop(r.key, None)
                if fut is not None and not fut.done():
                    fut.set_result(result)

    def _run_batch(self, batch: list[Request]) -> list[tuple[dict, float]]:
        """Executor-thread body: one engine dispatch per distinct kind.

        Returns ``(envelope, cost)`` per request, where ``cost`` is the
        number of engine units computed for it (0 on cache hits).
        """
        out: list[tuple[dict, float] | None] = [None] * len(batch)
        unit_indices = [
            i for i, r in enumerate(batch) if r.engine_kind is not None
        ]
        if unit_indices:
            units = [
                WorkUnit(
                    kind=batch[i].engine_kind,
                    fn=batch[i].fn,
                    params=batch[i].params,
                    label=batch[i].label,
                )
                for i in unit_indices
            ]
            for i, (payload, cached, _wall, _outcome) in zip(
                unit_indices, self.engine.run_units(units)
            ):
                out[i] = (
                    response_envelope(batch[i], payload, cached),
                    0.0 if cached else 1.0,
                )
        for i, req in enumerate(batch):
            if req.kind == "sweep":
                out[i] = self._run_sweep(req)
        # The envelopes carry every failure; the engine's per-unit
        # outcomes would only grow the server with each unit it runs.
        self.engine.stats.outcomes.clear()
        return [
            r
            if r is not None
            else (  # pragma: no cover - every kind is handled above
                error_envelope("unhandled request", "ServerError"),
                0.0,
            )
            for r in out
        ]

    def _run_sweep(self, req: Request) -> tuple[dict, float]:
        """Run (or serve from cache) one full differential sweep."""
        payload = self.engine.cache.get(req.key)
        if payload is not None:
            return response_envelope(req, payload, cached=True), 0.0
        p = req.params
        before = self.engine.stats.computed
        try:
            report = differential_sweep(
                num_graphs=p["graphs"],
                seed=p["seed"],
                factors=tuple(p["factors"]),
                max_nodes=p["max_nodes"],
                engine=self.engine,
                oracle=p["oracle"],
                oracle_timeout=p["oracle_timeout"],
            )
        except Exception as exc:
            return (
                error_envelope(
                    str(exc), type(exc).__name__, kind=req.kind, key=req.key
                ),
                0.0,
            )
        cost = float(self.engine.stats.computed - before)
        payload = {
            "ok": report.ok,
            "error": None,
            "summary": report.summary(),
            "graphs": report.graphs,
            "checks": report.checks,
            "equivalence_checks": report.equivalence_checks,
            "inequality_checks": report.inequality_checks,
            "oracle_checks": report.oracle_checks,
            "failures": [
                {
                    "seed": f.seed,
                    "label": f.label,
                    "kind": f.kind,
                    "detail": f.detail,
                }
                for f in report.failures
            ],
        }
        if report.oracle_records:
            payload["gap_table"] = report.gap_table()
            payload["max_gap"] = report.max_gap
        if report.ok:
            self.engine.cache.put_safe(req.key, payload)
        return response_envelope(req, payload, cached=False), cost

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict:
        """The ``/healthz`` body: accounting, queue state, pool stats."""
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self.inflight,
            "queued": self._queue.qsize(),
            "max_inflight": self.max_inflight,
            "stats": self.stats.as_dict(),
            "engine": {
                "calls": self.engine.stats.calls,
                "computed": self.engine.stats.computed,
                "cache": self.engine.cache.stats.as_dict(),
            },
            "warm": {"jobs": self.engine.reuse.as_dict()},
        }

    def publish_metrics(self) -> None:
        """Mirror service totals into the global registry (``/metrics``)."""
        m = observability.OBS.metrics
        s = self.stats
        m.gauge("server.inflight", "distinct keys queued or executing").set(
            self.inflight
        )
        m.gauge("server.queued", "requests waiting for dispatch").set(
            self._queue.qsize()
        )
        m.gauge("server.submitted", "requests received").set(s.submitted)
        m.gauge("server.deduped", "requests coalesced by single-flight").set(
            s.deduped
        )
        m.gauge("server.shed", "requests refused under load").set(s.shed)
        m.gauge(
            "server.jobs.submitted", "unique units dispatched to the engine"
        ).set(s.jobs_submitted)
        m.gauge("server.completed", "requests answered ok").set(s.completed)
        m.gauge("server.failed", "requests answered with an error").set(s.failed)
        m.gauge("server.batches", "engine batch dispatches").set(s.batches)
        self.engine.publish_metrics()
