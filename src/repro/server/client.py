"""Chaos-proof HTTP client: retries, circuit breaking, hedging, degradation.

Both halves of the distributed fabric talk through
:class:`ResilientClient` — the worker loop (lease / renew / complete
against the coordinator's work plane) and ``--workers remote`` sweeps
offloading units to a ``python -m repro serve`` daemon — so the failure
discipline lives in exactly one place:

* **capped-exponential retry with deterministic jitter**, honoring a
  503 response's ``Retry-After`` before the next attempt;
* a **per-endpoint circuit breaker** (closed → open after consecutive
  transport failures → half-open with a single probe request → closed on
  probe success), so a dead coordinator costs one fast
  :class:`CircuitOpenError` per call instead of a full retry ladder;
* **request hedging** for idempotent reads: when the primary attempt is
  slow, a second identical request races it and the first response wins.
  Hedging is safe here *by construction* — the server single-flights on
  content address, so a hedge duplicate joins the in-flight computation
  rather than doubling work;
* **structured degradation**: :class:`RemoteOffloadExecutor` runs any
  unit the server cannot take (unreachable, shedding past the retry
  budget, protocol mismatch) locally through the same cached worker
  body, so a sweep survives the total loss of its coordinator.

The network-shaped fault sites (``remote.connect``, ``remote.send``,
``remote.recv``) fire inside the default transport, making every retry /
breaker / hedge path reachable under a deterministic seeded
:class:`~repro.runner.resilience.FaultPlan`.  ``remote.recv`` is the
treacherous one — it fires *after* the response is read, simulating a
reply lost on the wire after the server committed the work; the retry is
correct only because requests are idempotent (dedup + lease epochs).

Everything is injectable (``transport``, ``clock``, ``sleep``), so the
full state machine is unit-testable without sockets or real seconds.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

from .. import observability
from ..observability import count
from ..runner import resilience
from ..runner.remote import run_task_local

__all__ = [
    "CircuitOpenError",
    "ClientPolicy",
    "RemoteOffloadExecutor",
    "RemoteUnavailableError",
    "ResilientClient",
]


class RemoteUnavailableError(Exception):
    """The endpoint stayed unreachable through the whole retry budget."""


class CircuitOpenError(RemoteUnavailableError):
    """Failing fast: the endpoint's circuit breaker is open."""


@dataclass(frozen=True)
class ClientPolicy:
    """Retry / breaker / hedging knobs for one client.

    ``backoff * 2**(attempt-1)`` (capped at ``backoff_cap``) scaled by a
    deterministic jitter in ``[0.5, 1.0)`` is slept between attempts; a
    503's ``Retry-After`` raises the floor.  ``breaker_threshold``
    consecutive transport failures open an endpoint's breaker for
    ``breaker_reset`` seconds, after which one probe is admitted.
    ``hedge_delay`` is how long an idempotent hedged request waits for
    the primary before racing a duplicate.
    """

    max_attempts: int = 4
    backoff: float = 0.05
    backoff_cap: float = 2.0
    timeout: float = 30.0
    breaker_threshold: int = 5
    breaker_reset: float = 10.0
    hedge_delay: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )


def _jitter(seed: int, path: str, attempt: int) -> float:
    """Deterministic backoff scale in ``[0.5, 1.0)`` (cf. the fault coin)."""
    h = hashlib.sha256(f"{seed}|{path}|{attempt}".encode()).digest()
    return 0.5 + (int.from_bytes(h[:8], "big") / 2**64) * 0.5


class _Breaker:
    """Per-endpoint circuit breaker state (guarded by the client lock)."""

    def __init__(self, threshold: int, reset: float) -> None:
        self.threshold = threshold
        self.reset = reset
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open" and now - self.opened_at >= self.reset:
            self.state = "half-open"  # admit exactly one probe
            return True
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self, now: float) -> bool:
        """Returns True when this failure *opens* the breaker."""
        self.failures += 1
        opening = (
            self.state == "half-open" or self.failures >= self.threshold
        ) and self.state != "open"
        if opening:
            self.state = "open"
        if self.state == "open":
            self.opened_at = now
        return opening


class ResilientClient:
    """HTTP JSON client hardened for a hostile network.

    ``address`` is ``host:port``.  ``transport(method, path, body_bytes)``
    must return ``(status, headers_lowercase, body_bytes)`` or raise; the
    default speaks real HTTP via :class:`http.client.HTTPConnection` with
    the ``remote.*`` fault sites armed.  Thread-safe: the worker's
    heartbeat thread and main loop share one instance.
    """

    def __init__(
        self,
        address: str,
        policy: ClientPolicy | None = None,
        seed: int = 0,
        transport=None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"address must be host:port, got {address!r}")
        self.host = host
        self.port = int(port)
        self.policy = policy if policy is not None else ClientPolicy()
        self.seed = seed
        self.transport = transport if transport is not None else self._http
        self.clock = clock
        self.sleep = sleep
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.breaker_opens = 0
        self._lock = threading.Lock()
        self._breakers: dict[str, _Breaker] = {}

    # -- default transport ---------------------------------------------

    def _http(self, method: str, path: str, body: bytes | None):
        resilience.fault_point("remote.connect", path)
        conn = HTTPConnection(self.host, self.port, timeout=self.policy.timeout)
        try:
            resilience.fault_point("remote.send", path)
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            # The response was fully processed server-side; losing it now
            # is the nastiest network fault there is.
            resilience.fault_point("remote.recv", path)
            return (
                resp.status,
                {k.lower(): v for k, v in resp.getheaders()},
                raw,
            )
        finally:
            conn.close()

    # -- breaker plumbing ----------------------------------------------

    def _breaker(self, path: str) -> _Breaker:
        b = self._breakers.get(path)
        if b is None:
            b = self._breakers[path] = _Breaker(
                self.policy.breaker_threshold, self.policy.breaker_reset
            )
        return b

    def breaker_state(self, path: str) -> str:
        with self._lock:
            return self._breaker(path).state

    # -- request machinery ---------------------------------------------

    def _fire(self, method: str, path: str, body: bytes | None, hedge: bool):
        """One attempt, optionally hedged against its own slowness."""
        if not hedge:
            return self.transport(method, path, body)
        results: queue.Queue = queue.Queue()

        def runner(tag: str) -> None:
            try:
                results.put((tag, self.transport(method, path, body), None))
            except Exception as exc:
                results.put((tag, None, exc))

        threading.Thread(target=runner, args=("primary",), daemon=True).start()
        launched = 1
        try:
            tag, res, exc = results.get(timeout=self.policy.hedge_delay)
        except queue.Empty:
            with self._lock:
                self.hedges += 1
            count("client.hedges")
            threading.Thread(target=runner, args=("hedge",), daemon=True).start()
            launched = 2
            tag, res, exc = results.get()
        received = 1
        while exc is not None and received < launched:
            tag, res, exc = results.get()
            received += 1
        if exc is not None:
            raise exc
        if tag == "hedge":
            with self._lock:
                self.hedge_wins += 1
            count("client.hedge_wins")
        return res

    def request(
        self,
        path: str,
        doc: dict | None = None,
        method: str = "POST",
        idempotent: bool = False,
        hedge: bool = False,
    ) -> tuple[int, dict, dict]:
        """One logical request through the full resilience stack.

        Returns ``(status, headers, body_dict)`` for any HTTP response
        the server produced (including 4xx/5xx — those are *answers*,
        the caller's policy problem).  Raises :class:`CircuitOpenError`
        without touching the network while the endpoint's breaker is
        open, and :class:`RemoteUnavailableError` when every attempt
        failed at the transport level.  Transport failures are only
        retried for idempotent requests beyond the first attempt —
        every request in this protocol is idempotent by construction,
        but the contract is explicit at the call sites.
        """
        body = (
            json.dumps(doc).encode() if doc is not None else None
        )
        breaker = self._breaker(path)
        attempts = self.policy.max_attempts if idempotent else 1
        hedging = hedge and idempotent
        last_exc: Exception | None = None
        for attempt in range(1, attempts + 1):
            with self._lock:
                admitted = breaker.allow(self.clock())
            if not admitted:
                count("client.breaker_fastfail")
                raise CircuitOpenError(
                    f"circuit open for {self.host}:{self.port}{path}"
                )
            try:
                status, headers, raw = self._fire(method, path, body, hedging)
            except Exception as exc:
                last_exc = exc
                with self._lock:
                    opened = breaker.record_failure(self.clock())
                if opened:
                    self.breaker_opens += 1
                    count("client.breaker_open")
                if attempt < attempts:
                    self.retries += 1
                    count("client.retries")
                    self.sleep(self._delay(path, attempt))
                continue
            with self._lock:
                breaker.record_success()
            parsed = self._parse(raw)
            if status == 503 and attempt < attempts:
                retry_after = self._retry_after(headers, parsed)
                self.retries += 1
                count("client.retries")
                self.sleep(max(self._delay(path, attempt), retry_after))
                continue
            return status, headers, parsed
        raise RemoteUnavailableError(
            f"{self.host}:{self.port}{path} unreachable after "
            f"{attempts} attempt(s): {last_exc}"
        ) from last_exc

    def call(self, path: str, doc: dict | None = None, **kw) -> dict:
        """``request`` returning just the parsed body (any status)."""
        _, _, body = self.request(path, doc, **kw)
        return body

    def _delay(self, path: str, attempt: int) -> float:
        base = min(
            self.policy.backoff * 2 ** (attempt - 1), self.policy.backoff_cap
        )
        return base * _jitter(self.seed, path, attempt)

    @staticmethod
    def _parse(raw: bytes) -> dict:
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError:
            return {"raw": raw.decode(errors="replace")}
        return doc if isinstance(doc, dict) else {"raw": doc}

    @staticmethod
    def _retry_after(headers: dict, body: dict) -> float:
        value = headers.get("retry-after") or body.get("retry_after") or 0.0
        try:
            return max(0.0, float(value))
        except (TypeError, ValueError):
            return 0.0

    def stats_line(self) -> str:
        return (
            f"{self.retries} retries, {self.hedges} hedges "
            f"({self.hedge_wins} won), {self.breaker_opens} breaker opens"
        )


class RemoteOffloadExecutor:
    """Engine executor that ships units to a ``repro serve`` coordinator.

    The ``--workers remote --coordinator HOST:PORT`` mode: each sweep
    cell becomes a ``/v1/request`` transform/oracle request (hedged —
    the server single-flights on the unit's content address, so a hedge
    joins rather than recomputes), and any unit the coordinator cannot
    answer — unreachable, open breaker, shedding past the retry budget,
    a kind the protocol cannot express — degrades to local execution of
    the *same* cached worker body.  Mirrors the ``RemoteFabric.run``
    contract (submission-order envelopes, per-completion ``on_result``),
    so the engine cannot tell the two executors apart.
    """

    def __init__(
        self,
        address: str,
        client: ResilientClient | None = None,
        concurrency: int = 8,
        hedge: bool = True,
        policy: ClientPolicy | None = None,
    ) -> None:
        self.client = (
            client if client is not None else ResilientClient(address, policy=policy)
        )
        self.concurrency = max(1, concurrency)
        self.hedge = hedge
        self.journal = None  # assigned by the engine per batch; unused
        self.offloaded = 0
        self.local_units = 0

    @staticmethod
    def _request_doc(task: tuple) -> dict | None:
        """The ``/v1/request`` document for one task, if expressible."""
        fn, params, _key, _cache, _obs, _label, _policy, _plan = task
        if f"{fn.__module__}:{fn.__qualname__}" != "repro.runner.jobs:execute_job":
            return None
        if params.get("trace"):
            return None  # the wire protocol has no trace knob
        if params["transform"] == "oracle":
            return {
                "kind": "oracle",
                "params": {
                    "graph": params["graph"],
                    "oracle_timeout": params.get("oracle_timeout"),
                },
            }
        return {
            "kind": "transform",
            "params": {
                "graph": params["graph"],
                "transform": params["transform"],
                "factor": params["factor"],
                "trip_count": params["trip_count"],
                "verify": params["verify"],
            },
        }

    def _offload_one(self, doc: dict, key: str, label: str) -> dict | None:
        """One unit against the coordinator; ``None`` = run it locally."""
        try:
            status, _headers, body = self.client.request(
                "/v1/request", doc, idempotent=True, hedge=self.hedge
            )
        except RemoteUnavailableError:
            return None
        if status != 200 or "payload" not in body or body.get("key") != key:
            # An error envelope (shed past the budget, injected server
            # fault, version skew on the content address) — the unit
            # still owes a result; compute it here.
            return None
        cached = bool(body.get("cached"))
        envelope = {
            "payload": body["payload"],
            "cached": cached,
            "wall": 0.0,
            "cache_stats": {},
        }
        if not cached:
            envelope["outcome"] = resilience.JobOutcome(label, "ok").as_dict()
        return envelope

    def run(self, tasks: list[tuple], on_result=None) -> list[dict]:
        """Execute every task: offload what the server takes, run the rest.

        Submission-order envelopes; ``on_result`` fires per completion on
        this thread (``as_completed`` drains here), keeping journal
        appends single-threaded.
        """
        if not tasks:
            return []
        envelopes: list[dict | None] = [None] * len(tasks)
        docs = [self._request_doc(t) for t in tasks]
        local = [i for i in range(len(tasks)) if docs[i] is None]
        remote = [i for i in range(len(tasks)) if docs[i] is not None]
        if remote:
            with ThreadPoolExecutor(
                max_workers=min(self.concurrency, len(remote))
            ) as pool:
                futures = {
                    pool.submit(
                        self._offload_one, docs[i], tasks[i][2], tasks[i][5]
                    ): i
                    for i in remote
                }
                for fut in as_completed(futures):
                    i = futures[fut]
                    envelope = fut.result()
                    if envelope is None:
                        local.append(i)
                        continue
                    envelopes[i] = envelope
                    self.offloaded += 1
                    count("client.offloaded")
                    if on_result is not None:
                        on_result(i, envelope)
        for i in sorted(local):
            # Structured degradation: same cached worker body, inline.
            envelope = run_task_local(tasks[i])
            envelopes[i] = envelope
            self.local_units += 1
            count("client.local_fallback")
            if on_result is not None:
                on_result(i, envelope)
        return envelopes  # type: ignore[return-value]

    def close(self) -> None:
        pass  # nothing persistent: connections are per-request

    def stats_line(self) -> str:
        return (
            f"{self.offloaded} units offloaded, {self.local_units} run "
            f"locally ({self.client.stats_line()})"
        )

    def publish_metrics(self) -> None:
        m = observability.OBS.metrics
        m.gauge("client.offloaded_units", "units answered by the coordinator").set(
            self.offloaded
        )
        m.gauge("client.local_fallback_units", "units degraded to local").set(
            self.local_units
        )
        m.gauge("client.breaker_opens", "circuit-breaker open transitions").set(
            self.client.breaker_opens
        )
