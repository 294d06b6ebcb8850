"""Chaos-proof HTTP client: retries and circuit breaking.

The remote worker loop (``python -m repro worker``: lease / renew /
complete against the coordinator's work plane) talks through
:class:`ResilientClient`, so its failure discipline lives in one place:

* **capped-exponential retry with deterministic jitter**, honoring a
  503 response's ``Retry-After`` before the next attempt;
* a **per-endpoint circuit breaker** (closed → open after consecutive
  transport failures → half-open with a single probe request → closed on
  probe success), so a dead coordinator costs one fast
  :class:`CircuitOpenError` per call instead of a full retry ladder.

The network-shaped fault sites (``remote.connect``, ``remote.send``,
``remote.recv``) fire inside the default transport, making every retry /
breaker path reachable under a deterministic seeded
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
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection

from ..observability import count
from ..runner import resilience

__all__ = [
    "CircuitOpenError",
    "ClientPolicy",
    "RemoteUnavailableError",
    "ResilientClient",
]


class RemoteUnavailableError(Exception):
    """The endpoint stayed unreachable through the whole retry budget."""


class CircuitOpenError(RemoteUnavailableError):
    """Failing fast: the endpoint's circuit breaker is open."""


@dataclass(frozen=True)
class ClientPolicy:
    """Retry / breaker knobs for one client.

    ``backoff * 2**(attempt-1)`` (capped at ``backoff_cap``) scaled by a
    deterministic jitter in ``[0.5, 1.0)`` is slept between attempts; a
    503's ``Retry-After`` raises the floor.  ``breaker_threshold``
    consecutive transport failures open an endpoint's breaker for
    ``breaker_reset`` seconds, after which one probe is admitted.
    """

    max_attempts: int = 4
    backoff: float = 0.05
    backoff_cap: float = 2.0
    timeout: float = 30.0
    breaker_threshold: int = 5
    breaker_reset: float = 10.0

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

    def request(
        self,
        path: str,
        doc: dict | None = None,
        method: str = "POST",
    ) -> tuple[int, dict, dict]:
        """One logical request through the full resilience stack.

        Returns ``(status, headers, body_dict)`` for any HTTP response
        the server produced (including 4xx/5xx — those are *answers*,
        the caller's policy problem).  Raises :class:`CircuitOpenError`
        without touching the network while the endpoint's breaker is
        open, and :class:`RemoteUnavailableError` when every attempt
        failed at the transport level.  Every request is retried: the
        work plane's requests are idempotent by construction (lease
        epochs discard a duplicate completion).
        """
        body = (
            json.dumps(doc).encode() if doc is not None else None
        )
        breaker = self._breaker(path)
        attempts = self.policy.max_attempts
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
                status, headers, raw = self.transport(method, path, body)
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

    def call(self, path: str, doc: dict | None = None) -> dict:
        """``request`` returning just the parsed body (any status)."""
        _, _, body = self.request(path, doc)
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
