"""Chaos-proof HTTP client: capped-exponential retry with deterministic
jitter.

The remote worker loop (``python -m repro worker``: lease / renew /
complete against the coordinator's work plane) talks through
:class:`ResilientClient`, so its failure discipline lives in one place:
a transport failure is retried up to ``max_attempts`` times in all, with
``backoff * 2**(attempt-1)`` (capped) scaled by a deterministic jitter
slept between attempts, and the call raises
:class:`RemoteUnavailableError` once the budget is spent (the worker
exits 3).  Any HTTP answer, error statuses included, ends the call.

The network-shaped fault sites (``remote.connect``, ``remote.send``,
``remote.recv``) fire inside the default transport, making every retry
path reachable under a deterministic seeded
:class:`~repro.runner.resilience.FaultPlan`.  ``remote.recv`` is the
treacherous one — it fires *after* the response is read, simulating a
reply lost on the wire after the server committed the work; the retry is
correct only because requests are idempotent (dedup + lease epochs).

Everything is injectable (``transport``, ``sleep``), so the
retry ladder is unit-testable without sockets or real seconds.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from http.client import HTTPConnection

from ..observability import count
from ..runner import resilience

__all__ = [
    "ClientPolicy",
    "RemoteUnavailableError",
    "ResilientClient",
]


class RemoteUnavailableError(Exception):
    """The endpoint stayed unreachable through the whole retry budget."""


@dataclass(frozen=True)
class ClientPolicy:
    """Retry knobs for one client.

    ``max_attempts`` transport attempts per request in all;
    ``backoff * 2**(attempt-1)`` (capped at ``backoff_cap``) scaled by a
    deterministic jitter in ``[0.5, 1.0)`` is slept between attempts.
    """

    max_attempts: int = 4
    backoff: float = 0.05
    backoff_cap: float = 2.0
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


def _jitter(seed: int, path: str, attempt: int) -> float:
    """Deterministic backoff scale in ``[0.5, 1.0)`` (cf. the fault coin)."""
    h = hashlib.sha256(f"{seed}|{path}|{attempt}".encode()).digest()
    return 0.5 + (int.from_bytes(h[:8], "big") / 2**64) * 0.5


class ResilientClient:
    """HTTP JSON client hardened for a hostile network.

    ``address`` is ``host:port``.  ``transport(method, path, body_bytes)``
    must return ``(status, headers_lowercase, body_bytes)`` or raise; the
    default speaks real HTTP via :class:`http.client.HTTPConnection` with
    the ``remote.*`` fault sites armed.  The worker's heartbeat thread
    and main loop share one instance; it keeps no state but ``retries``.
    """

    def __init__(
        self,
        address: str,
        policy: ClientPolicy | None = None,
        seed: int = 0,
        transport=None,
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
        self.sleep = sleep
        self.retries = 0

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

    # -- request machinery ---------------------------------------------

    def request(
        self,
        path: str,
        doc: dict | None = None,
        method: str = "POST",
    ) -> tuple[int, dict, dict]:
        """One logical request through the retry ladder.

        Returns ``(status, headers, body_dict)`` for any HTTP response
        the server produced (including 4xx/5xx — those are *answers*,
        the caller's policy problem), and raises
        :class:`RemoteUnavailableError` when every attempt failed at the
        transport level.  Every request is retried: the work plane's
        requests are idempotent by construction (lease epochs discard a
        duplicate completion).
        """
        body = json.dumps(doc).encode() if doc is not None else None
        attempts = self.policy.max_attempts
        last_exc: Exception | None = None
        for attempt in range(1, attempts + 1):
            try:
                status, headers, raw = self.transport(method, path, body)
            except Exception as exc:
                last_exc = exc
                if attempt < attempts:
                    self.retries += 1
                    count("client.retries")
                    self.sleep(self._delay(path, attempt))
                continue
            return status, headers, self._parse(raw)
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
