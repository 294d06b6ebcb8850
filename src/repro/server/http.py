"""Minimal asyncio HTTP/1.1 transport for the retiming service.

Stdlib only — raw request parsing over ``asyncio`` streams, one request
per connection (``Connection: close``).  Three routes:

* ``GET /healthz`` — the service :meth:`~RetimingService.snapshot`
  (status, queue depth, accounting), status 200 or 503 while draining;
* ``GET /metrics`` — Prometheus text exposition of the global metrics
  registry, after :meth:`~RetimingService.publish_metrics`;
* ``POST /v1/request`` — one protocol request
  (:func:`repro.server.protocol.parse_request`), answered with a JSON
  envelope; its seconds from request head to envelope go to the
  ``server.request.seconds`` histogram.

Status mapping keeps every failure structured — a client always gets a
JSON body with ``ok``/``error``/``error_type``, never a hung socket:

========================  ======  =================================
condition                 status  body
========================  ======  =================================
malformed JSON / request  400     ``ProtocolError`` envelope
unknown route             404     ``NotFound`` envelope
shed (queue full)         503     envelope with ``retry_after``
draining                  503     ``ServiceClosedError`` + ``retry_after``
injected/unknown fault    500     structured error envelope
========================  ======  =================================

The ``server.accept`` fault site fires between parsing and dispatch, so
an injected accept fault exercises exactly the 500 path above.  Reads
are bounded by ``read_timeout`` and body size by ``MAX_BODY``.
"""

from __future__ import annotations

import asyncio
import json
import time

from ..observability import OBS, count
from ..runner import resilience
from .protocol import ProtocolError, canonical_bytes, error_envelope, parse_request
from .service import OverloadedError, RetimingService, ServiceClosedError

__all__ = ["HttpFrontend", "MAX_BODY"]

#: Largest accepted request body, in bytes (covers any workload graph by
#: orders of magnitude; a guard against unbounded buffering, not a quota).
MAX_BODY = 4 * 1024 * 1024

#: ``server.request.seconds`` bucket upper bounds, 1 ms to 10 s.
REQUEST_SECONDS_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpFrontend:
    """One listening endpoint (TCP or unix socket) over one service."""

    def __init__(
        self,
        service: RetimingService,
        *,
        read_timeout: float = 30.0,
    ) -> None:
        self.service = service
        self.read_timeout = read_timeout
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------

    async def start_tcp(self, host: str, port: int) -> tuple[str, int]:
        """Listen on ``host:port``; returns the bound address (for port 0)."""
        await self.service.start()
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def start_unix(self, path: str) -> str:
        """Listen on a unix domain socket at ``path``."""
        await self.service.start()
        self._server = await asyncio.start_unix_server(self._handle, path)
        return path

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._respond(reader)
            await self._write(writer, status, body)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionError):
            # A dead or dawdling client: nothing useful to answer.
            count("server.http.aborted")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        """Parse one request off the wire and produce (status, body)."""
        method, path, headers = await self._read_head(reader)
        start = time.perf_counter()
        if path == "/healthz":
            if method != "GET":
                return 405, error_envelope("use GET", "MethodNotAllowed")
            snap = self.service.snapshot()
            return (503 if self.service.draining else 200), snap
        if path == "/metrics":
            if method != "GET":
                return 405, error_envelope("use GET", "MethodNotAllowed")
            # /metrics returns raw exposition text, flagged via a marker
            # key the writer understands.
            self.service.publish_metrics()
            from .. import observability

            return 200, {"__text__": observability.OBS.metrics.to_prometheus()}
        if path != "/v1/request":
            return 404, error_envelope(f"no route {path}", "NotFound")
        if method != "POST":
            return 405, error_envelope("use POST", "MethodNotAllowed")

        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            return 413, error_envelope(
                f"body of {length} bytes exceeds {MAX_BODY}", "PayloadTooLarge"
            )
        raw = await asyncio.wait_for(
            reader.readexactly(length), timeout=self.read_timeout
        )
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError as exc:
            return 400, error_envelope(f"invalid JSON: {exc}", "ProtocolError")

        try:
            req = parse_request(doc)
        except ProtocolError as exc:
            count("server.http.bad_requests")
            return 400, error_envelope(str(exc), "ProtocolError")

        try:
            resilience.fault_point("server.accept", f"{method} {path}")
            env = await self.service.submit(req)
            if OBS.enabled:
                OBS.metrics.histogram(
                    "server.request.seconds",
                    "seconds from request head to answer",
                    REQUEST_SECONDS_BOUNDS,
                ).observe(time.perf_counter() - start)
            return (200 if env.get("ok") else 500), env
        except OverloadedError as exc:
            return 503, error_envelope(
                str(exc),
                "OverloadedError",
                kind=req.kind,
                key=req.key,
                retry_after=exc.retry_after,
            )
        except ServiceClosedError as exc:
            return 503, error_envelope(
                str(exc),
                "ServiceClosedError",
                kind=req.kind,
                key=req.key,
                retry_after=getattr(exc, "retry_after", None),
            )
        except resilience.FaultInjected as exc:
            count("server.accept_faults")
            return 500, error_envelope(
                str(exc), "FaultInjected", kind=req.kind, key=req.key
            )

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str]]:
        """Request line + headers, normalized; raises on malformed input."""
        line = await asyncio.wait_for(
            reader.readline(), timeout=self.read_timeout
        )
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise asyncio.IncompleteReadError(line, None)
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.read_timeout
            )
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _write(
        self, writer: asyncio.StreamWriter, status: int, body: dict
    ) -> None:
        if "__text__" in body:
            payload = body["__text__"].encode()
            ctype = "text/plain; version=0.0.4"
        else:
            payload = canonical_bytes(body)
            ctype = "application/json"
        retry_after = body.get("retry_after")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after:g}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        count("server.http.responses")
