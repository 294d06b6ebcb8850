"""The one HTTP/1.1 transport: raw asyncio streams, one request per
connection (``Connection: close``).

Two endpoints run on it: :class:`~repro.server.http.HttpFrontend` (the
retiming service's routes) and :class:`WorkPlane` (the lease fabric's
``/v1/work/*`` routes).  :class:`HttpEndpoint` owns everything they
share:

* head parsing (request line and headers, each line bounded by
  ``read_timeout``);
* the body read (:meth:`HttpEndpoint.read_json`): a malformed or
  negative ``Content-Length`` is a 400, one above :data:`MAX_BODY` a
  413, and the body itself is bounded by ``read_timeout``;
* response writing (JSON or Prometheus text, ``Retry-After`` when the
  body carries ``retry_after``);
* the error mapping: an :class:`HttpError` becomes its status, any other
  exception a structured 500, and a dead or dawdling client (short read,
  timeout, reset) gets no answer.

A client always gets a structured body, never a dropped socket.  This
module loads neither the service nor its protocol, so the parent of a
``--workers remote`` run serves its work plane without them.
"""

from __future__ import annotations

import asyncio
import json

from ..observability import count

__all__ = ["HttpEndpoint", "HttpError", "MAX_BODY", "WorkPlane"]

#: Largest accepted request body, in bytes (covers any workload graph or
#: lease completion by orders of magnitude; a guard against unbounded
#: buffering, not a quota).
MAX_BODY = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request answered with ``status`` and a structured error body."""

    def __init__(self, status: int, message: str, error_type: str) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type


class HttpEndpoint:
    """One listening endpoint (TCP or unix socket).

    Subclasses implement :meth:`route`; they may override
    :meth:`error_body` (``{"error", "error_type"}`` by default) and
    :meth:`encode` for their body shapes, and set ``counted`` to count
    the ``server.http.*`` transport metrics.
    """

    #: Whether this endpoint counts ``server.http.responses``/``aborted``.
    counted = False

    def __init__(self, *, read_timeout: float = 30.0) -> None:
        self.read_timeout = read_timeout
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------

    async def start_tcp(self, host: str, port: int) -> tuple[str, int]:
        """Listen on ``host:port``; returns the bound address (for port 0)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def start_unix(self, path: str) -> str:
        """Listen on a unix domain socket at ``path``."""
        self._server = await asyncio.start_unix_server(self._handle, path)
        return path

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- what subclasses provide ---------------------------------------

    async def route(
        self, method: str, path: str, headers: dict[str, str],
        reader: asyncio.StreamReader,
    ) -> tuple[int, dict | str]:
        """Answer one request: ``(status, body)``, a ``str`` body being
        Prometheus text.  May raise :class:`HttpError`."""
        raise NotImplementedError

    def error_body(self, message: str, error_type: str) -> dict:
        return {"error": message, "error_type": error_type}

    def encode(self, body: dict) -> bytes:
        return json.dumps(body, separators=(",", ":")).encode()

    # -- the shared request path ---------------------------------------

    async def read_json(
        self, headers: dict[str, str], reader: asyncio.StreamReader
    ):
        """The request body decoded as JSON (``{}`` when empty)."""
        declared = headers.get("content-length") or "0"
        if not declared.isdecimal():
            raise HttpError(
                400, f"invalid Content-Length {declared!r}", "ProtocolError"
            )
        length = int(declared)
        if length > MAX_BODY:
            raise HttpError(
                413, f"body of {length} bytes exceeds {MAX_BODY}",
                "PayloadTooLarge",
            )
        raw = await asyncio.wait_for(
            reader.readexactly(length), timeout=self.read_timeout
        )
        try:
            return json.loads(raw) if raw else {}
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON: {exc}", "ProtocolError") from exc

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, headers = await self._read_head(reader)
                response = self._render(
                    *await self.route(method, path, headers, reader)
                )
            except HttpError as exc:
                response = self._render(
                    exc.status, self.error_body(str(exc), exc.error_type)
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionError):
                raise
            except Exception as exc:  # never a dropped socket
                response = self._render(
                    500, self.error_body(str(exc), type(exc).__name__)
                )
            writer.write(response)
            await writer.drain()
            if self.counted:
                count("server.http.responses")
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionError):
            # A dead or dawdling client: nothing useful to answer.
            if self.counted:
                count("server.http.aborted")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str]]:
        """Request line + headers, normalized; raises on malformed input."""
        line = await asyncio.wait_for(reader.readline(), timeout=self.read_timeout)
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

    def _render(self, status: int, body: dict | str) -> bytes:
        """The whole response: status line, headers and payload."""
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        if isinstance(body, str):
            payload = body.encode()
            head.append("Content-Type: text/plain; version=0.0.4")
        else:
            payload = self.encode(body)
            head.append("Content-Type: application/json")
            if body.get("retry_after") is not None:
                head.append(f"Retry-After: {body['retry_after']:g}")
        head += [f"Content-Length: {len(payload)}", "Connection: close"]
        return ("\r\n".join(head) + "\r\n\r\n").encode() + payload


class WorkPlane(HttpEndpoint):
    """The lease fabric's endpoint over one
    :class:`~repro.runner.remote.LeaseCoordinator`:

    * ``GET /healthz`` — ``{"ok": true, "leases_active": N}``;
    * ``POST /v1/work/lease``, ``/renew``, ``/complete`` — the
      coordinator's verb on the JSON body.  A malformed completion (the
      coordinator's :class:`ValueError`) is a 400 and changes nothing.
    """

    def __init__(self, coordinator) -> None:
        super().__init__()
        self.coordinator = coordinator

    async def route(self, method, path, headers, reader):
        c = self.coordinator
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "leases_active": c.leases_active}
        if method != "POST" or path not in (
            "/v1/work/lease", "/v1/work/renew", "/v1/work/complete",
        ):
            raise HttpError(404, f"no route {method} {path}", "NotFound")
        doc = await self.read_json(headers, reader)
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be an object", "ProtocolError")
        try:
            if path == "/v1/work/lease":
                return 200, c.lease(str(doc.get("worker", "?")))
            if path == "/v1/work/renew":
                return 200, c.renew(str(doc.get("token", "")))
            return 200, c.complete(
                str(doc.get("token", "")),
                doc.get("units"),
                doc.get("envelope"),
                worker=str(doc.get("worker", "?")),
                batch=doc.get("batch"),
            )
        except ValueError as exc:
            raise HttpError(400, str(exc), "ValueError") from exc
