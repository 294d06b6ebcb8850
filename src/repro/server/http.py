"""The retiming service's routes on the shared HTTP transport.

:class:`HttpFrontend` is one :class:`~repro.server.transport.HttpEndpoint`
(head parsing, the bounded body read, response writing and the error
mapping live there).  Three routes:

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

================================  ======  =================================
condition                         status  body
================================  ======  =================================
malformed JSON / request          400     ``ProtocolError`` envelope
malformed ``Content-Length``      400     ``ProtocolError`` envelope
body above ``MAX_BODY``           413     ``PayloadTooLarge`` envelope
unknown route                     404     ``NotFound`` envelope
shed (queue full)                 503     envelope with ``retry_after``
draining                          503     ``ServiceClosedError`` + ``retry_after``
injected/unknown fault            500     structured error envelope
================================  ======  =================================

The ``server.accept`` fault site fires between parsing and dispatch, so
an injected accept fault exercises exactly the 500 path above.  Only
this endpoint counts the ``server.http.*`` metrics.
"""

from __future__ import annotations

import time

from ..observability import OBS, count
from ..observability.metrics import SECONDS_BUCKETS
from ..runner import resilience
from .protocol import ProtocolError, canonical_bytes, error_envelope, parse_request
from .service import OverloadedError, RetimingService, ServiceClosedError
from .transport import MAX_BODY, HttpEndpoint, HttpError

__all__ = ["HttpFrontend", "MAX_BODY"]


class HttpFrontend(HttpEndpoint):
    """One listening endpoint (TCP or unix socket) over one service."""

    counted = True

    def __init__(
        self,
        service: RetimingService,
        *,
        read_timeout: float = 30.0,
    ) -> None:
        super().__init__(read_timeout=read_timeout)
        self.service = service

    async def start_tcp(self, host: str, port: int) -> tuple[str, int]:
        await self.service.start()
        return await super().start_tcp(host, port)

    async def start_unix(self, path: str) -> str:
        await self.service.start()
        return await super().start_unix(path)

    def error_body(self, message: str, error_type: str) -> dict:
        return error_envelope(message, error_type)

    def encode(self, body: dict) -> bytes:
        return canonical_bytes(body)

    async def route(self, method, path, headers, reader):
        start = time.perf_counter()
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET", "MethodNotAllowed")
            snap = self.service.snapshot()
            return (503 if self.service.draining else 200), snap
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET", "MethodNotAllowed")
            # A str body is written as Prometheus exposition text.
            self.service.publish_metrics()
            return 200, OBS.metrics.to_prometheus()
        if path != "/v1/request":
            raise HttpError(404, f"no route {path}", "NotFound")
        if method != "POST":
            raise HttpError(405, "use POST", "MethodNotAllowed")

        doc = await self.read_json(headers, reader)
        try:
            req = parse_request(doc)
        except ProtocolError as exc:
            count("server.http.bad_requests")
            raise HttpError(400, str(exc), "ProtocolError") from exc

        try:
            resilience.fault_point("server.accept", f"{method} {path}")
            env = await self.service.submit(req)
            if OBS.enabled:
                OBS.metrics.histogram(
                    "server.request.seconds",
                    "seconds from request head to answer",
                    SECONDS_BUCKETS,
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
