"""Retiming-as-a-service: the async request server.

The analysis/transformation pipeline as a long-running service
(``python -m repro serve``) — stdlib-only HTTP over TCP or a unix
socket, requests keyed by the same content addresses the experiment
engine caches under, single-flight deduplication of identical in-flight
work, batched dispatch into the engine and bounded-queue load shedding,
in memory that does not grow with the requests served.  See
``docs/SERVER.md``.

Layers:

* :mod:`repro.server.protocol` — request validation/normalization,
  content-address computation, response envelopes;
* :mod:`repro.server.work` — the ``analyze`` engine unit;
* :mod:`repro.server.service` — :class:`RetimingService`: single-flight,
  batching, shedding, accounting, drain;
* :mod:`repro.server.transport` — the raw asyncio HTTP/1.1 transport,
  shared with the lease fabric's work plane;
* :mod:`repro.server.http` — the service's routes on that transport;
* :mod:`repro.server.app` — process lifecycle (config, signals, drain).
"""

from .. import _lazy_exports

# Exports resolve on first access, so `repro.server.protocol` (say) can
# be used without starting asyncio or loading the HTTP client.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".app": ("ServerConfig", "serve_main"),
        ".client": (
            "ClientPolicy",
            "RemoteUnavailableError",
            "ResilientClient",
        ),
        ".http": ("HttpFrontend",),
        ".protocol": (
            "ProtocolError",
            "REQUEST_KINDS",
            "Request",
            "canonical_bytes",
            "error_envelope",
            "parse_request",
            "response_envelope",
        ),
        ".service": (
            "OverloadedError",
            "RetimingService",
            "ServerStats",
            "ServiceClosedError",
        ),
        ".worker": ("worker_main",),
    },
)

__all__ = [
    "ClientPolicy",
    "HttpFrontend",
    "OverloadedError",
    "RemoteUnavailableError",
    "ResilientClient",
    "ProtocolError",
    "REQUEST_KINDS",
    "Request",
    "RetimingService",
    "ServerConfig",
    "ServerStats",
    "ServiceClosedError",
    "canonical_bytes",
    "error_envelope",
    "parse_request",
    "response_envelope",
    "serve_main",
    "worker_main",
]
