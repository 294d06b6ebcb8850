"""Shared helpers for the request-server battery.

Every test here is *deterministic*: concurrency is controlled through the
service's dispatcher gate (:meth:`RetimingService.hold` /
:meth:`~RetimingService.release`), assertions are counter-based
(``jobs_submitted``, ``deduped``, the accounting identity), and latency
budgets use the op-counter histogram — never wall clocks.

Tests drive their own event loops with ``asyncio.run`` (no async test
plugin is assumed), so helpers are plain coroutines.
"""

from __future__ import annotations

import asyncio
import json

from repro.runner.engine import ExperimentEngine
from repro.server import RetimingService
from repro.server.http import HttpFrontend


def make_service(cache_dir=None, **kwargs) -> RetimingService:
    """A service over a single-process engine (no cache by default)."""
    cache = None
    if cache_dir is not None:
        from repro.runner.cache import ResultCache

        cache = ResultCache(cache_dir)
    return RetimingService(ExperimentEngine(jobs=1, cache=cache), **kwargs)


def analyze_doc(workload: str = "iir", n: int = 5, verify: bool = False) -> dict:
    """A small, fast ``analyze`` request document."""
    return {
        "kind": "analyze",
        "params": {"workload": workload, "trip_count": n, "verify": verify},
    }


def transform_doc(
    workload: str = "iir",
    transform: str = "csr-pipelined",
    factor: int = 1,
    n: int = 5,
) -> dict:
    return {
        "kind": "transform",
        "params": {
            "workload": workload,
            "transform": transform,
            "factor": factor,
            "trip_count": n,
            "verify": True,
        },
    }


async def submit_all(service: RetimingService, docs: list[dict]) -> list:
    """Submit every doc concurrently; returns envelopes/exceptions in
    submission order.  The service is started and NOT drained."""
    from repro.server import parse_request

    await service.start()
    tasks = [
        asyncio.create_task(service.submit(parse_request(doc))) for doc in docs
    ]
    return await asyncio.gather(*tasks, return_exceptions=True)


async def http_request(
    host: str,
    port: int,
    method: str = "GET",
    path: str = "/healthz",
    body: bytes | None = None,
    unix: str | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """One raw HTTP round trip; returns (status, headers, body)."""
    if unix is not None:
        reader, writer = await asyncio.open_unix_connection(unix)
    else:
        reader, writer = await asyncio.open_connection(host, port)
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body is not None:
        head.append(f"Content-Length: {len(body)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + (body or b""))
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=30.0)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


async def http_json(
    host: str, port: int, doc: dict, unix: str | None = None
) -> tuple[int, dict[str, str], dict]:
    """POST one request document; returns (status, headers, decoded body)."""
    status, headers, payload = await http_request(
        host,
        port,
        "POST",
        "/v1/request",
        json.dumps(doc).encode(),
        unix=unix,
    )
    return status, headers, json.loads(payload)


async def serve_frontend(service: RetimingService) -> tuple[HttpFrontend, str, int]:
    """An HTTP front-end on an ephemeral local port."""
    frontend = HttpFrontend(service)
    host, port = await frontend.start_tcp("127.0.0.1", 0)
    return frontend, host, port
