"""Process entry point: configuration, signal handling, graceful drain.

:func:`serve_main` is what ``python -m repro serve`` runs: build the
engine from a :class:`ServerConfig`, bind the
:class:`~repro.server.http.HttpFrontend` on TCP or a unix socket, then
park until SIGTERM/SIGINT.  Shutdown is a *drain*: the listener stops
accepting, queued work completes and is delivered, then the process
exits 0 — the contract the CLI shutdown test pins.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

from .. import observability
from ..runner import resilience
from ..runner.cache import ResultCache
from ..runner.engine import ExperimentEngine
from ..runner.resilience import FaultPlan
from .http import HttpFrontend
from .service import RetimingService

__all__ = ["ServerConfig", "serve_main"]


@dataclass
class ServerConfig:
    """Everything ``python -m repro serve`` can set."""

    host: str = "127.0.0.1"
    port: int = 8750
    socket: str | None = None  # unix socket path; overrides host/port
    workers: int = 1  # engine process-pool width
    max_inflight: int = 128
    batch_max: int = 16
    cache_dir: str | None = None  # None = default cache location
    no_cache: bool = False
    fault_plan: str | None = None  # inline JSON or file FaultPlan (testing)
    distributed: bool = False  # run engine units through a work plane
    remote_workers: int = 0  # worker processes spawned on the work plane
    lease_timeout: float = 30.0  # work-plane lease expiry

    def build_engine(self) -> ExperimentEngine:
        if self.no_cache:
            cache = None
        elif self.cache_dir is not None:
            cache = ResultCache(self.cache_dir)
        else:
            cache = ResultCache()
        remote = None
        if self.distributed:
            from ..runner.remote import RemoteFabric

            remote = RemoteFabric(
                workers=self.remote_workers,
                lease_timeout=self.lease_timeout,
            )
        return ExperimentEngine(jobs=self.workers, cache=cache, remote=remote)

    def build_service(self) -> RetimingService:
        return RetimingService(
            self.build_engine(),
            max_inflight=self.max_inflight,
            batch_max=self.batch_max,
        )


async def _serve(config: ServerConfig) -> int:
    service = config.build_service()
    frontend = HttpFrontend(service)
    if config.socket is not None:
        where = await frontend.start_unix(config.socket)
        print(f"serving on unix socket {where}", flush=True)
    else:
        host, port = await frontend.start_tcp(config.host, config.port)
        print(f"serving on http://{host}:{port}", flush=True)
    if service.engine.remote is not None:
        # Starting the work plane eagerly puts its address on stdout so
        # external `repro worker --connect` processes can find it.
        print(
            f"work plane on http://{service.engine.remote.address}", flush=True
        )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(sig, stop.set)
    await stop.wait()

    # Drain first, close the listener after: a connection racing the
    # drain gets a structured 503 + Retry-After, never a refused or hung
    # socket.  Queued work completes and is delivered before the
    # listener goes away.
    print("draining...", flush=True)
    await service.drain()
    await frontend.aclose()
    service.engine.close()
    s = service.stats
    print(
        f"drained: {s.submitted} submitted, {s.completed} completed, "
        f"{s.failed} failed, {s.shed} shed, {s.deduped} deduped",
        flush=True,
    )
    if config.socket is not None:
        Path(config.socket).unlink(missing_ok=True)
    return 0


def serve_main(config: ServerConfig) -> int:
    """Blocking entry point for the ``serve`` subcommand.

    Metrics only, for ``/metrics``: nothing reads a long-lived server's
    spans, and keeping them would grow it with every request.
    """
    observability.enable(trace=False)
    if config.fault_plan is not None:
        try:
            resilience.activate(FaultPlan.from_spec(config.fault_plan))
        except ValueError as exc:
            print(f"error: invalid fault plan: {exc}", file=sys.stderr)
            return 2
        print(f"fault plan active: {config.fault_plan}", file=sys.stderr)
    try:
        return asyncio.run(_serve(config))
    except KeyboardInterrupt:  # pragma: no cover - non-handler interrupt
        return 0
