"""Remote worker process: lease, heartbeat, execute, complete.

``python -m repro worker --connect HOST:PORT`` runs this loop against a
coordinator's work plane (a :class:`~repro.runner.remote.RemoteFabric`,
spawned by ``--workers remote`` sweeps or ``serve --distributed``):

1. **lease** a chunk (``POST /v1/work/lease``) — the grant carries the
   wire chunk, a lease token, the lease timeout, and per unit its
   ``idx``, lease **epoch** and prior dispatch count (for deterministic
   fault replay);
2. **renew** the lease by token from a daemon heartbeat thread every
   quarter of the timeout; a renewal that fails (network fault, expired
   lease) marks the worker a suspected zombie — it finishes the
   computation anyway, and the coordinator's epoch check decides;
3. **execute** through the exact
   :func:`~repro.runner.engine._pool_chunk` body a local pool runs —
   same cache I/O, retry policy, fresh-per-chunk fault plan, stage
   reuse and observability deltas, so distributed results are
   bit-identical;
4. **complete** (``POST /v1/work/complete``) once, with the lease token
   and each unit's ``(idx, epoch)``; a ``{"accepted": false}`` response
   means the lease expired and its units were requeued elsewhere — the
   worker logs and moves on.

Chaos hooks, fired for each unit of the chunk before any compute:
``worker.kill`` SIGKILLs the process (the dead-host case — the lease
expires and each of its units requeues as a chunk of one; a spawning
fabric sees the death and expires the lease at once), ``worker.stop``
SIGSTOPs it (the hung-host case — a spawning fabric sees the stop,
kills and replaces the worker and expires the lease at once), and
``worker.partition`` simulates a network partition: heartbeats stop, the
worker sleeps past its own lease expiry, then executes and submits — a
zombie completion that the coordinator must discard by stale epoch.
All three advance their occurrence counters past the unit's prior
dispatches, so a ``times: 1`` spec hits the first dispatch only and the
requeued execution survives.

All worker output goes to **stderr**; stdout stays silent so spawned
workers can never pollute the coordinating CLI's byte-identical output.
"""

from __future__ import annotations

import sys
import threading
import time

from ..runner import resilience
from ..runner.remote import chunk_from_wire
from ..runner.resilience import JobOutcome, failure_payload
from .client import ClientPolicy, RemoteUnavailableError, ResilientClient

__all__ = ["worker_main"]


def _log(worker_id: str, message: str) -> None:
    print(f"repro-worker[{worker_id}]: {message}", file=sys.stderr, flush=True)


class _Heartbeat(threading.Thread):
    """Renews one lease (all of its chunk's units) until stopped; goes
    silent on the first failure.

    A failed renewal (injected ``remote.lease_renew`` fault, transport
    loss, or an ``ok: false`` answer because the lease already expired)
    sets ``lost`` and stops beating — from the coordinator's view this
    worker is now dead, and its eventual completion must lose the epoch
    race.  It does *not* abort the computation: proving the zombie
    completion is discarded is the point.
    """

    def __init__(
        self,
        client: ResilientClient,
        token: str,
        labels: list[str],
        interval: float,
    ) -> None:
        super().__init__(name=f"lease-renew-{token}", daemon=True)
        self.client = client
        self.token = token
        self.labels = labels
        self.interval = interval
        self.lost = False
        # Not named _stop: Thread.join() calls an internal _stop() method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                for label in self.labels:
                    resilience.fault_point("remote.lease_renew", label)
                resp = self.client.call("/v1/work/renew", {"token": self.token})
            except (resilience.FaultInjected, RemoteUnavailableError):
                self.lost = True
                return
            if not resp.get("ok"):
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


def _failure_envelope(labels: list[str], exc: BaseException) -> dict:
    faults = [f"{type(exc).__name__}@worker"]
    results = [
        {"payload": failure_payload(exc, "failed"), "cached": False, "wall": 0.0,
         "outcome": JobOutcome(label, "failed", faults=faults,
                               error=str(exc)).as_dict()}
        for label in labels
    ]
    return {"results": results, "cache_stats": {}, "reuse_stats": {}}


def _execute_lease(client: ResilientClient, lease: dict, args) -> None:
    """Run one leased chunk end to end (may SIGKILL itself: chaos)."""
    from ..runner.engine import _pool_chunk

    doc = dict(lease["task"])
    labels = [unit["label"] for unit in doc["units"]]
    priors = [int(unit.get("prior_attempts", 0)) for unit in lease["units"]]
    what = labels[0] if len(labels) == 1 else f"{labels[0]} (+{len(labels) - 1})"
    lease_timeout = float(lease.get("lease_timeout", 30.0))
    if args.no_cache:
        doc["cache"] = None

    # Install the chunk's plan before any chaos hook — a worker reuses
    # one process across leases, and the fresh-per-lease instance (each
    # unit's occurrence counters advanced past its prior dispatches) is
    # what keeps fault sequences identical however work lands on the
    # fleet.  Every hook fires before any compute, so a kill or stop
    # loses the whole chunk's dispatch.
    plan_doc = doc.get("plan")
    if plan_doc is not None:
        resilience.activate(resilience.FaultPlan.from_dict(plan_doc))
    else:
        resilience.deactivate()
    for label, prior in zip(labels, priors):
        resilience.worker_kill_point(label, prior)  # may not return
        resilience.worker_stop_point(label, prior)  # may freeze for good
    partitioned = [
        resilience.worker_partition_point(label, prior)
        for label, prior in zip(labels, priors)
    ]

    heartbeat: _Heartbeat | None = None
    if any(partitioned):
        # The network is gone: no renewals ever happen, and the worker
        # lingers past its own lease's expiry before "reconnecting" —
        # guaranteeing the coordinator requeued the units first, so this
        # completion arrives as a stale-epoch zombie.
        _log(args.id, f"partitioned while holding {what} (injected)")
        time.sleep(lease_timeout * 1.5)
    else:
        heartbeat = _Heartbeat(
            client, lease["token"], labels,
            interval=max(0.05, lease_timeout / 4.0),
        )
        heartbeat.start()

    try:
        envelope = _pool_chunk(chunk_from_wire(doc))
    except BaseException as exc:  # defensive: report, never die silently
        envelope = _failure_envelope(labels, exc)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    if heartbeat is not None and heartbeat.lost:
        _log(args.id, f"lease renewal lost for {what}; submitting anyway")

    try:
        resp = client.call(
            "/v1/work/complete",
            {
                "token": lease["token"],
                "units": [
                    {"idx": u["idx"], "epoch": u["epoch"]} for u in lease["units"]
                ],
                "batch": lease.get("batch"),
                "worker": args.id,
                "envelope": envelope,
            },
        )
    except RemoteUnavailableError as exc:
        _log(args.id, f"could not deliver {what}: {exc}")
        return
    if not resp.get("accepted"):
        _log(
            args.id,
            f"completion of {what} discarded by coordinator "
            f"({resp.get('reason') or resp.get('error', 'unknown')})",
        )


def worker_main(args) -> int:
    """The ``python -m repro worker`` entry point.

    Exit codes: 0 — coordinator finished (or ``--max-units`` reached);
    3 — coordinator unreachable through the whole retry budget.
    """
    policy = ClientPolicy(
        max_attempts=args.retry_max,
        backoff=args.retry_backoff,
        timeout=args.request_timeout,
    )
    client = ResilientClient(args.connect, policy=policy, seed=hash(args.id) & 0xFFFF)
    units = 0
    while True:
        try:
            lease = client.call("/v1/work/lease", {"worker": args.id})
        except RemoteUnavailableError as exc:
            _log(args.id, f"coordinator unreachable: {exc}")
            return 3
        if lease.get("done"):
            _log(args.id, f"coordinator done; executed {units} unit(s)")
            return 0
        if "task" not in lease:
            wait = float(lease.get("wait", 0.05) or 0.05)
            time.sleep(min(max(wait, 0.01), args.poll_max))
            continue
        _execute_lease(client, lease, args)
        units += len(lease["units"])
        if args.max_units and units >= args.max_units:
            _log(args.id, f"--max-units reached; executed {units} unit(s)")
            return 0
