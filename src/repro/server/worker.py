"""Remote worker process: lease, heartbeat, execute, complete.

``python -m repro worker --connect HOST:PORT`` runs this loop against a
coordinator's work plane (a :class:`~repro.runner.remote.RemoteFabric`,
spawned by ``--workers remote`` sweeps or ``serve --distributed``):

1. **lease** a unit (``POST /v1/work/lease``) — the grant carries the
   wire task, a lease token, the lease **epoch**, the lease timeout, and
   the unit's prior dispatch count (for deterministic fault replay);
2. **renew** the lease from a daemon heartbeat thread every quarter of
   the timeout; a renewal that fails (network fault, expired lease)
   marks the worker a suspected zombie — it finishes the computation
   anyway, and the coordinator's epoch check decides;
3. **execute** through the exact
   :func:`~repro.runner.engine._pool_worker` body a local pool runs —
   same cache I/O, retry policy, fresh-per-task fault plan and
   observability deltas, so distributed results are bit-identical;
4. **complete** (``POST /v1/work/complete``) with the lease token and
   epoch; a ``{"accepted": false}`` response means the lease expired and
   the unit was requeued elsewhere — the worker logs and moves on.

Chaos hooks: ``worker.kill`` SIGKILLs the process at unit start (the
dead-host case — the lease expires and the unit requeues; a spawning
fabric sees the death and expires the lease at once), ``worker.stop``
SIGSTOPs it there (the hung-host case — a spawning fabric sees the stop,
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
from ..runner.remote import task_from_wire
from ..runner.resilience import JobOutcome, failure_payload
from .client import ClientPolicy, RemoteUnavailableError, ResilientClient

__all__ = ["worker_main"]


def _log(worker_id: str, message: str) -> None:
    print(f"repro-worker[{worker_id}]: {message}", file=sys.stderr, flush=True)


class _Heartbeat(threading.Thread):
    """Renews one lease until stopped; goes silent on the first failure.

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
        epoch: int,
        label: str,
        interval: float,
    ) -> None:
        super().__init__(name=f"lease-renew-{token}", daemon=True)
        self.client = client
        self.token = token
        self.epoch = epoch
        self.label = label
        self.interval = interval
        self.lost = False
        # Not named _stop: Thread.join() calls an internal _stop() method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                resilience.fault_point("remote.lease_renew", self.label)
                resp = self.client.call(
                    "/v1/work/renew",
                    {"token": self.token, "epoch": self.epoch},
                )
            except (resilience.FaultInjected, RemoteUnavailableError):
                self.lost = True
                return
            if not resp.get("ok"):
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


def _failure_envelope(label: str, exc: BaseException) -> dict:
    return {
        "payload": failure_payload(exc, "failed"),
        "cached": False,
        "wall": 0.0,
        "outcome": JobOutcome(
            label,
            "failed",
            faults=[f"{type(exc).__name__}@worker"],
            error=str(exc),
        ).as_dict(),
        "cache_stats": {},
    }


def _execute_lease(client: ResilientClient, lease: dict, args) -> None:
    """Run one leased unit end to end (may SIGKILL itself: chaos)."""
    from ..runner.engine import _pool_worker

    doc = dict(lease["task"])
    label = doc["label"]
    token = lease["token"]
    epoch = lease["epoch"]
    idx = lease["idx"]
    lease_timeout = float(lease.get("lease_timeout", 30.0))
    prior = int(lease.get("prior_attempts", 0))
    if args.no_cache:
        doc["cache"] = None

    # Install the task's plan before any chaos hook — a worker reuses one
    # process across units, and the fresh-per-task instance (with the
    # occurrence counters advanced past prior dispatches) is what keeps
    # fault sequences identical however work lands on the fleet.
    plan_doc = doc.get("plan")
    if plan_doc is not None:
        resilience.activate(resilience.FaultPlan.from_dict(plan_doc))
    else:
        resilience.deactivate()
    resilience.worker_kill_point(label, prior)  # may not return
    resilience.worker_stop_point(label, prior)  # may freeze for good
    partitioned = False
    plan = resilience.active_plan()
    if plan is not None:
        for _ in range(prior):
            plan.fire("worker.partition", label)
        partitioned = plan.fire("worker.partition", label) is not None

    heartbeat: _Heartbeat | None = None
    if partitioned:
        # The network is gone: no renewals ever happen, and the worker
        # lingers past its own lease's expiry before "reconnecting" —
        # guaranteeing the coordinator requeued the unit first, so this
        # completion arrives as a stale-epoch zombie.
        _log(args.id, f"partitioned while holding {label} (injected)")
        time.sleep(lease_timeout * 1.5)
    else:
        heartbeat = _Heartbeat(
            client, token, epoch, label, interval=max(0.05, lease_timeout / 4.0)
        )
        heartbeat.start()

    try:
        envelope = _pool_worker(task_from_wire(doc))
    except BaseException as exc:  # defensive: report, never die silently
        envelope = _failure_envelope(label, exc)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    if heartbeat is not None and heartbeat.lost:
        _log(args.id, f"lease renewal lost for {label}; submitting anyway")

    try:
        resp = client.call(
            "/v1/work/complete",
            {
                "token": token,
                "epoch": epoch,
                "idx": idx,
                "batch": lease.get("batch"),
                "worker": args.id,
                "envelope": envelope,
            },
        )
    except RemoteUnavailableError as exc:
        _log(args.id, f"could not deliver {label}: {exc}")
        return
    if not resp.get("accepted"):
        _log(
            args.id,
            f"completion of {label} discarded by coordinator "
            f"({resp.get('reason', 'unknown')})",
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
        units += 1
        if args.max_units and units >= args.max_units:
            _log(args.id, f"--max-units reached; executed {units} unit(s)")
            return 0
