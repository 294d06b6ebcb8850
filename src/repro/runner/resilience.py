"""Fault injection and recovery for the experiment engine.

The engine assumes a well-behaved world: workers that never crash, cache
entries that never rot, jobs that always terminate.  This module supplies
both halves of the resilience story:

* **injection** — a deterministic, seedable :class:`FaultPlan` that fires
  worker exceptions, timeouts and cache corruption at *named sites*
  (:data:`FAULT_SITES`), activated via ``$REPRO_FAULT_PLAN`` or the
  ``--fault-plan`` CLI flag.  When no plan is active every hook is a
  single ``is None`` check, mirroring the observability guard pattern —
  the hot paths stay hot;
* **recovery** — :func:`run_attempts`, the per-job retry loop with capped
  exponential backoff and an optional per-attempt deadline
  (:class:`RetryPolicy`).  Every executed unit of work yields a
  :class:`JobOutcome` (final status, attempts used, fault history) that
  the engine aggregates into ``--stats`` and the ``jobs.retried`` /
  ``jobs.timed_out`` / ``jobs.failed`` metrics.

A job whose retries are exhausted never raises out of the engine: it
degrades into a structured *failure payload* (``{"ok": False, "failed":
True, "status": ...}``) so a sweep or table renders a ``FAILED`` cell and
the run exits non-zero with a summary, instead of dying on a traceback.

Determinism is the load-bearing property.  A fault decision is a pure
function of ``(plan seed, site, label, occurrence number)``, and the
occurrence counters are keyed per ``(site, label)`` — a job's label is
unique within a run, so serial and pool execution see identical fault
sequences, and a recovered run's payloads are bit-identical to a
fault-free run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "JobOutcome",
    "JobTimeoutError",
    "RetryPolicy",
    "activate",
    "activated",
    "active_plan",
    "corrupt_point",
    "deactivate",
    "failure_payload",
    "fault_point",
    "journal_write_point",
    "run_attempts",
    "worker_kill_point",
]

#: Environment variable holding a plan: a JSON file path or inline JSON.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The named injection sites threaded through the engine and the cache.
#:
#: ``job.start``     — raises :class:`FaultInjected` before a job attempt
#:                     executes (a worker crash);
#: ``job.timeout``   — raises :class:`JobTimeoutError` for an attempt (a
#:                     hung job whose deadline expired);
#: ``cache.read``    — corrupts a cache entry's raw bytes before
#:                     validation, exercising checksum + quarantine;
#: ``cache.write``   — raises mid-store, after the temp file is written
#:                     but before the atomic rename (a crashed writer);
#: ``journal.write`` — tears a run-journal record mid-append (a torn
#:                     final line) and raises, simulating the parent
#:                     process dying inside a journal write;
#: ``worker.kill``   — SIGKILLs the executing worker process itself at
#:                     task start, exercising the lease fabric's
#:                     dead-worker detection/respawn/requeue path;
#: ``worker.stop``   — SIGSTOPs the executing worker at task start: a
#:                     hung worker whose heartbeat thread is frozen too,
#:                     exercising the fabric's hung-worker kill/respawn;
#: ``server.accept`` — raises while the request server is admitting a
#:                     request (a poisoned read / parse crash), which
#:                     must degrade to a structured error response;
#: ``server.respond``— raises while the server is delivering a computed
#:                     response, which must likewise produce a
#:                     structured error — never a hung connection;
#: ``remote.connect``  — raises before a resilient client opens a
#:                     connection to the coordinator (host unreachable,
#:                     refused connection), exercising retry/backoff;
#: ``remote.send``     — raises before a request body is written (the
#:                     connection died mid-dial), always safe to retry;
#: ``remote.recv``     — raises after the server processed the request
#:                     but before the client read the response — the
#:                     dangerous half of a network fault, survivable only
#:                     because requests are idempotent (single-flight
#:                     dedup, lease epochs) so the retry is a join;
#: ``remote.lease_renew`` — fails a worker's heartbeat lease renewal,
#:                     so the coordinator expires the lease and requeues
#:                     while the worker keeps computing (a zombie whose
#:                     late completion must be discarded by epoch);
#: ``worker.partition``— a remote worker drops off the network right
#:                     after leasing a unit: heartbeats stop, the lease
#:                     expires and requeues, and the partitioned worker's
#:                     eventual completion arrives with a stale epoch.
FAULT_SITES: tuple[str, ...] = (
    "job.start",
    "job.timeout",
    "cache.read",
    "cache.write",
    "journal.write",
    "worker.kill",
    "worker.stop",
    "server.accept",
    "server.respond",
    "remote.connect",
    "remote.send",
    "remote.recv",
    "remote.lease_renew",
    "worker.partition",
)


class FaultInjected(Exception):
    """An injected fault (worker crash / failed cache write)."""

    def __init__(self, site: str, label: str, occurrence: int) -> None:
        super().__init__(f"injected fault at {site} ({label}, occurrence {occurrence})")
        self.site = site
        self.label = label
        self.occurrence = occurrence


class JobTimeoutError(Exception):
    """A job attempt exceeded its deadline (real or injected)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule of a :class:`FaultPlan`.

    ``site`` names the injection point, ``match`` is an ``fnmatch``
    pattern on the unit-of-work label (a job label, or the cache key for
    cache sites).  The rule fires on the first ``times`` occurrences of a
    matching ``(site, label)`` pair — ``times=0`` means *every*
    occurrence (an unrecoverable fault) — gated by a ``prob`` coin that
    is a pure hash of ``(seed, site, label, occurrence)``, so decisions
    are reproducible across processes and retries.
    """

    site: str
    match: str = "*"
    times: int = 1
    prob: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; one of {FAULT_SITES}"
            )
        if self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "match": self.match,
            "times": self.times,
            "prob": self.prob,
        }


def _coin(seed: int, site: str, label: str, occurrence: int, prob: float) -> bool:
    """Deterministic Bernoulli draw; shared by every process in a run."""
    if prob >= 1.0:
        return True
    if prob <= 0.0:
        return False
    h = hashlib.sha256(f"{seed}|{site}|{label}|{occurrence}".encode()).digest()
    return int.from_bytes(h[:8], "big") / 2**64 < prob


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_fields(what: str, doc, types: dict) -> None:
    """Reject a non-object ``doc``, a key outside ``types`` and a value
    (a bool included) not of its key's type."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key, value in doc.items():
        if key not in types:
            raise ValueError(f"unknown {what} key {key!r}; one of {sorted(types)}")
        if isinstance(value, bool) or not isinstance(value, types[key]):
            raise ValueError(f"{what} {key!r} has an invalid value: {value!r}")


class FaultPlan:
    """A deterministic schedule of faults to inject into one run.

    JSON format (file or inline)::

        {"seed": 7,
         "faults": [{"site": "job.start", "match": "*", "times": 1},
                    {"site": "cache.read", "match": "*", "times": 1}]}

    Occurrence counters are instance state: a fresh plan (one per run in
    the parent, one per task in a pool worker) starts every ``(site,
    label)`` pair at occurrence 1.  Labels are unique per unit of work,
    so the counters — and therefore the fault sequence — are identical
    however the work is partitioned across processes.
    """

    def __init__(self, faults: list[FaultSpec], seed: int = 0) -> None:
        self.faults = list(faults)
        self.seed = seed
        self._counts: dict[tuple[str, str], int] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Parse a plan document; :class:`ValueError` for any malformed
        one, unknown keys included."""
        _check_fields("fault plan", doc, {"seed": int, "faults": list})
        faults = []
        for f in doc.get("faults", []):
            _check_fields("fault spec", f, {
                "site": str, "match": str, "times": int, "prob": (int, float)
            })
            if "site" not in f:
                raise ValueError(f"fault spec needs a site: {f!r}")
            faults.append(FaultSpec(**f))  # checks the site, times and prob
        return cls(faults, seed=doc.get("seed", 0))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"invalid fault-plan JSON: {exc}") from None
        return cls.from_dict(doc)

    @classmethod
    def from_file(cls, path: Path | str) -> "FaultPlan":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read fault plan {path}: {exc}") from None
        return cls.from_json(text)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Inline JSON (leading ``{`` or ``[``) or a path to a JSON file."""
        spec = spec.strip()
        if spec.startswith(("{", "[")):
            return cls.from_json(spec)
        return cls.from_file(spec)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        spec = os.environ.get(FAULT_PLAN_ENV)
        return cls.from_spec(spec) if spec else None

    def as_dict(self) -> dict:
        """Plain-JSON form; how a plan travels to pool workers."""
        return {"seed": self.seed, "faults": [f.as_dict() for f in self.faults]}

    # -- firing --------------------------------------------------------

    def fire(self, site: str, label: str) -> FaultSpec | None:
        """The spec injecting at this occurrence of ``(site, label)``, if any.

        Every call advances the occurrence counter, matched or not, so a
        spec's ``times`` budget counts *occurrences of the site*, e.g.
        retry attempts for ``job.start`` or reads for ``cache.read``.
        """
        key = (site, label)
        occurrence = self._counts.get(key, 0) + 1
        self._counts[key] = occurrence
        for spec in self.faults:
            if spec.site != site or not fnmatch(label, spec.match):
                continue
            if spec.times and occurrence > spec.times:
                continue
            if _coin(self.seed, site, label, occurrence, spec.prob):
                return spec
        return None

    def describe(self) -> str:
        rules = ", ".join(
            f"{f.site}[{f.match}]x{f.times or 'inf'}@p={f.prob:g}" for f in self.faults
        )
        return f"FaultPlan(seed={self.seed}, {rules or 'empty'})"


# ----------------------------------------------------------------------
# The process-global active plan (the zero-overhead guard).
# ----------------------------------------------------------------------

_PLAN: FaultPlan | None = None


def activate(plan: FaultPlan) -> None:
    """Install ``plan`` as this process's active fault plan."""
    global _PLAN
    _PLAN = plan


def deactivate() -> None:
    """Remove the active plan; every hook returns to a no-op."""
    global _PLAN
    _PLAN = None


def active_plan() -> FaultPlan | None:
    return _PLAN


@contextmanager
def activated(plan: FaultPlan):
    """Scope a plan to a ``with`` block (test convenience)."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def fault_point(site: str, label: str) -> None:
    """Raising injection hook for ``job.start`` / ``job.timeout`` /
    ``cache.write``.  One ``is None`` check when no plan is active."""
    if _PLAN is None:
        return
    spec = _PLAN.fire(site, label)
    if spec is None:
        return
    occurrence = _PLAN._counts[(site, label)]
    if site == "job.timeout":
        raise JobTimeoutError(
            f"injected timeout at {site} ({label}, occurrence {occurrence})"
        )
    raise FaultInjected(site, label, occurrence)


def journal_write_point(label: str) -> int | None:
    """Injection hook for ``journal.write``.

    Returns the firing occurrence number when the site fires (the
    journal then simulates a torn write: a truncated record followed by
    a :class:`FaultInjected` crash), else ``None``.  The decision —
    never the crash — happens here so :class:`~repro.runner.journal.RunJournal`
    controls exactly which bytes hit the disk first.
    """
    if _PLAN is None:
        return None
    if _PLAN.fire("journal.write", label) is None:
        return None
    return _PLAN._counts[("journal.write", label)]


def worker_kill_point(label: str, prior_attempts: int = 0) -> None:
    """Injection hook for ``worker.kill``: SIGKILL the calling process.

    Called by lease-fabric workers at task start.  ``prior_attempts``
    is how many times this task was dispatched before (a respawned
    worker re-executing a requeued task): the occurrence counter is
    advanced past those draws first, so a ``times: 1`` spec kills the
    first dispatch only and the requeued execution survives — the same
    fresh-plan-per-task determinism the engine relies on elsewhere.
    """
    if _fires_past("worker.kill", label, prior_attempts):
        os.kill(os.getpid(), signal.SIGKILL)


def worker_stop_point(label: str, prior_attempts: int = 0) -> None:
    """Injection hook for ``worker.stop``: SIGSTOP the calling process.

    The hang signature: every thread, the lease heartbeat included,
    freezes until someone else kills (or continues) the process.
    ``prior_attempts`` advances the occurrence counter exactly as in
    :func:`worker_kill_point`.
    """
    if _fires_past("worker.stop", label, prior_attempts):
        os.kill(os.getpid(), signal.SIGSTOP)


def worker_partition_point(label: str, prior_attempts: int = 0) -> bool:
    """Injection hook for ``worker.partition``: whether this dispatch of
    ``label`` loses the network.  The worker, not the hook, acts on it;
    ``prior_attempts`` advances the counter as in :func:`worker_kill_point`.
    """
    return _fires_past("worker.partition", label, prior_attempts)


def _fires_past(site: str, label: str, prior_attempts: int) -> bool:
    """Whether ``site`` fires for this dispatch of ``label``, after
    drawing (and discarding) one occurrence per prior dispatch."""
    if _PLAN is None:
        return False
    for _ in range(prior_attempts):
        _PLAN.fire(site, label)
    return _PLAN.fire(site, label) is not None


def corrupt_point(label: str, raw: str) -> str:
    """Corrupting injection hook for ``cache.read``.

    Returns ``raw`` unchanged when no plan is active or the site does not
    fire; otherwise a deterministic truncation that can never pass the
    envelope checksum, driving the quarantine path.
    """
    if _PLAN is None:
        return raw
    if _PLAN.fire("cache.read", label) is None:
        return raw
    return raw[: len(raw) // 2]


# ----------------------------------------------------------------------
# Recovery: retry policy, outcomes, the attempt loop.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline knobs for one engine.

    ``backoff * 2**(attempt-1)`` seconds, capped at ``backoff_cap``, is
    slept between attempts.  ``timeout`` (seconds, ``None`` = off) is a
    per-attempt deadline: an attempt that finishes late is discarded and
    retried, and exhaustion reports ``timed_out`` — the only way to bound
    a slow job without killing worker processes.  Injected ``job.timeout``
    faults trip the same path deterministically.
    """

    max_attempts: int = 3
    backoff: float = 0.02
    backoff_cap: float = 0.5
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after a failed ``attempt`` (1-based)."""
        return min(self.backoff * 2 ** (attempt - 1), self.backoff_cap)

    def as_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff": self.backoff,
            "backoff_cap": self.backoff_cap,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RetryPolicy":
        return cls(
            max_attempts=doc.get("max_attempts", 3),
            backoff=doc.get("backoff", 0.02),
            backoff_cap=doc.get("backoff_cap", 0.5),
            timeout=doc.get("timeout"),
        )


@dataclass
class JobOutcome:
    """Engine-level execution record for one unit of work.

    ``status`` describes the *execution*, not the result: a job that ran
    to completion and returned an in-band ``ok: False`` payload (a
    deterministic graph error) is still ``"ok"`` here — it executed and
    retrying it would reproduce the same answer.  ``"failed"`` and
    ``"timed_out"`` mean the attempts themselves crashed or overran.

    Provenance: ``resumed`` marks an outcome rehydrated from a run
    journal on ``--resume`` (the unit was *not* re-executed this run);
    ``respawned`` counts the leases this unit lost (its worker died,
    hung or was partitioned) before it completed.

    ``oracle_gap`` is set (by the engine, from the payload) only for
    ``"oracle"`` jobs that completed: the heuristic cycle period minus
    the oracle's certified lower bound — 0 means proven optimal.
    """

    label: str
    status: str  # "ok" | "failed" | "timed_out"
    attempts: int = 1
    faults: list[str] = field(default_factory=list)
    error: str | None = None
    resumed: bool = False
    respawned: int = 0
    oracle_gap: int | None = None

    @property
    def retried(self) -> int:
        """Extra attempts beyond the first."""
        return max(0, self.attempts - 1)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "faults": list(self.faults),
            "error": self.error,
            "resumed": self.resumed,
            "respawned": self.respawned,
            "oracle_gap": self.oracle_gap,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "JobOutcome":
        return cls(
            label=doc["label"],
            status=doc["status"],
            attempts=doc.get("attempts", 1),
            faults=list(doc.get("faults", [])),
            error=doc.get("error"),
            resumed=bool(doc.get("resumed", False)),
            respawned=int(doc.get("respawned", 0)),
            oracle_gap=doc.get("oracle_gap"),
        )


def failure_payload(exc: BaseException, status: str) -> dict:
    """The structured FAILED cell a retry-exhausted job degrades into.

    ``"failed": True`` distinguishes an engine-level failure (crash /
    timeout after retries) from an in-band ``ok: False`` graph error, so
    reports can render ``FAILED`` vs. ``error`` cells distinctly.
    """
    return {
        "ok": False,
        "failed": True,
        "status": status,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }


def run_attempts(
    fn,
    params: dict,
    label: str,
    policy: RetryPolicy | None = None,
) -> tuple[dict, JobOutcome, float]:
    """Execute one unit of work under the retry policy.

    Returns ``(payload, outcome, wall_time)``.  Never raises for job
    failures: crashes and timeouts are retried with capped exponential
    backoff, and exhaustion returns :func:`failure_payload` with a
    ``failed``/``timed_out`` outcome.  In-band failures (a payload with
    ``ok: False``) are *not* retried — they are deterministic results.
    ``compute_time`` self-reporting is honored as in the engine.
    """
    policy = policy if policy is not None else RetryPolicy()
    faults: list[str] = []
    last_error: BaseException | None = None
    status = "failed"
    for attempt in range(1, policy.max_attempts + 1):
        try:
            if _PLAN is not None:
                fault_point("job.start", label)
                fault_point("job.timeout", label)
            start = time.perf_counter()
            payload = fn(params)
            wall = time.perf_counter() - start
            if policy.timeout is not None and wall > policy.timeout:
                raise JobTimeoutError(
                    f"{label}: attempt {attempt} took {wall:.3f}s "
                    f"(deadline {policy.timeout:.3f}s)"
                )
            t = payload.pop("compute_time", None)
            outcome = JobOutcome(label, "ok", attempts=attempt, faults=faults)
            return payload, outcome, (t if t is not None else wall)
        except JobTimeoutError as exc:
            status, last_error = "timed_out", exc
            faults.append(f"timeout@{attempt}")
        except FaultInjected as exc:
            status, last_error = "failed", exc
            faults.append(f"{exc.site}@{attempt}")
        except Exception as exc:
            status, last_error = "failed", exc
            faults.append(f"{type(exc).__name__}@{attempt}")
        if attempt < policy.max_attempts:
            d = policy.delay(attempt)
            if d > 0:
                time.sleep(d)
    if last_error is None:
        last_error = RuntimeError("no attempts ran")
    outcome = JobOutcome(
        label,
        status,
        attempts=policy.max_attempts,
        faults=faults,
        error=str(last_error),
    )
    return failure_payload(last_error, status), outcome, 0.0
