"""The parallel cached experiment engine.

One object — :class:`ExperimentEngine` — owns the three concerns every
sweep shares:

* **fan-out**: cache misses are executed across a
  ``concurrent.futures.ProcessPoolExecutor`` (``jobs > 1``) or inline
  (``jobs == 1``); submission order is preserved in the results either
  way, so parallel runs are bit-identical to serial ones;
* **memoization**: every unit of work is a module-level function applied
  to JSON parameters, content-addressed through
  :class:`~repro.runner.cache.ResultCache` (see :func:`cache_key`);
* **metrics**: per-call wall time, cache hit/miss counters and VM
  instruction counts are accumulated in :class:`EngineStats` and rendered
  by :meth:`ExperimentEngine.stats_summary` (the ``--stats`` CLI flag).

In parallel mode the *workers* perform the cache lookups and stores,
which parallelizes the disk I/O and keeps payload bytes out of the
parent except once per result.  The process pool is sent graph-affine
*chunks* (:func:`_chunks`): maximal runs of consecutive units on the same
graph, split only while there are fewer chunks than workers.  A worker
runs a chunk in one go (:func:`_pool_chunk`), so one process builds a
graph's stages once and the submit/pickle round trip is paid per chunk.
The supervised pool and the remote executors run one unit per task
through :func:`_pool_worker`, the same body on a chunk of one.
Worker-process :class:`~repro.runner.cache.CacheStats` would otherwise
die with the worker, so every result travels in an envelope carrying the
worker's hit/miss deltas — and, when observability is on, its serialized
spans and metric deltas — which the parent merges; ``--stats`` therefore
reports fleet-wide numbers identical to a serial run's.

Stage reuse (:mod:`repro.runner.reuse`): a serial batch runs inside one
reuse scope, and a pool worker process keeps one for its
lifetime, so the cells of one graph share its parse, retimings, programs
and reference runs.  The scopes' hit/build/eviction counts travel home
in the envelope as ``reuse_stats`` and print as the ``--stats``
``reuse`` line.

Worker functions must be importable (module-level) and take a single JSON
dict — the pickling contract of ``multiprocessing``.  The engine never
caches in-band failures (``payload["ok"] is False``), so a crashed cell is
retried on the next run.

Resilience (:mod:`repro.runner.resilience`): every executed unit of work
goes through :func:`~repro.runner.resilience.run_attempts` — per-job retry
with capped exponential backoff, per-attempt deadlines, and deterministic
fault injection when a :class:`~repro.runner.resilience.FaultPlan` is
active.  A job whose retries are exhausted degrades into a structured
``FAILED`` payload instead of raising; :meth:`ExperimentEngine.failure_summary`
renders the post-run report and the ``jobs.retried`` / ``jobs.timed_out``
/ ``jobs.failed`` metrics surface through ``--stats``.

Crash consistency (:mod:`repro.runner.journal`): with a
:class:`~repro.runner.journal.RunJournal` attached, every unit's
submission and completion is an fsync'd write-ahead record, completed
units rehydrate on ``--resume`` instead of re-executing, and parallel
completions are journaled as they land.  A batch's submissions are one
group commit, durable before any unit is dispatched, and so is each
landed chunk's completions: a crash loses at most the in-flight chunks.  Supervised mode
(:mod:`repro.runner.supervisor`) swaps the ``ProcessPoolExecutor`` for a
self-healing pool whose dead or hung workers are detected by heartbeat,
respawned, and their jobs requeued under the same
:class:`~repro.runner.resilience.RetryPolicy`.  Both layers are
off-by-default ``is None`` guards — an unjournaled, unsupervised run
executes the exact code it always did.
"""

from __future__ import annotations

import copy
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from .. import observability
from ..observability import count, span
from . import resilience
from .cache import NullCache, ResultCache, cache_key
from .jobs import Job, JobResult, execute_job
from .resilience import FaultPlan, JobOutcome, RetryPolicy, run_attempts
from .reuse import ReuseStats, reuse, worker_scope

__all__ = ["EngineStats", "ExperimentEngine", "WorkUnit", "default_engine"]


def _pool_chunk(task: tuple) -> dict:
    """Process-pool entry point: cached execution of one chunk of units.

    ``task`` is ``(fn, cache_spec, obs_on, policy, plan, units)`` where
    ``units`` lists ``(params, key, label)`` and ``cache_spec`` is
    ``(root, shards)`` or ``None``.  The worker sets up its collectors,
    fault plan, retry policy and cache handle once, then owns the cache
    lookup/store and the retry loop of each unit, all inside this
    process's lifetime reuse scope.  It returns one envelope::

        {"results": [{"payload", "cached", "wall", "outcome"?}, ...],
         "cache_stats", "reuse_stats", "obs"?}

    ``results`` follow ``units``; ``outcome`` is an executed unit's
    serialized :class:`JobOutcome`.  ``cache_stats`` holds the chunk's
    hit/miss/put deltas (a fresh :class:`ResultCache` starts at zero, so
    its stats *are* the delta); ``reuse_stats`` the chunk's delta of the
    lifetime reuse scope (:func:`~repro.runner.reuse.worker_scope`);
    ``obs`` carries serialized spans and metric deltas when the parent
    had observability enabled.
    """
    fn, cache_spec, obs_on, policy_doc, plan_doc, units = task
    if obs_on:
        # A forked worker inherits the parent's collectors wholesale —
        # including the parent's still-open batch span and every metric
        # recorded before the fork.  Start from fresh collectors so the
        # exported state is exactly this chunk's delta.
        observability.OBS.reset()
        observability.enable()
    # Same inheritance hazard for the fault plan: a forked worker carries
    # the parent plan's occurrence counters.  Install a fresh instance
    # per chunk (counters are per-(site, label), and labels are unique,
    # so fresh-per-chunk equals one shared serial instance).
    if plan_doc is not None:
        resilience.activate(FaultPlan.from_dict(plan_doc))
    else:
        resilience.deactivate()
    policy = RetryPolicy.from_dict(policy_doc) if policy_doc else None
    if cache_spec is not None:
        cache_root, cache_shards = cache_spec
        cache: ResultCache | NullCache = ResultCache(cache_root, shards=cache_shards)
    else:
        cache = NullCache()
    scope = worker_scope()
    reuse_before = scope.stats.as_dict()
    results = []
    with span("pool.chunk", units=len(units)) as sp, reuse(scope):
        graph = units[0][0].get("graph")
        if obs_on and isinstance(graph, str):
            sp.set(graph=_node_count(graph))
        for params, key, label in units:
            payload = cache.get(key)
            if payload is not None:
                results.append({"payload": payload, "cached": True, "wall": 0.0})
                continue
            payload, outcome, wall = run_attempts(fn, params, label, policy)
            if payload.get("ok", True):
                cache.put_safe(key, payload)
            results.append(
                {
                    "payload": payload,
                    "cached": False,
                    "wall": wall,
                    "outcome": outcome.as_dict(),
                }
            )
    envelope = {
        "results": results,
        "cache_stats": cache.stats.as_dict(),
        "reuse_stats": scope.stats.minus(reuse_before),
    }
    if obs_on:
        envelope["obs"] = observability.export_state(reset=True)
    return envelope


def _pool_worker(task: tuple) -> dict:
    """One-unit entry point: :func:`_pool_chunk` on a chunk of one.

    ``task`` is ``(fn, params, key, cache_spec, obs_on, label, policy,
    plan)``, the shape the supervised pool, the remote fabric and
    ``repro worker`` ship.  Returns the unit's result merged with the
    chunk-level deltas::

        {"payload", "cached", "wall", "cache_stats", "reuse_stats",
         "outcome"?, "obs"?}
    """
    fn, params, key, cache_spec, obs_on, label, policy_doc, plan_doc = task
    envelope = _pool_chunk(
        (fn, cache_spec, obs_on, policy_doc, plan_doc, [(params, key, label)])
    )
    (unit,) = envelope.pop("results")
    unit.update(envelope)
    return unit


def _node_count(graph: str) -> int | None:
    """Node count of a serialized graph (a ``pool.chunk`` attribute)."""
    try:
        return len(json.loads(graph)["nodes"])
    except (ValueError, KeyError, TypeError):
        return None


def _chunks(params_list: list[dict], workers: int) -> list[range]:
    """Graph-affine chunks of ``params_list``, as index ranges in order.

    A chunk is a maximal run of consecutive units with the same
    ``params["graph"]`` (units without one form runs of their own), so
    one worker runs all of a graph's cells and builds its stages once.
    While there are fewer chunks than ``workers``, the largest is split
    in halves, so a one-graph batch keeps its parallelism.
    """
    chunks = []
    start = 0
    for i in range(1, len(params_list) + 1):
        if i == len(params_list) or (
            params_list[i].get("graph") != params_list[start].get("graph")
        ):
            chunks.append(range(start, i))
            start = i
    while len(chunks) < workers:
        k = max(range(len(chunks)), key=lambda j: len(chunks[j]))
        c = chunks[k]
        if len(c) < 2:
            break
        mid = c.start + len(c) // 2
        chunks[k : k + 1] = [range(c.start, mid), range(mid, c.stop)]
    return chunks


@dataclass
class EngineStats:
    """Aggregated metrics for one engine instance."""

    calls: int = 0  # units of work requested
    computed: int = 0  # executed (cache misses)
    errors: int = 0  # in-band failures (payload["ok"] is False)
    retried: int = 0  # extra attempts beyond each unit's first
    timed_out: int = 0  # units whose attempts exhausted on deadlines
    failed: int = 0  # units whose attempts exhausted on crashes
    resumed: int = 0  # units rehydrated from a run journal (--resume)
    respawned: int = 0  # supervised-pool workers replaced after death/hang
    wall_time: float = 0.0  # sum of per-call compute time
    vm_executed: int = 0  # VM compute instructions executed
    vm_disabled: int = 0  # guarded computes whose predicate was off
    job_times: list[tuple[str, float]] = field(default_factory=list)
    outcomes: list[JobOutcome] = field(default_factory=list)

    def record(self, label: str, payload: dict, wall: float, cached: bool) -> None:
        self.calls += 1
        if not cached:
            self.computed += 1
            self.wall_time += wall
            self.job_times.append((label, wall))
        if payload.get("ok") is False:
            self.errors += 1
        self.vm_executed += payload.get("executed", 0) or 0
        self.vm_disabled += payload.get("disabled", 0) or 0

    @property
    def completed(self) -> int:
        """Units that ran to completion (including in-band errors)."""
        return self.calls - self.failed - self.timed_out

    def failed_outcomes(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.status != "ok"]


@dataclass(frozen=True)
class WorkUnit:
    """One heterogeneous unit of work for :meth:`ExperimentEngine.run_units`.

    ``fn`` must be an importable module-level function (the pickling
    contract of the process pool), ``params`` a JSON dict fully
    determining the result, ``kind`` the cache-key namespace.  Units with
    the same ``(kind, fn)`` batch into one engine matrix dispatch; the
    request server uses this to coalesce small mixed-kind requests into
    few pool fan-outs.
    """

    kind: str
    fn: object
    params: dict
    label: str


class ExperimentEngine:
    """Parallel, cached executor for experiment workloads.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` (default) runs inline, ``0``/``None``
        means one per CPU.
    cache:
        A :class:`ResultCache`, a directory path for one, or ``None`` for
        no caching (:class:`NullCache`).
    retry:
        A :class:`RetryPolicy`; ``None`` uses the defaults (3 attempts,
        20 ms base backoff, no deadline).  Fault injection is governed
        separately by the process-global plan
        (:func:`repro.runner.resilience.activate`), which the engine
        forwards to its pool workers.
    supervised:
        Run parallel work through the
        :class:`~repro.runner.supervisor.SupervisedPool` — real worker
        processes with heartbeats, dead/hung-worker detection, respawn
        and requeue — instead of ``ProcessPoolExecutor``.
    heartbeat_timeout:
        Seconds of heartbeat silence before a busy supervised worker is
        declared hung (the ``--worker-heartbeat-timeout`` flag).
    remote:
        A distributed executor — a
        :class:`~repro.runner.remote.RemoteFabric` (lease units to
        worker processes over the work plane) or a
        :class:`~repro.server.client.RemoteOffloadExecutor` (ship units
        to a ``repro serve`` coordinator) — honoring the
        ``run(tasks, on_result)`` submission-order contract.  Mutually
        exclusive with ``supervised``.  Call :meth:`close` when done:
        the executor persists across batches.

    Checkpointing: assigning a
    :class:`~repro.runner.journal.RunJournal` to ``engine.journal``
    makes every unit's submission and completion durable; loading a
    journal scan via :meth:`load_resume_state` rehydrates completed
    units so only pending ones re-execute.  Both default to off and cost
    a single ``is None``/empty-dict check when unused.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | NullCache | Path | str | None = None,
        retry: RetryPolicy | None = None,
        supervised: bool = False,
        heartbeat_timeout: float = 30.0,
        remote=None,
    ) -> None:
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        if supervised and remote is not None:
            raise ValueError("supervised and remote execution are mutually exclusive")
        self.jobs = jobs
        if cache is None:
            self.cache: ResultCache | NullCache = NullCache()
        elif isinstance(cache, (ResultCache, NullCache)):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.retry = retry if retry is not None else RetryPolicy()
        self.supervised = supervised
        self.heartbeat_timeout = heartbeat_timeout
        self.remote = remote
        self.stats = EngineStats()
        self.reuse = ReuseStats()  # stage reuse, fleet-wide
        self.journal = None  # a RunJournal when checkpointing is on
        self.resume_state: dict[str, dict] = {}  # key -> job.done/failed data

    # -- checkpoint/resume ---------------------------------------------

    def load_resume_state(self, scan) -> int:
        """Load a :class:`~repro.runner.journal.JournalScan`'s completed
        units; returns how many will be served without re-execution."""
        completed = scan.completed()
        self.resume_state.update(completed)
        return len(completed)

    def _rehydrate(self, label: str, rec: dict) -> tuple[dict, bool, float, JobOutcome | None]:
        """Serve one unit from its journal record, bit-identically."""
        payload = copy.deepcopy(rec["payload"])
        outcome = None
        if rec.get("outcome") is not None:
            outcome = JobOutcome.from_dict(rec["outcome"])
            outcome.resumed = True
            self._absorb_outcome(outcome)
        self.stats.resumed += 1
        count("run.resumed_jobs")
        self.stats.record(label, payload, 0.0, cached=True)
        return payload, True, 0.0, outcome

    def _journal_envelope(
        self, key: str, label: str, payload: dict, cached: bool, outcome_doc: dict | None
    ) -> None:
        """Durably record one completed unit (crash-consistency point)."""
        status = (outcome_doc or {}).get("status", "ok")
        if status == "ok":
            self.journal.job_done(
                key, label, payload, cached=cached, outcome=outcome_doc
            )
        else:
            self.journal.job_failed(key, label, payload, outcome=outcome_doc)

    # -- generic memoized fan-out --------------------------------------

    def map_cached(
        self,
        kind: str,
        fn,
        params_list: list[dict],
        labels: list[str] | None = None,
    ) -> list[dict]:
        """Apply module-level ``fn`` to every params dict, cached + parallel.

        Returns payloads in input order.  Cache hits are served without
        touching the pool; misses fan out across it and are stored on
        success.  ``fn`` may report its own wall time via a
        ``"compute_time"`` payload key (popped before caching); otherwise
        the engine's measurement is used.
        """
        return [p for p, _, _, _ in self._map_detailed(kind, fn, params_list, labels)]

    def _map_detailed(
        self,
        kind: str,
        fn,
        params_list: list[dict],
        labels: list[str] | None = None,
    ) -> list[tuple[dict, bool, float, JobOutcome | None]]:
        """:meth:`map_cached` returning ``(payload, cached, wall, outcome)``.

        ``outcome`` is ``None`` for cache hits — only executed units have
        an attempt history.
        """
        labels = labels or [f"{kind}#{i}" for i in range(len(params_list))]
        keys = [cache_key(kind, p) for p in params_list]
        with span("engine.map", kind=kind, calls=len(params_list), chunks=0) as sp:
            slots: dict[int, tuple] = {}
            if self.resume_state:
                # Units with a journal completion record are rehydrated,
                # never re-executed — the checkpoint/resume contract.
                for i, (key, label) in enumerate(zip(keys, labels)):
                    rec = self.resume_state.get(key)
                    if rec is not None:
                        slots[i] = self._rehydrate(label, rec)
            pending = [i for i in range(len(keys)) if i not in slots]
            if self.journal is not None:
                # Write-ahead: a unit is journaled as submitted before it
                # can run, so a crash always classifies it correctly.
                # One group commit: all are durable before any dispatch.
                with self.journal.batch():
                    for i in pending:
                        self.journal.job_submitted(keys[i], labels[i])
            if pending:
                sub = (
                    [params_list[i] for i in pending],
                    [keys[i] for i in pending],
                    [labels[i] for i in pending],
                )
                pool_wanted = (
                    self.jobs > 1 or self.supervised or self.remote is not None
                )
                if pool_wanted and len(pending) > 1:
                    ran = self._map_parallel(sp, fn, *sub)
                else:
                    ran = self._map_serial(fn, *sub)
                for i, r in zip(pending, ran):
                    slots[i] = r
            out = [slots[i] for i in range(len(keys))]
            sp.set(computed=sum(1 for _, cached, _, _ in out if not cached))
        return out

    def _absorb_outcome(self, outcome: JobOutcome) -> None:
        """Fold one executed unit's attempt history into the run totals."""
        s = self.stats
        s.outcomes.append(outcome)
        if outcome.retried:
            s.retried += outcome.retried
            count("jobs.retried", outcome.retried)
        if outcome.status == "timed_out":
            s.timed_out += 1
            count("jobs.timed_out")
        elif outcome.status == "failed":
            s.failed += 1
            count("jobs.failed")

    def _map_serial(
        self, fn, params_list: list[dict], keys: list[str], labels: list[str]
    ) -> list[tuple[dict, bool, float, JobOutcome | None]]:
        """Inline execution: the parent owns cache lookups and stores.

        The batch runs in one fresh reuse scope, freed when it ends.
        """
        out: list[tuple[dict, bool, float, JobOutcome | None]] = []
        with reuse() as scope:
            for params, key, label in zip(params_list, keys, labels):
                payload = self.cache.get(key)
                if payload is not None:
                    if self.journal is not None:
                        # Journal cache hits too: resume must not depend on
                        # the cache still existing (or being unchanged).
                        self._journal_envelope(key, label, payload, True, None)
                    self.stats.record(label, payload, 0.0, cached=True)
                    out.append((payload, True, 0.0, None))
                    continue
                payload, outcome, wall = run_attempts(fn, params, label, self.retry)
                if payload.get("ok", True):
                    self.cache.put_safe(key, payload)
                if self.journal is not None:
                    self._journal_envelope(key, label, payload, False, outcome.as_dict())
                self._absorb_outcome(outcome)
                self.stats.record(label, payload, wall, cached=False)
                out.append((payload, False, wall, outcome))
        self.reuse.merge(scope.stats.as_dict())
        return out

    def _map_parallel(
        self, sp, fn, params_list: list[dict], keys: list[str], labels: list[str]
    ) -> list[tuple[dict, bool, float, JobOutcome | None]]:
        """Pool execution: workers own cache I/O and ship deltas home.

        The process pool runs graph-affine chunks (:func:`_chunks`); the
        supervised pool and the remote executor run one unit per task.
        """
        root = getattr(self.cache, "root", None)
        cache_spec = (
            (str(root), getattr(self.cache, "shards", 0))
            if root is not None
            else None
        )
        obs_on = observability.OBS.enabled
        plan = resilience.active_plan()
        plan_doc = plan.as_dict() if plan is not None else None
        policy_doc = self.retry.as_dict()
        workers = max(1, min(self.jobs, len(params_list)))

        def journal_result(i: int, envelope: dict) -> None:
            self._journal_envelope(
                keys[i],
                labels[i],
                envelope["payload"],
                envelope["cached"],
                envelope.get("outcome"),
            )

        on_result = journal_result if self.journal is not None else None
        if self.remote is not None or self.supervised:
            tasks = [
                (fn, params, key, cache_spec, obs_on, label, policy_doc, plan_doc)
                for params, key, label in zip(params_list, keys, labels)
            ]
            sp.set(chunks=len(tasks))
            if self.remote is not None:
                # Distributed execution: the fabric/offload executor honors
                # the same submission-order + per-completion-callback
                # contract; journal appends stay on this thread.
                self.remote.journal = self.journal
                envelopes = self.remote.run(tasks, on_result=on_result)
            else:
                from .supervisor import SupervisedPool

                spool = SupervisedPool(
                    workers,
                    policy=self.retry,
                    heartbeat_timeout=self.heartbeat_timeout,
                )
                envelopes = spool.run(tasks, on_result=on_result)
                if spool.respawned:
                    self.stats.respawned += spool.respawned
                    count("workers.respawned", spool.respawned)
            landed = envelopes  # each unit's envelope carries its deltas
        else:
            chunks = _chunks(params_list, workers)
            sp.set(chunks=len(chunks))
            landed = [None] * len(chunks)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(
                        _pool_chunk,
                        (
                            fn,
                            cache_spec,
                            obs_on,
                            policy_doc,
                            plan_doc,
                            [(params_list[i], keys[i], labels[i]) for i in chunk],
                        ),
                    ): c
                    for c, chunk in enumerate(chunks)
                }
                for fut in as_completed(futures):
                    c = futures[fut]
                    landed[c] = fut.result()
                    if on_result is not None:
                        # Each chunk's completions are journaled the moment
                        # it lands, as one group commit — a crash loses at
                        # most the in-flight chunks.
                        with self.journal.batch():
                            for i, unit in zip(chunks[c], landed[c]["results"]):
                                on_result(i, unit)
            envelopes = [unit for envelope in landed for unit in envelope["results"]]
        for envelope in landed:
            # Fleet-wide accounting: merge the workers' deltas.
            self.cache.stats.merge(envelope["cache_stats"])
            self.reuse.merge(envelope.get("reuse_stats", {}))
            observability.absorb_state(envelope.get("obs"))
        out: list[tuple[dict, bool, float, JobOutcome | None]] = []
        for label, envelope in zip(labels, envelopes):
            payload = envelope["payload"]
            cached = envelope["cached"]
            wall = envelope["wall"]
            outcome = None
            if envelope.get("outcome") is not None:
                outcome = JobOutcome.from_dict(envelope["outcome"])
                self._absorb_outcome(outcome)
            self.stats.record(label, payload, wall, cached=cached)
            out.append((payload, cached, wall, outcome))
        return out

    def call_cached(self, kind: str, fn, params: dict, label: str | None = None) -> dict:
        """Single-call convenience wrapper around :meth:`map_cached`."""
        return self.map_cached(kind, fn, [params], [label or kind])[0]

    # -- heterogeneous batching ----------------------------------------

    def run_units(
        self, units: list[WorkUnit]
    ) -> list[tuple[dict, bool, float, JobOutcome | None]]:
        """Execute a mixed batch of :class:`WorkUnit`\\ s, results in
        input order.

        The batching entry point for the request server: units are
        grouped by ``(kind, fn)`` and each group goes through one
        :meth:`map_cached` fan-out, so a drained queue of heterogeneous
        small requests costs one engine dispatch per distinct kind
        instead of one per request.  Caching, retries, journaling and
        fault injection apply exactly as in :meth:`map_cached`.
        """
        groups: dict[tuple[str, object], list[int]] = {}
        for i, unit in enumerate(units):
            groups.setdefault((unit.kind, unit.fn), []).append(i)
        results: list = [None] * len(units)
        for (kind, fn), indices in groups.items():
            detailed = self._map_detailed(
                kind,
                fn,
                [units[i].params for i in indices],
                [units[i].label for i in indices],
            )
            for i, d in zip(indices, detailed):
                results[i] = d
        return results

    # -- job matrix ----------------------------------------------------

    def run_jobs(self, jobs: list[Job]) -> list[JobResult]:
        """Execute a job matrix; results in submission order."""
        params = [j.to_params() for j in jobs]
        labels = [j.label for j in jobs]
        detailed = self._map_detailed("job", execute_job, params, labels)
        results = [
            JobResult(
                job=job,
                payload=payload,
                cached=cached,
                wall_time=wall,
                outcome=outcome,
            )
            for job, (payload, cached, wall, outcome) in zip(jobs, detailed)
        ]
        for res in results:
            # Oracle jobs carry their optimality gap on the outcome record
            # too, so --outcomes-out artifacts expose it per job.
            if (
                res.job.transform == "oracle"
                and res.outcome is not None
                and res.ok
            ):
                res.outcome.oracle_gap = res.payload.get("gap")
        return results

    # -- reporting -----------------------------------------------------

    def stats_summary(self) -> str:
        """Human-readable metrics block (the ``--stats`` flag)."""
        c = self.cache.stats
        s = self.stats
        lines = [
            f"engine      : jobs={self.jobs}, "
            f"cache={'off' if isinstance(self.cache, NullCache) else 'on'}",
            f"work units  : {s.calls} requested, {s.computed} computed, "
            f"{s.calls - s.computed} from cache, {s.errors} failed",
            f"cache       : {c.hits} hits / {c.misses} misses "
            f"({100.0 * c.hit_rate:.1f}% hit rate), "
            f"{c.puts} stored, {c.discarded} corrupt quarantined, "
            f"{c.write_failures} write failures",
            f"resilience  : {s.retried} jobs.retried, "
            f"{s.timed_out} jobs.timed_out, {s.failed} jobs.failed "
            f"(max {self.retry.max_attempts} attempts/job)",
            f"checkpoint  : {s.resumed} jobs resumed, "
            f"{s.respawned} workers respawned, "
            f"journal {'on' if self.journal is not None else 'off'}"
            + (
                f" ({self.journal.records_written} records)"
                if self.journal is not None
                else ""
            ),
            f"reuse       : {self.reuse.line()}",
            f"compute time: {s.wall_time:.3f}s total",
            f"vm          : {s.vm_executed} computes executed, "
            f"{s.vm_disabled} disabled",
        ]
        if self.remote is not None:
            lines.append(f"remote      : {self.remote.stats_line()}")
        if s.job_times:
            slowest = max(s.job_times, key=lambda kv: kv[1])
            lines.append(f"slowest     : {slowest[0]} ({slowest[1]:.3f}s)")
        return "\n".join(lines)

    def failure_summary(self) -> str | None:
        """Structured report of units that exhausted their retries.

        ``None`` when everything completed — callers print this (and exit
        non-zero) only on degraded runs.
        """
        failed = self.stats.failed_outcomes()
        if not failed:
            return None
        lines = [
            f"{len(failed)} unit(s) FAILED after retries "
            f"(of {self.stats.calls} requested):"
        ]
        for o in failed[:20]:
            faults = ", ".join(o.faults) or "none"
            lines.append(
                f"  [{o.status}] {o.label}: {o.error} "
                f"(attempts={o.attempts}, faults: {faults})"
            )
        if len(failed) > 20:
            lines.append(f"  ... and {len(failed) - 20} more")
        return "\n".join(lines)

    def publish_metrics(self) -> None:
        """Mirror engine and cache totals into the global metrics registry.

        Idempotent (gauges, not counters) — safe to call once per report.
        The live ``cache.*`` counters accrue separately inside the cache
        hooks; these gauges carry the derived, fleet-wide aggregates that
        the ``--metrics-out`` JSON export promises (notably the hit rate).
        """
        m = observability.OBS.metrics
        c = self.cache.stats
        s = self.stats
        m.gauge("cache.hit_rate", "percent of lookups served from cache").set(
            100.0 * c.hit_rate
        )
        m.gauge("cache.lookups", "fleet-wide cache lookups").set(c.lookups)
        m.gauge("engine.calls", "units of work requested").set(s.calls)
        m.gauge("engine.computed", "cache misses executed").set(s.computed)
        m.gauge("engine.errors", "in-band failures").set(s.errors)
        m.gauge("engine.wall_time_seconds", "total compute wall time").set(
            s.wall_time
        )
        m.gauge("jobs.retried", "extra attempts beyond each unit's first").set(
            s.retried
        )
        m.gauge("jobs.timed_out", "units exhausted on deadlines").set(s.timed_out)
        m.gauge("jobs.failed", "units exhausted on crashes").set(s.failed)
        m.gauge("run.resumed_jobs", "units rehydrated from the run journal").set(
            s.resumed
        )
        m.gauge("workers.respawned", "supervised workers replaced").set(
            s.respawned
        )
        if self.remote is not None:
            self.remote.publish_metrics()

    def close(self) -> None:
        """Release persistent executor resources (the remote fabric)."""
        if self.remote is not None:
            self.remote.close()


def default_engine(
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Path | str | None = None,
    retry: RetryPolicy | None = None,
    supervised: bool = False,
    heartbeat_timeout: float = 30.0,
    remote=None,
) -> ExperimentEngine:
    """Engine with the conventional CLI defaults (on-disk cache enabled)."""
    if not cache:
        return ExperimentEngine(
            jobs=jobs,
            cache=None,
            retry=retry,
            supervised=supervised,
            heartbeat_timeout=heartbeat_timeout,
            remote=remote,
        )
    return ExperimentEngine(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache_dir else ResultCache(),
        retry=retry,
        supervised=supervised,
        heartbeat_timeout=heartbeat_timeout,
        remote=remote,
    )
