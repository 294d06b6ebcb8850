"""Parallel cached experiment engine.

The sweep infrastructure behind the paper tables, the benchmark harness
and the randomized differential tests: a job matrix
(workload x transformation x unfolding factor x trip count) fanned across
a process pool, backed by a content-addressed on-disk result cache keyed
on the serialized DFG, the transformation parameters and a digest of the
library sources — so re-runs are incremental and a cache hit always means
"same code, same input".

See ``docs/RUNNER.md`` for the cache-key scheme and invalidation rules,
and ``docs/RESILIENCE.md`` for fault injection, retry/backoff semantics
and the FAILED-cell output contract.
"""

from .. import _lazy_exports

# Exports resolve on first access: building a CLI parser or importing
# the engine never loads the remote fabric.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".cache": (
            "CACHE_SCHEMA",
            "QUARANTINE_CAP",
            "QUARANTINE_DIR",
            "CacheStats",
            "NullCache",
            "ResultCache",
            "cache_key",
            "code_version",
            "default_cache_dir",
        ),
        ".difftest": (
            "DIFFTEST_TRANSFORMS",
            "SweepFailure",
            "SweepReport",
            "differential_jobs",
            "differential_sweep",
        ),
        ".engine": ("EngineStats", "ExperimentEngine", "default_engine"),
        ".jobs": ("TRANSFORMS", "Job", "JobResult", "execute_job", "jobs_for_matrix"),
        ".journal": (
            "JOURNAL_NAME",
            "JournalError",
            "JournalScan",
            "RunCheckpoint",
            "RunJournal",
            "scan_journal",
        ),
        ".remote": ("LeaseCoordinator", "RemoteFabric"),
        ".resilience": (
            "FAULT_PLAN_ENV",
            "FAULT_SITES",
            "FaultInjected",
            "FaultPlan",
            "FaultSpec",
            "JobOutcome",
            "JobTimeoutError",
            "RetryPolicy",
            "run_attempts",
        ),
    },
)

__all__ = [
    "CACHE_SCHEMA",
    "QUARANTINE_CAP",
    "QUARANTINE_DIR",
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "JobOutcome",
    "JobTimeoutError",
    "RetryPolicy",
    "run_attempts",
    "JOURNAL_NAME",
    "JournalError",
    "JournalScan",
    "RunCheckpoint",
    "RunJournal",
    "LeaseCoordinator",
    "RemoteFabric",
    "scan_journal",
    "CacheStats",
    "NullCache",
    "ResultCache",
    "cache_key",
    "code_version",
    "default_cache_dir",
    "DIFFTEST_TRANSFORMS",
    "SweepFailure",
    "SweepReport",
    "differential_jobs",
    "differential_sweep",
    "EngineStats",
    "ExperimentEngine",
    "default_engine",
    "TRANSFORMS",
    "Job",
    "JobResult",
    "execute_job",
    "jobs_for_matrix",
]
