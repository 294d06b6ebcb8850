"""Per-layer metrics: what each one should move, and how it is read.

:data:`LAYERS` records, before anything is measured, which end-to-end
metric each per-layer metric should move, the workload where its layer
does the most work, and the workloads that bypass the layer.  On a
bypassing workload a change to that layer should show no change, and the
traced pass reports the metric as 0 there.

The readers below take the program's own exports: ``-X importtime``,
the ``--stats`` block, and the ``--trace`` file.
"""

from __future__ import annotations

import re

from spans import spans_from_chrome

CLI = ("tables", "sweep-serial", "sweep-pool")
WORKLOADS = CLI + ("serve",)

_COMPUTE = ("units_per_s", "sweep-serial", ())
# Sweeps run without the result cache; `serve` reads and writes it most.
_CACHE = ("latency_p50_ms", "serve", ("sweep-serial", "sweep-pool"))
_POOL = ("units_per_s", "sweep-pool", ("tables", "sweep-serial", "serve"))
_SERVER = ("latency_p50_ms", "serve", CLI)

#: per-layer metric -> (end-to-end metric it moves, workload where its
#: layer does the most work, workloads that bypass the layer).
LAYERS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "startup.import_ms": ("setup_s", "tables", ()),
    "startup.modules": ("setup_s", "tables", ()),
    "startup.numpy_loaded": ("setup_s", "tables", ()),
    "cache.get_ms": _CACHE,
    "cache.put_ms": _CACHE,
    "cache.hits": _CACHE,
    "cache.stored": _CACHE,
    "engine.units": ("units_per_s", "sweep-serial", ()),
    "engine.self_s": ("units_per_s", "sweep-pool", ()),
    "journal.records": _POOL,
    "journal.append_ms": _POOL,
    "ipc.task_bytes": _POOL,
    "ipc.result_bytes": _POOL,
    "ipc.pickle_ms": _POOL,
    "pool.busy_frac": _POOL,
    "stage.parse_ms": _COMPUTE,
    "stage.wd_ms": _COMPUTE,
    "stage.transform_ms": _COMPUTE,
    "stage.codegen_ms": _COMPUTE,
    "stage.vm_ms": _COMPUTE,
    "stage.verify_ms": _COMPUTE,
    "retiming.incremental.probes": _COMPUTE,
    "kernel.relax_edges": _COMPUTE,
    "vm.instructions.executed": _COMPUTE,
    "vm.trace.steps": _COMPUTE,
    "server.overhead_ms": _SERVER,
    "server.deduped": _SERVER,
    "server.jobs_submitted": _SERVER,
    "server.batches": _SERVER,
    "server.cache_hit_ratio": _SERVER,
    "loadgen.lag_p99_ms": _SERVER,
    # Tracing is off for every end-to-end number; this is what turning it
    # on adds to the traced pass's latency.  The server always traces, so
    # on `serve` there is nothing to switch and it reads 0.
    "trace.overhead_frac": ("latency_p50_ms", "sweep-serial", ("serve",)),
}


def parse_importtime(stderr: str) -> dict:
    """Start-up metrics from ``python -X importtime -m repro ...``.

    ``startup.import_ms`` sums the cumulative time of the top-level imports
    from the ``repro`` package on: the package, everything its CLI module
    imports, and their dependencies -- not the interpreter's own start-up.
    """
    modules = numpy = 0
    import_us = 0
    seen_repro = False
    for line in stderr.splitlines():
        parts = line.partition("import time:")[2].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, field = int(parts[1]), parts[2]
        name = field.strip()
        top_level = len(field) - len(field.lstrip()) == 1
        modules += 1
        numpy |= name == "numpy"
        if top_level and (name == "repro" or name.startswith("repro.")):
            seen_repro = True
        if top_level and seen_repro:
            import_us += cumulative
    return {
        "startup.import_ms": import_us / 1000,
        "startup.modules": modules,
        "startup.numpy_loaded": int(numpy),
    }


_UNITS = re.compile(r"work units\s*: (\d+) requested, (\d+) computed")
_CACHE = re.compile(r"cache\s*: (\d+) hits / (\d+) misses .*?, (\d+) stored")
_JOURNAL = re.compile(r"journal on \((\d+) records\)")


def parse_stats(stdout: str) -> dict | None:
    """The ``--stats`` block's counts, or ``None`` when it is missing."""
    units, cache = _UNITS.search(stdout), _CACHE.search(stdout)
    if units is None or cache is None:
        return None
    journal = _JOURNAL.search(stdout)
    return {
        "units": int(units[1]),
        "computed": int(units[2]),
        "hits": int(cache[1]),
        "stored": int(cache[3]),
        "journal_records": int(journal[1]) if journal else 0,
    }


def pool_busy_frac(trace: dict, workers: int) -> float:
    """The pool workers' summed ``job.execute`` time over ``workers``
    times the parent's ``engine.map`` time, from a ``--trace`` file."""
    spans = spans_from_chrome(trace.get("traceEvents", []))
    maps = [s for s in spans if s.name == "engine.map"]
    parents = {s.pid for s in maps}
    busy_ns = sum(s.duration_ns for s in spans if s.name == "job.execute" and s.pid not in parents)
    capacity_ns = workers * sum(s.duration_ns for s in maps)
    return busy_ns / capacity_ns if capacity_ns else 0.0
