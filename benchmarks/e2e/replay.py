"""In-process replay: each layer timed from outside the program.

The traced pass re-runs one invocation's work inside the benchmark process
through the program's public entry points (the CLI's ``main``, and
``parse_request`` and the engine for server requests).  For the length of
the replay the layer functions those entry points call are replaced, on
their modules, by wrappers that record a span around each call; the
originals are put back afterwards.  Nothing in the program is edited.

A process pool cannot be timed from inside its workers, so the replay runs
the engine's pool path on :class:`PicklingPool`: every task runs inline,
but the task and its result are pickled both ways as a process pool ships
them, which shows the IPC bytes and pickling cost.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import pickle
import statistics
from concurrent.futures import Future

#: Span name -> the ``(module, attribute)`` calls recorded under it.
#: ``unit`` is one engine unit of work (the compute the stages divide up);
#: ``engine`` is one engine dispatch.
STAGES: dict[str, list[tuple[str, str]]] = {
    "stage.parse": [
        ("repro.runner.jobs", "from_json"),
        ("repro.analysis.experiments", "from_json"),
        ("repro.server.work", "from_json"),
    ],
    "stage.wd": [
        ("repro.retiming.optimal", "wd_kernel"),
        ("repro.server.work", "wd_kernel"),
    ],
    "stage.transform": [
        ("repro.runner.jobs", "minimize_cycle_period"),
        ("repro.runner.jobs", "retime_unfold"),
        ("repro.runner.jobs", "unfold_retime"),
        ("repro.analysis.experiments", "minimize_cycle_period"),
        ("repro.analysis.experiments", "retime_unfold"),
        ("repro.analysis.experiments", "unfold_retime"),
        ("repro.analysis.experiments", "iteration_bound"),
        # Imported inside the Table 1 and Table 3 unit functions.
        ("repro.graph.period", "cycle_period"),
        ("repro.core.partial", "minimize_registers_for_unfold"),
        ("repro.server.work", "minimize_cycle_period"),
        ("repro.server.work", "cycle_period"),
        ("repro.server.work", "iteration_bound"),
    ],
    "stage.codegen": [
        ("repro.runner.jobs", name)
        for name in (
            "original_loop",
            "pipelined_loop",
            "unfolded_loop",
            "retimed_unfolded_loop",
            "unfold_retimed_loop",
            "csr_pipelined_loop",
            "csr_unfolded_loop",
            "csr_retimed_unfolded_loop",
            "csr_unfold_retimed_loop",
            "size_pipelined",
            "size_retime_unfold",
            "size_unfold_retime",
        )
    ]
    + [
        ("repro.analysis.experiments", name)
        for name in (
            "size_original",
            "size_pipelined",
            "size_csr_pipelined",
            "size_retime_unfold",
            "size_unfold_retime",
            "size_csr_retime_unfold",
        )
    ]
    + [
        ("repro.server.work", name)
        for name in ("csr_pipelined_loop", "size_pipelined", "size_csr_pipelined")
    ],
    "stage.vm": [
        ("repro.runner.jobs", "run_program"),
        ("repro.core.verify", "run_program"),
        ("repro.server.work", "run_program"),
    ],
    "stage.verify": [
        ("repro.runner.jobs", "assert_equivalent"),
        ("repro.server.work", "assert_equivalent"),
    ],
    "unit": [("repro.runner.engine", "run_attempts")],
    "engine": [
        ("repro.runner.engine", "ExperimentEngine.map_cached"),
        ("repro.runner.engine", "ExperimentEngine.run_jobs"),
        ("repro.runner.engine", "ExperimentEngine.run_units"),
    ],
    "cache.get": [("repro.runner.cache", "ResultCache.get")],
    "cache.put": [("repro.runner.cache", "ResultCache.put")],
    "journal.append": [("repro.runner.journal", "RunJournal.append")],
}

STAGE_NAMES = ("parse", "wd", "transform", "codegen", "vm", "verify")

#: Program counters the replay reports (named as the program names them).
COUNTERS = (
    "retiming.incremental.probes",
    "kernel.relax_edges",
    "vm.instructions.executed",
    "vm.trace.steps",
)


@contextlib.contextmanager
def instrumented(recorder):
    """Record every :data:`STAGES` call as a span while the block runs."""
    restore = []
    try:
        for name, targets in STAGES.items():
            for module, dotted in targets:
                owner = importlib.import_module(module)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                setattr(owner, attr, recorder.wrap(name, original))
                restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


class PicklingPool:
    """Stands in for ``ProcessPoolExecutor`` during a replay."""

    def __init__(self, recorder, tally: dict) -> None:
        self.recorder = recorder
        self.tally = tally

    def __enter__(self) -> "PicklingPool":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def _ship(self, obj, key: str):
        with self.recorder.span("ipc.pickle"):
            blob = pickle.dumps(obj)
            obj = pickle.loads(blob)
        self.tally[key] += len(blob)
        return obj

    def _run(self, fn, task):
        from repro.observability import OBS

        fn, task = self._ship((fn, task), "ipc.task_bytes")
        # A pool worker resets its own collectors before each task; here
        # the worker is this process, so keep the replay's collectors.
        collectors = OBS.tracer, OBS.metrics
        try:
            envelope = fn(task)
        finally:
            OBS.tracer, OBS.metrics = collectors
        # The spans and metrics in "obs" travel only because the replay
        # traces; an untraced run ships the envelope without them.
        self._ship({k: v for k, v in envelope.items() if k != "obs"}, "ipc.result_bytes")
        return envelope

    def map(self, fn, tasks):
        return [self._run(fn, task) for task in tasks]

    def submit(self, fn, task) -> Future:
        future: Future = Future()
        future.set_result(self._run(fn, task))
        return future


@contextlib.contextmanager
def _replaying(recorder, tally):
    """Stage wrappers, the pickling pool and the program's own counters."""
    from repro import observability
    from repro.runner import engine as engine_module

    pool_class = engine_module.ProcessPoolExecutor
    engine_module.ProcessPoolExecutor = lambda max_workers=None: PicklingPool(recorder, tally)
    observability.OBS.reset()
    observability.enable()
    try:
        with instrumented(recorder):
            yield observability.OBS
    finally:
        observability.disable()
        engine_module.ProcessPoolExecutor = pool_class


def replay_cli(argv: list[str], recorder) -> tuple[str, dict]:
    """Re-run one ``tables`` or ``sweep`` invocation in-process, through
    the program's own ``main``.

    Returns what the invocation prints before its ``--stats`` block (empty
    when it exits non-zero), and the per-layer metrics of the replay.
    """
    from repro.__main__ import main

    tally = {"ipc.task_bytes": 0, "ipc.result_bytes": 0}
    out = io.StringIO()
    with _replaying(recorder, tally) as obs, contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue().split("=== Engine stats ===")[0] if code == 0 else ""
    return text, layer_metrics(recorder, tally, obs.metrics.as_dict()["counters"])


def replay_requests(docs: list[dict], recorder, cache_dir) -> tuple[list[float], dict]:
    """Re-run server requests in-process, as the server's engine does.

    Returns, per request, the seconds spent in ``parse_request`` plus the
    unit's own work, and the per-layer metrics of the replay.
    """
    from repro.runner.cache import ResultCache
    from repro.runner.engine import ExperimentEngine, WorkUnit
    from repro.server.protocol import parse_request

    engine = ExperimentEngine(jobs=1, cache=ResultCache(cache_dir))
    tally = {"ipc.task_bytes": 0, "ipc.result_bytes": 0}
    own: list[float] = []
    with _replaying(recorder, tally) as obs:
        for doc in docs:
            with recorder.span("server.parse") as parse:
                req = parse_request(doc)
            mark = len(recorder.spans)
            engine.run_units([WorkUnit(req.engine_kind, req.fn, req.params, req.label)])
            # No unit span when an identical request already filled the cache.
            unit_ns = next((s.duration_ns for s in recorder.spans[mark:] if s.name == "unit"), 0)
            own.append((parse.duration_ns + unit_ns) / 1e9)
    return own, layer_metrics(recorder, tally, obs.metrics.as_dict()["counters"])


def _median_ms(spans) -> float:
    return statistics.median(s.duration_ns for s in spans) / 1e6 if spans else 0.0


def layer_metrics(recorder, tally: dict, counters: dict) -> dict:
    """Per-layer metrics of one replay (0 where the layer did no work)."""
    selfs = recorder.self_times()
    out = {f"stage.{s}_ms": selfs.get(f"stage.{s}", 0) / 1e6 for s in STAGE_NAMES}
    out["engine.self_s"] = selfs.get("engine", 0) / 1e9
    out["cache.get_ms"] = _median_ms(recorder.named("cache.get"))
    out["cache.put_ms"] = _median_ms(recorder.named("cache.put"))
    out["journal.append_ms"] = _median_ms(recorder.named("journal.append"))
    out["ipc.pickle_ms"] = sum(s.duration_ns for s in recorder.named("ipc.pickle")) / 1e6
    out.update(tally)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    return out


def coverage(recorder) -> float:
    """Share of the replayed units' time the stage spans account for."""
    selfs = recorder.self_times()
    units = sum(s.duration_ns for s in recorder.named("unit"))
    staged = sum(selfs.get(f"stage.{s}", 0) for s in STAGE_NAMES)
    return staged / units if units else 0.0
