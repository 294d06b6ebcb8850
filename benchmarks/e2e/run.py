#!/usr/bin/env python3
"""End-to-end benchmark of the real ``python -m repro`` entry points.

Run from anywhere; the repository root is found from this file::

    python3 benchmarks/e2e/run.py --workload sweep-serial --seed 3 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --out runs.jsonl    # every workload

One client in this process runs the CLI as subprocesses, one
fresh process per repetition, and checks its outputs: against committed
references the code under test does not produce at run time, and server
responses no reference lists against the program run in this process.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced pass that gives the per-layer
metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import http.client
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import layers
import loadgen
from replay import coverage, replay_cli, replay_requests
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPS = 7  # `--help` runs per CLI run, spread over its reps; their median is setup_s
SERVE_SPAWNS = 5  # server start-ups per serve run; the last one serves the traffic
VERIFY_GRAPHS = 5  # graphs of a reference window whose every unit result a sweep run checks
REFERENCE_WINDOWS = 4  # reference windows per sweep workload; the seed picks one
# Every sweep repetition runs GRAPHS random graphs of 1-MAX_NODES nodes
# whose node counts total within TOTAL_NODES (the mean is 35), so a seed
# changes *which* graphs run but not how much work they are.  Ten graphs
# rather than twenty give a run twice the repetitions to take a median of.
GRAPHS, MAX_NODES, FACTORS, TOTAL_NODES = 10, 6, (2, 3), (34, 36)
HARD_LIMIT_S = 165.0  # every run ends (or is cut short) well inside 180 s
# Every end-to-end timing is scaled to one host speed (see Pace): the
# reference is interpreter start-up plus `import numpy`, none of the
# program's code, and REFERENCE_S is what it takes at the speed reported.
REFERENCE_ARGV = ("-c", "import numpy")
REFERENCE_S = 0.15
CONNS = 2  # connections the load generator holds at most: one per CPU of a 2-CPU host
# Open-loop requests per second: under a third of capacity even when a
# shared host runs at half speed.  At 50 req/s a slow spell pushed the
# server past half its capacity, and queueing then doubled the median of
# some runs.
RATE = 25.0
# serve traffic runs in rounds of ROUND_S: OPEN_SHARE of it open loop,
# the rest closed loop, the reference timed after each part.
ROUND_S, OPEN_SHARE = 2.0, 0.6
WARMUP_REQUESTS = 20  # untimed, so lazy imports and JIT warm-up finish first
REFERENCE_DIGESTS = EXPECTED / "serve-seed0.json"
UNIT_DIGESTS = EXPECTED / "sweep-units.json"


@dataclass(frozen=True)
class Sweep:
    """One ``sweep`` workload: how it runs its window of graphs.

    No sweep uses the result cache.  Its 700 file writes per repetition
    made a cached sweep's run medians spread 16-26% across seeds on the
    shared disk, and still 11% with the disk flushed between repetitions,
    against 4% for the same sweep without it.  ``tables`` and ``serve``
    still write the cache.
    """

    flags: tuple[str, ...] = ()
    journal: bool = False
    graphs: int = GRAPHS

    def argv(self, start: int, rep_dir: Path) -> list[str]:
        argv = ["sweep", "--graphs", str(self.graphs), "--seed", str(start), "--stats", "--no-cache"]
        argv += ["--max-nodes", str(MAX_NODES), "--factors", *map(str, FACTORS)]
        argv += self.flags
        if self.journal:
            argv += ["--journal", str(rep_dir / "journal")]
        return argv

    def verify_argv(self, start: int, rep_dir: Path) -> list[str]:
        """The same command on the window's first :data:`VERIFY_GRAPHS`
        graphs, journaled, so every unit's result can be read back."""
        return replace(self, graphs=VERIFY_GRAPHS, journal=True).argv(start, rep_dir)


SWEEPS: dict[str, Sweep] = {
    "sweep-serial": Sweep(),
    "sweep-pool": Sweep(flags=("--jobs", "2"), journal=True),
}
SWEEP_EXPECTED = "sweep-10.txt"  # the summary every sweep repetition must print


def tables_argv(rep_dir: Path) -> list[str]:
    # The tables are named explicitly: a bare `tables` exits 2 on Python
    # 3.11, whose argparse rejects an empty nargs="*" list against choices.
    return ["tables", "1", "2", "3", "4", "--stats", "--cache-dir", str(rep_dir / "cache")]


# -- running the program ----------------------------------------------------


@dataclass
class Invocation:
    argv: list[str]
    wall: float
    returncode: int
    stdout: str
    stderr: str
    rss_mb: float
    scale: float = 1.0  # Pace.factor() for the span it ran in

    @property
    def scaled(self) -> float:
        return self.wall * self.scale

    @property
    def head(self) -> str:
        """What the command printed before its ``--stats`` block."""
        return self.stdout.split("=== Engine stats ===")[0]


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout``); its rusage.

    ``os.wait4`` reports the peak RSS of the process and of every child it
    reaped itself, so pool and worker processes are covered.
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def invoke(argv: list[str], ctx: "Context", flags: tuple[str, ...] = ()) -> Invocation:
    """One timed ``python -m repro`` process, from spawn to exit.

    Like every directory a run makes, its working directory is deleted
    only when the run ends (see :func:`run_workload`).
    """
    cwd = Path(tempfile.mkdtemp(dir=ctx.run_dir))
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *flags, "-m", "repro", *argv],
            stdout=out, stderr=err, env=ctx.env, cwd=cwd,
        )
        usage = reap(proc, ctx.time_left())
        wall = time.perf_counter() - start
    inv = Invocation(
        argv, wall, proc.returncode, out_path.read_text(), err_path.read_text(),
        usage.ru_maxrss / 1024,
    )
    return inv


@dataclass
class Context:
    """Everything one workload run shares."""

    seed: int
    seconds: float
    run_dir: Path
    env: dict
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def rep_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.run_dir))

    def time_left(self) -> float:
        """Seconds before the run must end (at least 1)."""
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))


def hermetic_env(run_dir: Path) -> dict:
    """The parent environment without ``REPRO_*`` overrides (fault plans,
    cache location, VM and numpy switches), importing ``repro`` from this
    checkout and keeping temporary files inside the run directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(run_dir)
    return env


def settle() -> None:
    """Flush the disk before timing starts and after a run's files go.

    A run deletes nothing while it times: its directories are removed
    together when it ends.  On a disk mounted with online discard,
    deleting a repetition's 700 cache files made the following
    repetitions up to half again slower, and writes left dirty by one run
    were flushed during the next.
    """
    os.sync()


class Pace:
    """The host's speed, from a reference process timed between the
    measured operations.

    The VM's shared host runs the same command up to 1.6 times slower from
    one second to the next, and for minutes at a time, so medians of raw
    wall times differ between runs of the same code by more than any bound
    could allow.  The reference (:data:`REFERENCE_ARGV`) slows with the
    host: its times correlate 0.65-0.8 with the workloads'.  A time
    multiplied by :meth:`factor` reads as on a host where the reference
    takes :data:`REFERENCE_S`.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.samples: list[float] = []
        self.last = self._time()

    def _time(self) -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *REFERENCE_ARGV], env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        reap(proc, 60.0)
        if proc.returncode != 0:
            raise RuntimeError(f"reference {REFERENCE_ARGV} exited {proc.returncode}")
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def factor(self) -> float:
        """For what ran since the last call: :data:`REFERENCE_S` over the
        mean of the reference times just before and just after it."""
        before, self.last = self.last, self._time()
        return REFERENCE_S / ((before + self.last) / 2)


def percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def repeat(ctx: Context, rep, seconds: float, probe=None) -> tuple[list, list]:
    """Run ``rep(i)`` until another would end more than half a repetition
    past ``seconds`` (or too near the run's hard limit).

    ``probe()``, if given, runs :data:`SETUP_REPS` times within the same
    span: once first, then each time another even share of ``seconds`` has
    passed, and whatever is left after the last repetition.  One slow
    spell of a shared machine then covers few of them.  Returns the
    repetitions and the probe results.
    """
    out, probes = [], []
    start = time.perf_counter()
    while True:
        if probe is not None:
            share = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
            while len(probes) < min(SETUP_REPS, 1 + int(share * (SETUP_REPS - 1))):
                probes.append(probe())
        out.append(rep(len(out)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in out)
        if elapsed + typical / 2 > seconds or ctx.time_left() < 3 * typical + 20:
            break
    if probe is not None:
        probes += [probe() for _ in range(SETUP_REPS - len(probes))]
    return out, probes


# -- CLI workloads ----------------------------------------------------------


def window_starts(name: str, seed: int):
    """Endless first-graph seeds for ``sweep --seed``, drawn from ``seed``:
    windows of :data:`GRAPHS` graphs totalling :data:`TOTAL_NODES` nodes."""
    from repro.runner.difftest import differential_jobs

    rng = random.Random(f"{name}:{seed}")
    lo, hi = TOTAL_NODES
    while True:
        start = rng.randrange(1, 1_000_000)
        nodes = sum(
            len(json.loads(
                differential_jobs(s, max_nodes=MAX_NODES, transforms=("original",))[0].graph_json
            )["nodes"])
            for s in range(start, start + GRAPHS)
        )
        if lo <= nodes <= hi:
            yield start


def reference_window(name: str, seed: int) -> dict:
    """The committed reference window a run of sweep ``name`` checks:
    ``start`` (its first graph seed), ``units`` and their ``sha256``."""
    windows = json.loads(UNIT_DIGESTS.read_text())[name]
    return windows[seed % len(windows)]


class CliWorkload:
    """``tables`` or one of :data:`SWEEPS`, run as fresh processes."""

    def __init__(self, name: str, ctx: Context) -> None:
        self.name = name
        self.ctx = ctx
        self.sweep = SWEEPS.get(name)
        self.subcmd = "sweep" if self.sweep else "tables"
        self.expected = (EXPECTED / (SWEEP_EXPECTED if self.sweep else "tables.txt")).read_text()
        self.starts = window_starts(name, ctx.seed) if self.sweep else None

    def argv(self, rep_dir: Path, start: int | None) -> list[str]:
        return self.sweep.argv(start, rep_dir) if self.sweep else tables_argv(rep_dir)

    def run(self, argv: list[str], flags: tuple[str, ...] = (), check_output: bool = True) -> Invocation:
        inv = invoke(argv, self.ctx, flags)
        ok = inv.returncode == 0 and (not check_output or inv.head == self.expected)
        self.ctx.check(ok, f"{' '.join(argv)}: exit {inv.returncode}, {inv.stderr[-300:]!r}")
        return inv

    def rep(self, start: int | None, extra: tuple[str, ...] = ()) -> Invocation:
        return self.run(self.argv(self.ctx.rep_dir(), start) + [*extra])

    def setup_probe(self) -> float:
        """Interpreter, imports and argument parsing, with no work."""
        return self.run([self.subcmd, "--help"], check_output=False).wall

    def next_start(self) -> int | None:
        return next(self.starts) if self.starts else None

    def verify(self) -> None:
        """Check every unit result of one reference window, untimed.

        The timed reps print only the sweep's summary, which is the
        program's own verdict.  So the workload's command also runs once
        on a committed reference window, journaled, and the digest of the
        unit results read back from the journal must match the committed
        one.
        """
        ref = reference_window(self.name, self.ctx.seed)
        rep_dir = self.ctx.rep_dir()
        self.run(self.sweep.verify_argv(ref["start"], rep_dir), check_output=False)
        try:
            results = journaled_results(rep_dir / "journal")
        except (OSError, ValueError, KeyError):
            results = {}
        self.ctx.check(
            units_digest(results) == ref["sha256"],
            f"{self.name} reference window {ref['start']}: {len(results)} of {ref['units']} unit results "
            "journaled, digest differs from the committed one",
        )

    def end_to_end(self) -> tuple[dict, dict]:
        # The check also warms the page cache for the timed reps.
        if self.sweep:
            self.verify()
        settle()
        pace = Pace(self.ctx.env)

        def rep(_) -> Invocation:
            inv = self.rep(self.next_start())
            inv.scale = pace.factor()
            return inv

        reps, setup = repeat(
            self.ctx, rep, self.ctx.seconds, probe=lambda: self.setup_probe() * pace.factor()
        )
        walls = [r.scaled for r in reps]
        units = [(layers.parse_stats(r.stdout) or {"units": 0})["units"] for r in reps]
        metrics = {
            "setup_s": statistics.median(setup),
            "latency_p50_ms": 1000 * statistics.median(walls),
            "units_per_s": statistics.median(u / w for u, w in zip(units, walls)),
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        }
        samples = {"setup_s": setup, "wall_s": walls, "raw_wall_s": [r.wall for r in reps], "reference_s": pace.samples}
        return metrics, {"samples": samples}

    def traced(self, recorder: SpanRecorder) -> tuple[dict, dict]:
        ctx = self.ctx
        phase_start = time.perf_counter()
        out = {}
        importtime = self.run([self.subcmd, "--help"], ("-X", "importtime"), check_output=False)
        out.update(layers.parse_importtime(importtime.stderr))

        start = self.next_start()
        rep_dir = ctx.rep_dir()
        traced = self.run(self.argv(rep_dir, start) + ["--trace", str(rep_dir / "trace.json")])
        stats = layers.parse_stats(traced.stdout) or dict.fromkeys(("units", "hits", "stored", "journal_records"), 0)
        out["engine.units"] = stats["units"]
        out["cache.hits"] = stats["hits"]
        out["cache.stored"] = stats["stored"]
        out["journal.records"] = stats["journal_records"]
        if self.sweep and "--jobs" in self.sweep.flags:
            out["pool.busy_frac"] = layers.pool_busy_frac(_load_json(rep_dir / "trace.json"), workers=2)

        text, replayed = replay_cli(self.argv(ctx.rep_dir(), start), recorder)
        ctx.check(text == self.expected, f"replay of {self.name}: unexpected output")
        out.update(replayed)

        # Tracing overhead: untraced and traced invocations of the same
        # input, alternating, for the rest of the run.
        remaining = ctx.seconds - (time.perf_counter() - phase_start)
        pairs, _ = repeat(ctx, lambda _: _Pair(self, start), max(remaining, 0.0))
        with_trace = [traced.wall] + [p.traced for p in pairs]
        out["trace.overhead_frac"] = statistics.median(with_trace) / statistics.median(p.plain for p in pairs) - 1
        return out, {"replay_coverage": coverage(recorder)}


class _Pair:
    """One untraced and one traced invocation of the same input."""

    def __init__(self, workload: CliWorkload, start: int | None) -> None:
        self.plain = workload.rep(start).wall
        trace_path = workload.ctx.rep_dir() / "t.json"
        self.traced = workload.rep(start, ("--trace", str(trace_path))).wall
        self.wall = self.plain + self.traced


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def journaled_results(journal_dir: Path) -> dict[str, dict]:
    """Label -> payload of every unit a run journal records as done."""
    results = {}
    for line in (journal_dir / "journal.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "job.done":
            results[record["data"]["label"]] = record["data"]["payload"]
    return results


def plain(payload: dict | None):
    """A unit's result as JSON data, without its timing."""
    if payload is None:
        return None
    return json.loads(loadgen.canonical({k: v for k, v in payload.items() if k != "compute_time"}))


def units_digest(results: dict[str, dict]) -> str:
    return hashlib.sha256(loadgen.canonical(sorted((k, plain(v)) for k, v in results.items()))).hexdigest()


# -- the serve workload -------------------------------------------------------


class Server:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.dir = ctx.rep_dir()
        self.stderr = open(self.dir / "stderr", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache-dir", str(self.dir / "cache")],
            stdout=subprocess.PIPE, stderr=self.stderr, env=ctx.env, cwd=self.dir,
        )
        killer = threading.Timer(60.0, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline().decode()
            found = re.search(r"http://([^:/]+):(\d+)", line)
            if found is None:
                raise RuntimeError(f"serve did not start: {line!r}")
            self.host, self.port = found[1], int(found[2])
            while self.healthz()[0] != 200:
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        finally:
            killer.cancel()
        self.ready_s = time.perf_counter() - start

    def healthz(self) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        except (OSError, ValueError):
            return 0, {}
        finally:
            conn.close()

    async def send(self, item: loadgen.Item) -> tuple[int, bytes]:
        return await loadgen.http_post(self.host, self.port, item.body)

    def stop(self) -> float:
        """Drain and stop the server; its peak RSS in MiB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        usage = reap(self.proc, min(30.0, self.ctx.time_left()))
        self.proc.stdout.close()
        self.stderr.close()
        return usage.ru_maxrss / 1024


def _digest(doc) -> str:
    return hashlib.sha256(loadgen.canonical(doc)).hexdigest()[:12]


class Reference:
    """Expected response payloads: the committed seed-0 digests, else the
    payload the program's own unit function returns in this process."""

    def __init__(self, known: dict | None = None) -> None:
        self.known = json.loads(REFERENCE_DIGESTS.read_text()) if known is None else known

    def __call__(self, doc: dict) -> str:
        key = _digest(doc)
        if key not in self.known:
            from repro.server.protocol import parse_request

            req = parse_request(doc)
            payload = req.fn(req.params)
            payload.pop("compute_time", None)
            self.known[key] = _digest(payload)
        return self.known[key]


def check_responses(ctx: Context, samples, reference: Reference) -> None:
    for s in samples:
        try:
            env = json.loads(s.body)
            ok = s.status == 200 and env.get("ok") and _digest(env["payload"]) == reference(s.item.doc)
        except (ValueError, KeyError, TypeError):
            ok = False
        ctx.check(bool(ok), f"{s.item.tag} request: status {s.status}, {s.body[:200]!r}")


def _stream(seed: int, label: str, count: int) -> list[loadgen.Item]:
    return list(islice(loadgen.request_stream(seed, label), count))


async def _warm_up(server: Server) -> list[loadgen.Sample]:
    # The same requests under every seed, so every run checks some
    # responses against committed digests.
    samples = []
    for item in _stream(0, "warmup", WARMUP_REQUESTS):
        start = time.perf_counter()
        status, body = await server.send(item)
        samples.append(loadgen.Sample(item, start, start, time.perf_counter(), status, body))
    return samples


async def _open(server: Server, items: list[loadgen.Item]) -> list[loadgen.Sample]:
    loop = asyncio.get_running_loop()
    schedule = loadgen.open_schedule(items, RATE)
    return await loadgen.open_loop(schedule, server.send, clock=loop.time, sleep=asyncio.sleep, max_conns=CONNS)


async def _closed(server: Server, items, seconds: float):
    loop = asyncio.get_running_loop()
    return await loadgen.closed_loop(items, server.send, clock=loop.time, duration=seconds, conns=CONNS)


def serve_end_to_end(ctx: Context) -> tuple[dict, dict]:
    settle()
    pace = Pace(ctx.env)
    setup = []
    for _ in range(SERVE_SPAWNS - 1):
        server = Server(ctx)
        setup.append(server.ready_s * pace.factor())
        server.stop()
    server = Server(ctx)
    setup.append(server.ready_s * pace.factor())

    async def session():
        # The traffic runs in rounds of ROUND_S: an open-loop segment, then
        # a closed-loop one, so both loops sample the whole run.  Once a
        # segment's requests have all returned, the reference is timed
        # (blocking the idle loop), and it scales that segment's numbers.
        warm = await _warm_up(server)
        rounds = max(1, round(ctx.seconds / ROUND_S))
        per_segment = round(OPEN_SHARE * ROUND_S * RATE)
        open_items = iter(_stream(ctx.seed, "open", rounds * per_segment))
        closed_items = loadgen.request_stream(ctx.seed, "closed")
        opened, latencies, closed, elapsed = [], [], [], []
        for _ in range(rounds):
            samples = await _open(server, list(islice(open_items, per_segment)))
            scale = pace.factor()
            opened += samples
            latencies += [s.latency * scale for s in samples]
            samples, seconds = await _closed(server, closed_items, (1 - OPEN_SHARE) * ROUND_S)
            elapsed.append(seconds * pace.factor())
            closed += samples
        return warm, opened, latencies, closed, elapsed

    try:
        warm, opened, latencies, closed, elapsed = asyncio.run(session())
    finally:
        rss = server.stop()
    ctx.attempted += len(setup)  # a spawn that fails raises instead
    reference = Reference()
    for samples in (warm, opened, closed):
        check_responses(ctx, samples, reference)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "units_per_s": sum(s.status == 200 for s in closed) / sum(elapsed),
        "peak_rss_mb": rss,
    }
    # The tail is reported, not gated: see README.md.
    tail = {
        "requests": len(latencies),
        "p90_ms": 1000 * percentile(latencies, 0.90),
        "p99_ms": 1000 * percentile(latencies, 0.99),
    }
    samples = {"setup_s": setup, "closed_s": elapsed, "reference_s": pace.samples}
    return metrics, {"samples": samples, "tail": tail}


def serve_traced(ctx: Context, recorder: SpanRecorder) -> tuple[dict, dict]:
    out = {}
    importtime = invoke(["serve", "--help"], ctx, ("-X", "importtime"))
    ctx.check(importtime.returncode == 0, "serve --help failed")
    out.update(layers.parse_importtime(importtime.stderr))
    share = ctx.seconds / 3

    server = Server(ctx)

    async def session():
        warm = await _warm_up(server)
        closed, _ = await _closed(server, loadgen.request_stream(ctx.seed, "closed"), share)
        for s in closed:
            recorder.add("request", int(s.start * 1e9), int(s.end * 1e9))
        opened = await _open(server, _stream(ctx.seed, "open", int(2 * share * RATE)))
        return warm, closed, opened

    try:
        warm, closed, opened = asyncio.run(session())
        _, health = server.healthz()
    finally:
        server.stop()
    reference = Reference()
    for samples in (warm, closed, opened):
        check_responses(ctx, samples, reference)

    stats, cache = health.get("stats", {}), health.get("engine", {}).get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out.update({
        "engine.units": health.get("engine", {}).get("calls", 0),
        "cache.hits": cache.get("hits", 0),
        "cache.stored": cache.get("puts", 0),
        "server.deduped": stats.get("deduped", 0),
        "server.jobs_submitted": stats.get("jobs_submitted", 0),
        "server.batches": stats.get("batches", 0),
        "server.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "loadgen.lag_p99_ms": 1000 * percentile([s.start - s.due for s in opened], 0.99),
    })
    # trace.overhead_frac stays 0: the server always traces, so there is
    # no untraced server to compare with.

    # The server's own share of a request: its closed-loop latency minus
    # what parsing and the unit's work take in this process.  Only a
    # request's first appearance is computed by the server.
    first = [s for s in closed if s.item.tag in ("analyze", "transform")]
    own, replayed = replay_requests([s.item.doc for s in first], recorder, ctx.rep_dir())
    out.update(replayed)
    out["server.overhead_ms"] = 1000 * statistics.median(s.latency - t for s, t in zip(first, own))
    return out, {"replay_coverage": coverage(recorder)}


# -- results ----------------------------------------------------------------


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{name}-"))
    ctx = Context(seed, seconds, run_dir, hermetic_env(run_dir))
    recorder = SpanRecorder(f"{name}:{seed}")
    try:
        if not trace:
            measured, extra = serve_end_to_end(ctx) if name == "serve" else CliWorkload(name, ctx).end_to_end()
            wanted = SPEC["end_to_end"]
        else:
            if name == "serve":
                measured, extra = serve_traced(ctx, recorder)
            else:
                measured, extra = CliWorkload(name, ctx).traced(recorder)
            wanted = SPEC["per_layer"]
            recorder.write_chrome_trace(WORK / "traces" / f"{name}-seed{seed}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        settle()
    if trace:
        # A layer the workload never reaches does no work: it reads 0.
        measured = {m["name"]: measured.get(m["name"], 0) for m in wanted}
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": name, "trace": int(trace), "seconds": seconds, "env": environment(seed), **extra}
    if ctx.notes:
        record["failures"] = ctx.notes
    return {
        **record,
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }


def _print_record(record: dict) -> None:
    print(f"# {record['workload']} (seed {record['env']['seed']}, trace {record['trace']}): "
          f"{record['attempted']} attempted, {record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"#   {name:30s} {m['value']:>14.6g} {m['unit']}")
    if "replay_coverage" in record:
        print(f"#   replay stage coverage {100 * record['replay_coverage']:.1f}%")
    if "tail" in record:
        tail = record["tail"]
        print(f"#   request latency p90 {tail['p90_ms']:.2f} ms, p99 {tail['p99_ms']:.2f} ms "
              f"over {tail['requests']} requests")
    for note in record.get("failures", []):
        print(f"#   failure: {note}")


def write_expected() -> None:
    """Rewrite the committed references from this checkout's program.

    Only for a deliberate change to what the program computes; the sweep
    summary does not depend on the seed, the reference windows are the
    first seed-0 windows of each sweep, and the serve digests cover the
    seed-0 request streams of the end-to-end pass.
    """
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="expected-"))
    ctx = Context(0, 0.0, run_dir, hermetic_env(run_dir))

    def must(inv: Invocation) -> Invocation:
        if inv.returncode != 0:
            raise RuntimeError(f"{' '.join(inv.argv)}: exit {inv.returncode}: {inv.stderr[-500:]}")
        return inv

    try:
        units = {}
        for name, sweep in SWEEPS.items():
            starts = list(islice(window_starts(name, 0), REFERENCE_WINDOWS))
            (EXPECTED / SWEEP_EXPECTED).write_text(must(invoke(sweep.argv(starts[0], ctx.rep_dir()), ctx)).head)
            units[name] = []
            for start in starts:
                rep_dir = ctx.rep_dir()
                must(invoke(sweep.verify_argv(start, rep_dir), ctx))
                results = journaled_results(rep_dir / "journal")
                units[name].append({"start": start, "units": len(results), "sha256": units_digest(results)})
        UNIT_DIGESTS.write_text(json.dumps(units, sort_keys=True, indent=1) + "\n")
        reference = Reference({})
        for label, count in (("warmup", WARMUP_REQUESTS), ("open", 600), ("closed", 1000)):
            for item in _stream(0, label, count):
                reference(item.doc)
        REFERENCE_DIGESTS.write_text(json.dumps(reference.known, sort_keys=True, indent=0) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass, which reports the per-layer metrics")
    parser.add_argument("--out", type=Path, help="append one JSON line per workload run")
    parser.add_argument("--write-expected", action="store_true", help=write_expected.__doc__.split("\n")[0])
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))

    if args.write_expected:
        write_expected()
        return 0
    records = []
    for name in [args.workload] if args.workload else names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        records.append(record)
        _print_record(record)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
    print(f"# env: {json.dumps(environment(args.seed))}")
    if len(records) == 1:
        final = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
