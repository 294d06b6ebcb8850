"""Durable write-ahead run journal: crash-consistent sweeps and tables.

A journaled run appends one checksummed JSONL record per event to
``<run-dir>/journal.jsonl`` — ``run.start``, ``job.submitted``,
``job.leased``, ``job.lease_expired``, ``job.done``, ``job.failed``,
``run.end`` — each written as a single
``write()`` call, flushed and fsync'd before the run proceeds.  A
``kill -9`` (or power loss) at any instant therefore leaves a journal
whose every record but possibly the last is intact, and the recovery
scanner (:func:`scan_journal`) tolerates exactly that: a torn *final*
line is dropped; a corrupt line followed by valid ones is real damage
and raises :class:`JournalError`.

Group commit (:meth:`RunJournal.batch`): records appended inside a batch
share one flush and one fsync at the outermost exit, which is their
acknowledgment point.  Appends stay ordered single-line writes to one
file, so a process death anywhere in a batch still leaves a prefix of
records plus at most one torn line.

Resume (``--resume <run-dir>``) replays the journal: units with a
``job.done``/``job.failed`` record are *rehydrated* — their payloads come
straight from the journal (the :class:`~repro.runner.cache.ResultCache`
serves any remaining hits as usual) and are never re-executed — while
pending/in-flight units run normally.  Payload bytes are recorded
verbatim, so a resumed run's output is bit-identical to an uninterrupted
one.

Records are content-checksummed (SHA-256 over the canonical JSON of
``{seq, type, data}``) and sequence-numbered, so truncation, torn
writes, reordering and mid-file corruption are all detectable.  The
``journal.write`` fault site (:mod:`repro.runner.resilience`) simulates
the parent dying inside an append — a truncated record hits the disk and
the append raises — which is how the chaos tests drive the torn-line
recovery path deterministically.

The journal is **off by default**: an engine with ``journal is None``
pays nothing (the same is-``None`` guard pattern as the fault plan and
the observability layer).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..observability import count
from .resilience import FaultInjected, journal_write_point

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "RECORD_TYPES",
    "JournalError",
    "JournalScan",
    "MultiRunScan",
    "RunCheckpoint",
    "RunDirScan",
    "RunJournal",
    "SkippedInput",
    "scan_journal",
    "scan_run_dirs",
]

#: Journal file name inside a run directory.
JOURNAL_NAME = "journal.jsonl"

#: Bump on any record-layout change; the scanner rejects unknown versions.
JOURNAL_VERSION = 1

#: The record types a journal may contain, in lifecycle order.
#: ``job.leased``/``job.lease_expired`` are distributed-fabric provenance
#: (which worker held a unit, and when a lease died and the unit was
#: requeued); they never affect resume — completion is still decided
#: solely by ``job.done``/``job.failed``.
RECORD_TYPES: tuple[str, ...] = (
    "run.start",
    "job.submitted",
    "job.leased",
    "job.lease_expired",
    "job.done",
    "job.failed",
    "run.end",
)


class JournalError(Exception):
    """A journal that cannot be trusted: corruption before the final line,
    an unknown version, or a resume against the wrong command."""


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(seq: int, rtype: str, data: dict) -> str:
    body = _canonical({"seq": seq, "type": rtype, "data": data})
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _encode_record(seq: int, rtype: str, data: dict) -> str:
    """The canonical record line, with ``data`` serialized once.

    Byte-identical to ``_canonical`` of the whole record with its
    ``_checksum``: sorted keys put ``"data"`` first in both the checksum
    body and the record, and the rest are scalars.
    """
    d, s, t = _canonical(data), json.dumps(seq), json.dumps(rtype)
    body = f'{{"data":{d},"seq":{s},"type":{t}}}'
    sha = hashlib.sha256(body.encode()).hexdigest()[:16]
    return f'{{"data":{d},"seq":{s},"sha":"{sha}","type":{t},"v":{JOURNAL_VERSION}}}'


def _decode_record(line: str) -> dict:
    """Parse and verify one journal line; raises ``ValueError`` if torn."""
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("journal record is not an object")
    if doc.get("v") != JOURNAL_VERSION:
        raise JournalError(f"unsupported journal version {doc.get('v')!r}")
    seq, rtype, data = doc.get("seq"), doc.get("type"), doc.get("data")
    if not isinstance(seq, int) or rtype not in RECORD_TYPES:
        raise ValueError(f"malformed journal record (seq={seq!r}, type={rtype!r})")
    if not isinstance(data, dict):
        raise ValueError("malformed journal record data")
    if doc.get("sha") != _checksum(seq, rtype, data):
        raise ValueError(f"journal record {seq} checksum mismatch")
    return doc


class RunJournal:
    """Append-only, fsync'd, checksummed event log for one run directory.

    Opening is lazy: the file is created (and any existing journal
    scanned for its last sequence number) on the first append, so
    constructing a journal never touches the disk.
    """

    def __init__(self, run_dir: Path | str, fsync: bool = True) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / JOURNAL_NAME
        self.fsync = fsync
        self.records_written = 0
        self._fh = None
        self._seq = 0
        self._depth = 0  # open batch() levels
        self._unsynced = False  # a batch appended since its last commit

    # -- writing -------------------------------------------------------

    def _open(self) -> None:
        if self._fh is not None:
            return
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            # Resume continues the sequence where the scan left off.  A
            # torn final line must be truncated away first: appending
            # after the partial record would fuse it with the next one
            # into mid-file corruption no future scan could tolerate.
            scan = scan_journal(self.path)
            self._seq = scan.last_seq
            if scan.torn:
                self._truncate_torn_tail(len(scan.records))
        self._fh = open(self.path, "a")

    def _truncate_torn_tail(self, keep_records: int) -> None:
        """Cut the file back to the end of its last valid record."""
        data = self.path.read_bytes()
        offset = kept = 0
        for line in data.splitlines(keepends=True):
            if kept >= keep_records:
                break
            offset += len(line)
            if line.strip():
                kept += 1
        with open(self.path, "rb+") as fh:
            fh.truncate(offset)

    def append(self, rtype: str, data: dict) -> int:
        """Durably append one record; returns its sequence number.

        The record is a single ``write()`` of one line, flushed and
        fsync'd before returning — after ``append`` returns, the record
        survives any crash.  Inside :meth:`batch` the flush and fsync
        wait for the batch's commit instead.  The ``journal.write``
        fault site fires here: a truncated prefix of the line is written
        (torn write) and :class:`FaultInjected` raised, simulating death
        mid-append.
        """
        if rtype not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {rtype!r}")
        self._open()
        self._seq += 1
        line = _encode_record(self._seq, rtype, data)
        occurrence = journal_write_point(rtype)
        if occurrence is not None:
            # Simulate the writer dying mid-append: half the record (no
            # newline) reaches stable storage, then the "crash".
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            raise FaultInjected("journal.write", rtype, occurrence)
        self._fh.write(line + "\n")
        if self._depth:
            self._unsynced = True
        else:
            self._commit()
        self.records_written += 1
        count("journal.records")
        return self._seq

    def _commit(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    @contextlib.contextmanager
    def batch(self):
        """Group commit: the block's appends share one flush and fsync.

        Re-entrant; only the outermost exit commits, also when an
        exception unwinds the block.  A record is durable once that
        exit returns — the batch's acknowledgment point.
        """
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            if not self._depth and self._unsynced and self._fh is not None:
                self._unsynced = False
                self._commit()

    # -- record helpers ------------------------------------------------

    def run_start(self, command: str, config: dict, resumed: bool = False) -> None:
        self.append(
            "run.start",
            {"command": command, "config": config, "resumed": resumed},
        )

    def job_submitted(self, key: str, label: str) -> None:
        self.append("job.submitted", {"key": key, "label": label})

    def job_leased(self, key: str, label: str, worker: str, epoch: int) -> None:
        """A distributed worker took a lease on this unit (``epoch`` is the
        lease generation — completions carrying an older epoch are zombie
        duplicates and were discarded by the coordinator)."""
        self.append(
            "job.leased",
            {"key": key, "label": label, "worker": worker, "epoch": epoch},
        )

    def job_lease_expired(
        self,
        key: str,
        label: str,
        worker: str,
        epoch: int,
        age: float,
        requeued: bool,
    ) -> None:
        """A lease died unrenewed (dead host, partition, hang) after ``age``
        seconds.  ``requeued`` reports whether the unit went back on the
        backlog or exhausted its dispatch budget and failed."""
        self.append(
            "job.lease_expired",
            {
                "key": key,
                "label": label,
                "worker": worker,
                "epoch": epoch,
                "age": round(age, 6),
                "requeued": requeued,
            },
        )

    def job_done(
        self,
        key: str,
        label: str,
        payload: dict,
        cached: bool = False,
        outcome: dict | None = None,
    ) -> None:
        self.append(
            "job.done",
            {
                "key": key,
                "label": label,
                "payload": payload,
                "cached": cached,
                "outcome": outcome,
            },
        )

    def job_failed(
        self, key: str, label: str, payload: dict, outcome: dict | None = None
    ) -> None:
        self.append(
            "job.failed",
            {"key": key, "label": label, "payload": payload, "outcome": outcome},
        )

    def run_end(self, status: str = "ok", stats: dict | None = None) -> None:
        self.append("run.end", {"status": status, "stats": stats or {}})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalScan:
    """Recovered state of one journal file.

    ``torn`` reports that the final line was incomplete (the crash
    signature) and was dropped; everything in ``records`` passed its
    checksum.
    """

    path: Path
    records: list[dict] = field(default_factory=list)
    torn: bool = False

    @property
    def last_seq(self) -> int:
        return self.records[-1]["seq"] if self.records else 0

    @property
    def finished(self) -> bool:
        """A ``run.end`` record exists — the run completed."""
        return any(r["type"] == "run.end" for r in self.records)

    def start_record(self) -> dict | None:
        """The first ``run.start`` data (command + config), if recorded."""
        for r in self.records:
            if r["type"] == "run.start":
                return r["data"]
        return None

    def completed(self) -> dict[str, dict]:
        """``key -> job.done/job.failed data`` for every finished unit.

        The latest record per key wins (keys are content addresses, so a
        duplicate means the identical unit — replays across resumes are
        harmless).
        """
        done: dict[str, dict] = {}
        for r in self.records:
            if r["type"] in ("job.done", "job.failed"):
                done[r["data"]["key"]] = r["data"]
        return done

    def submitted(self) -> dict[str, str]:
        """``key -> label`` of every unit that entered the run."""
        out: dict[str, str] = {}
        for r in self.records:
            if r["type"] == "job.submitted":
                out[r["data"]["key"]] = r["data"]["label"]
        return out

    def pending(self) -> dict[str, str]:
        """Submitted units with no completion record — the resume work."""
        done = self.completed()
        return {k: v for k, v in self.submitted().items() if k not in done}


def scan_journal(path: Path | str) -> JournalScan:
    """Read a journal, verifying every record; tolerates a torn final line.

    A line that fails to parse or checksum is the *crash signature* when
    it is the last non-empty line: it is dropped and ``torn`` is set.
    The same failure anywhere earlier means the file was damaged after
    the fact (bit rot, truncation in the middle) and raises
    :class:`JournalError` — resuming from an untrustworthy journal would
    silently corrupt results.
    """
    path = Path(path)
    try:
        raw = path.read_text(errors="replace")
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    lines = [ln for ln in raw.split("\n") if ln.strip()]
    scan = JournalScan(path=path)
    expected_seq = None
    for i, line in enumerate(lines):
        try:
            doc = _decode_record(line)
            if expected_seq is not None and doc["seq"] != expected_seq:
                raise ValueError(
                    f"journal sequence gap: expected {expected_seq}, "
                    f"got {doc['seq']}"
                )
        except JournalError:
            raise
        except ValueError as exc:
            if i == len(lines) - 1:
                scan.torn = True
                break
            raise JournalError(
                f"corrupt journal record at line {i + 1} of {path}: {exc}"
            ) from exc
        scan.records.append(doc)
        expected_seq = doc["seq"] + 1
    return scan


# ----------------------------------------------------------------------
# Read-only multi-run scanning (the report pipeline's loader).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunDirScan:
    """One successfully scanned journal inside a runs tree.

    ``name`` is the journal's path relative to the scan root it was found
    under — a machine-stable identifier that two scans of equal trees
    agree on regardless of where the trees live on disk.
    """

    path: Path
    name: str
    scan: JournalScan

    @property
    def command(self) -> str | None:
        start = self.scan.start_record()
        return start["command"] if start else None

    @property
    def config(self) -> dict:
        start = self.scan.start_record()
        return dict(start["config"]) if start else {}


@dataclass(frozen=True)
class SkippedInput:
    """One file the scanner refused: where it was and why.

    The multi-run scanner *never* raises for a bad input file — a runs
    directory accumulated across releases and crashes will contain junk,
    and one damaged journal must degrade to a reported skip, not kill
    the whole report.
    """

    path: Path
    name: str
    reason: str


@dataclass
class MultiRunScan:
    """Everything usable found under one or more runs directories."""

    journals: list[RunDirScan] = field(default_factory=list)
    outcomes: list[tuple[str, dict]] = field(default_factory=list)  # (name, doc)
    benches: list[tuple[str, dict]] = field(default_factory=list)  # (name, doc)
    skipped: list[SkippedInput] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.journals or self.outcomes or self.benches)


def _classify_json(doc: object) -> str | None:
    """Which report input a parsed JSON document is, if any."""
    if not isinstance(doc, dict):
        return None
    if isinstance(doc.get("outcomes"), list) and isinstance(doc.get("stats"), dict):
        return "outcomes"
    if isinstance(doc.get("results"), dict) and "benchmark" in doc:
        return "bench"
    return None


def scan_run_dirs(paths: list[Path | str] | tuple) -> MultiRunScan:
    """Read-only recursive scan of run directories for report inputs.

    Recognized inputs:

    * ``journal.jsonl`` files — scanned with :func:`scan_journal`.  A
      torn final line is tolerated as usual (the crash signature); a
      journal with mid-file damage or an unknown record version is
      *skipped and reported*, never fatal — unlike ``--resume``, the
      report only aggregates, so a distrusted journal costs one input,
      not correctness.
    * ``*.json`` files shaped like ``--outcomes-out`` documents
      (``{"stats": ..., "outcomes": [...]}``).
    * ``BENCH_*.json`` benchmark baselines (``{"benchmark": ...,
      "results": {...}}``).

    Anything else with a ``.json``/``.jsonl`` extension is recorded in
    ``skipped`` with a reason; other files (gap tables, text reports,
    cache entries) are ignored silently.  Results are deterministic: the
    walk is sorted, and names are root-relative, so equal trees scan
    equal regardless of location or argument order.
    """
    out = MultiRunScan()
    seen: set[Path] = set()
    for root in paths:
        root = Path(root)
        if not root.exists():
            out.skipped.append(
                SkippedInput(path=root, name=str(root), reason="does not exist")
            )
            continue
        files = [root] if root.is_file() else sorted(
            p for p in root.rglob("*") if p.is_file()
        )
        for path in files:
            real = path.resolve()
            if real in seen:
                continue
            seen.add(real)
            # Names are root-relative but keep the root's basename as a
            # prefix, so two roots that each hold a ``journal.jsonl``
            # stay distinct (and equal trees still scan equal regardless
            # of where they live or the argument order).
            name = (
                path.name
                if root.is_file()
                else f"{root.name}/{path.relative_to(root)}"
            )
            _scan_one_file(path, name, out)
    out.journals.sort(key=lambda j: j.name)
    out.outcomes.sort(key=lambda kv: kv[0])
    out.benches.sort(key=lambda kv: kv[0])
    out.skipped.sort(key=lambda s: s.name)
    return out


def _scan_one_file(path: Path, name: str, out: MultiRunScan) -> None:
    if path.name == JOURNAL_NAME or path.suffix == ".jsonl":
        try:
            scan = scan_journal(path)
        except JournalError as exc:
            # Reasons must be location-independent (golden tests, equal
            # trees scanning equal): report the root-relative name, not
            # wherever the tree happens to live.
            reason = str(exc).replace(str(path), name)
            out.skipped.append(SkippedInput(path=path, name=name, reason=reason))
            return
        if not scan.records:
            out.skipped.append(
                SkippedInput(path=path, name=name, reason="no valid journal records")
            )
            return
        out.journals.append(RunDirScan(path=path, name=name, scan=scan))
        return
    if path.suffix == ".json":
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            out.skipped.append(
                SkippedInput(path=path, name=name, reason=f"unparseable JSON: {exc}")
            )
            return
        kind = _classify_json(doc)
        if kind == "outcomes":
            out.outcomes.append((name, doc))
        elif kind == "bench":
            out.benches.append((name, doc))
        else:
            out.skipped.append(
                SkippedInput(
                    path=path,
                    name=name,
                    reason="unrecognized JSON document (not outcomes or BENCH)",
                )
            )


class RunCheckpoint:
    """CLI glue: one journal lifecycle around one engine run.

    Fresh run (``--journal DIR``)::

        ck = RunCheckpoint(run_dir)
        ck.attach(engine, "sweep", config)      # run.start + live journal
        ... run ...
        ck.finish(engine)                       # run.end

    Resume (``--resume DIR``)::

        ck = RunCheckpoint(run_dir, resume=True)
        config = ck.restore_config("sweep")     # the recorded parameters
        ck.attach(engine, "sweep", config)      # rehydrates completed units
        ... run ...
        ck.finish(engine)
    """

    def __init__(self, run_dir: Path | str, resume: bool = False) -> None:
        self.run_dir = Path(run_dir)
        self.resume = resume
        self.journal = RunJournal(self.run_dir)
        self._scan: JournalScan | None = None

    def scan(self) -> JournalScan:
        if self._scan is None:
            self._scan = scan_journal(self.journal.path)
        return self._scan

    def restore_config(self, command: str) -> dict:
        """The recorded run parameters; validates the command matches."""
        start = self.scan().start_record()
        if start is None:
            raise JournalError(
                f"journal {self.journal.path} has no run.start record to resume"
            )
        if start["command"] != command:
            raise JournalError(
                f"journal {self.journal.path} records a "
                f"'{start['command']}' run; cannot resume it as '{command}'"
            )
        return start["config"]

    def attach(self, engine, command: str, config: dict) -> None:
        """Wire the journal into ``engine`` and write the ``run.start``.

        On resume, every completed unit from the scan is loaded into the
        engine's resume state first, so the run re-executes only
        pending/in-flight units.
        """
        if self.resume:
            engine.load_resume_state(self.scan())
        engine.journal = self.journal
        self.journal.run_start(command, config, resumed=self.resume)

    def finish(self, engine, status: str = "ok") -> None:
        s = engine.stats
        self.journal.run_end(
            status,
            stats={
                "calls": s.calls,
                "computed": s.computed,
                "resumed": s.resumed,
                "failed": s.failed,
                "timed_out": s.timed_out,
                "respawned": s.respawned,
            },
        )
        self.journal.close()
