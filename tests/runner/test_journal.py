"""Tests for the durable run journal and checkpoint/resume.

The crash-consistency contract under test:

* every appended record survives (fsync'd, checksummed, sequenced);
* a torn *final* line — the only damage a kill -9 can inflict — is
  dropped by the scanner; damage anywhere earlier raises
  :class:`JournalError`;
* resuming from any prefix of a journal reproduces the uninterrupted
  run's payloads bit-identically, re-executing only units without a
  completion record.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ExperimentEngine,
    JournalError,
    RunCheckpoint,
    RunJournal,
    scan_journal,
)
from repro.runner.journal import (
    JOURNAL_NAME,
    JOURNAL_VERSION,
    RECORD_TYPES,
    _canonical,
    _checksum,
    _decode_record,
    _encode_record,
)
from repro.runner.resilience import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)

PARAMS = [{"x": i} for i in range(6)]


def _double(params: dict) -> dict:
    return {"ok": True, "y": params["x"] * 2}


def _fail_on_three(params: dict) -> dict:
    if params["x"] == 3:
        raise ValueError("three is right out")
    return {"ok": True, "y": params["x"] * 2}


FAST = RetryPolicy(max_attempts=1, backoff=0.0)


def _journaled_run(run_dir: Path, fn=_double, retry=None) -> list[dict]:
    engine = ExperimentEngine(jobs=1, cache=None, retry=retry)
    engine.journal = RunJournal(run_dir)
    out = engine.map_cached("unit", fn, PARAMS)
    engine.journal.run_end("ok")
    engine.journal.close()
    return out


class TestRecordFormat:
    def test_append_scan_roundtrip(self, tmp_path):
        with RunJournal(tmp_path) as j:
            j.run_start("sweep", {"graphs": 3})
            j.job_submitted("k1", "unit#0")
            j.job_done("k1", "unit#0", {"ok": True}, cached=False)
            j.run_end("ok", {"calls": 1})
        scan = scan_journal(tmp_path / JOURNAL_NAME)
        assert not scan.torn
        assert [r["type"] for r in scan.records] == [
            "run.start",
            "job.submitted",
            "job.done",
            "run.end",
        ]
        assert [r["seq"] for r in scan.records] == [1, 2, 3, 4]
        assert scan.finished
        assert scan.start_record() == {
            "command": "sweep",
            "config": {"graphs": 3},
            "resumed": False,
        }
        assert scan.completed() == {
            "k1": {
                "key": "k1",
                "label": "unit#0",
                "payload": {"ok": True},
                "cached": False,
                "outcome": None,
            }
        }
        assert scan.pending() == {}

    def test_every_record_is_checksummed_and_versioned(self, tmp_path):
        with RunJournal(tmp_path) as j:
            j.run_start("sweep", {})
        for line in (tmp_path / JOURNAL_NAME).read_text().splitlines():
            doc = json.loads(line)
            assert doc["v"] == JOURNAL_VERSION
            assert len(doc["sha"]) == 16

    def test_unknown_record_type_rejected(self, tmp_path):
        with RunJournal(tmp_path) as j:
            with pytest.raises(ValueError, match="unknown journal record type"):
                j.append("job.exploded", {})

    def test_reopened_journal_continues_the_sequence(self, tmp_path):
        with RunJournal(tmp_path) as j:
            j.run_start("sweep", {})
            j.job_submitted("k", "l")
        with RunJournal(tmp_path) as j:
            j.job_done("k", "l", {"ok": True})
        assert [r["seq"] for r in scan_journal(tmp_path / JOURNAL_NAME).records] == [
            1,
            2,
            3,
        ]

    def test_journal_is_lazy_until_first_append(self, tmp_path):
        j = RunJournal(tmp_path / "sub")
        assert not (tmp_path / "sub").exists()
        j.run_start("sweep", {})
        assert (tmp_path / "sub" / JOURNAL_NAME).exists()
        j.close()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    seq=st.integers(min_value=0, max_value=2**63),
    rtype=st.sampled_from(RECORD_TYPES),
    data=st.dictionaries(st.text(max_size=8), _JSON, max_size=5),
)
def test_encoded_record_equals_the_two_dump_form(seq, rtype, data):
    """One dump of ``data`` spliced into the record gives the bytes of
    the canonical record with its checksum dumped separately."""
    record = {
        "v": JOURNAL_VERSION,
        "seq": seq,
        "type": rtype,
        "data": data,
        "sha": _checksum(seq, rtype, data),
    }
    line = _encode_record(seq, rtype, data)
    assert line == _canonical(record)
    assert _decode_record(line) == record


class TestScannerDamageModel:
    def _write(self, tmp_path) -> Path:
        with RunJournal(tmp_path) as j:
            j.run_start("sweep", {})
            j.job_submitted("k1", "a")
            j.job_done("k1", "a", {"ok": True})
            j.job_submitted("k2", "b")
        return tmp_path / JOURNAL_NAME

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        scan = scan_journal(path)
        assert scan.torn
        assert len(scan.records) == 3
        assert scan.pending() == {}  # k2's submission was the torn line

    def test_midfile_corruption_raises(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn, but NOT final
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt journal record at line 2"):
            scan_journal(path)

    def test_tampered_record_fails_its_checksum(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"ok":true', '"ok":false')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="checksum mismatch"):
            scan_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        del lines[1]  # a record vanished from the middle
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="sequence gap"):
            scan_journal(path)

    def test_unsupported_version_raises_even_on_final_line(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        doc["v"] = 99
        lines[-1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="unsupported journal version"):
            scan_journal(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read journal"):
            scan_journal(tmp_path / "nope" / JOURNAL_NAME)


class TestJournalWriteFaultSite:
    def test_fault_tears_the_record_and_raises(self, tmp_path):
        from repro.runner import resilience

        plan = FaultPlan([FaultSpec("journal.write", "job.done", times=1)])
        resilience.activate(plan)
        try:
            j = RunJournal(tmp_path)
            j.run_start("sweep", {})
            j.job_submitted("k", "l")
            with pytest.raises(FaultInjected):
                j.job_done("k", "l", {"ok": True})
            j.close()
        finally:
            resilience.deactivate()
        # The torn half-record hit the disk — exactly a crash signature —
        # and the scanner recovers everything before it.
        scan = scan_journal(tmp_path / JOURNAL_NAME)
        assert scan.torn
        assert [r["type"] for r in scan.records] == ["run.start", "job.submitted"]
        assert scan.pending() == {"k": "l"}


class TestGroupCommit:
    def _count_fsyncs(self, monkeypatch) -> list:
        import repro.runner.journal as journal_module

        calls = []
        real = journal_module.os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(journal_module.os, "fsync", counting)
        return calls

    def test_a_batch_of_appends_costs_one_fsync(self, tmp_path, monkeypatch):
        j = RunJournal(tmp_path)
        j.run_start("sweep", {})
        fsyncs = self._count_fsyncs(monkeypatch)
        with j.batch():
            for i in range(7):
                j.job_submitted(f"k{i}", f"l{i}")
            assert fsyncs == []
        assert len(fsyncs) == 1
        # Outside a batch every append is its own commit again.
        j.job_submitted("k7", "l7")
        assert len(fsyncs) == 2
        j.close()
        scan = scan_journal(tmp_path / JOURNAL_NAME)
        assert [r["seq"] for r in scan.records] == list(range(1, 10))
        assert j.records_written == 9

    def test_nested_batches_commit_once_at_the_outermost_exit(
        self, tmp_path, monkeypatch
    ):
        j = RunJournal(tmp_path)
        j.run_start("sweep", {})
        fsyncs = self._count_fsyncs(monkeypatch)
        with j.batch():
            j.job_submitted("k0", "l0")
            with j.batch():
                j.job_submitted("k1", "l1")
            assert fsyncs == []
            j.job_submitted("k2", "l2")
        assert len(fsyncs) == 1
        j.close()
        assert len(scan_journal(tmp_path / JOURNAL_NAME).records) == 4

    def test_a_batch_that_appends_nothing_commits_nothing(self, tmp_path, monkeypatch):
        j = RunJournal(tmp_path)
        j.run_start("sweep", {})
        fsyncs = self._count_fsyncs(monkeypatch)
        with j.batch():
            pass
        assert fsyncs == []
        j.close()

    def test_an_exception_still_commits_the_batch(self, tmp_path, monkeypatch):
        j = RunJournal(tmp_path)
        fsyncs = self._count_fsyncs(monkeypatch)
        with pytest.raises(RuntimeError):
            with j.batch():
                j.run_start("sweep", {})
                j.job_submitted("k", "l")
                raise RuntimeError("boom")
        assert len(fsyncs) == 1
        j.close()
        assert len(scan_journal(tmp_path / JOURNAL_NAME).records) == 2

    def test_fault_on_the_kth_record_of_a_batch(self, tmp_path):
        from repro.runner import resilience

        plan = FaultPlan([FaultSpec("journal.write", "job.done", times=1)])
        j = RunJournal(tmp_path)
        j.run_start("sweep", {})
        resilience.activate(plan)
        try:
            with pytest.raises(FaultInjected):
                with j.batch():
                    for i in range(3):
                        j.job_submitted(f"k{i}", f"l{i}")
                    j.job_done("k0", "l0", {"ok": True})  # record 4 of the batch
                    j.job_done("k1", "l1", {"ok": True})
            j.close()
        finally:
            resilience.deactivate()
        # Records 1..k-1 of the batch are intact, then one torn line.
        path = tmp_path / JOURNAL_NAME
        lines = path.read_text().split("\n")
        assert len(lines) == 5 and lines[-1]
        scan = scan_journal(path)
        assert scan.torn
        assert [r["type"] for r in scan.records] == ["run.start"] + ["job.submitted"] * 3
        # Reopening truncates the torn tail and continues the sequence.
        with RunJournal(tmp_path) as again:
            again.job_submitted("k3", "l3")
        scan = scan_journal(path)
        assert not scan.torn
        assert [r["seq"] for r in scan.records] == [1, 2, 3, 4, 5]


class TestEngineResume:
    def test_uninterrupted_journal_replays_everything(self, tmp_path):
        ref = _journaled_run(tmp_path)
        engine = ExperimentEngine(jobs=1, cache=None)
        engine.load_resume_state(scan_journal(tmp_path / JOURNAL_NAME))
        out = engine.map_cached("unit", _double, PARAMS)
        assert out == ref
        assert engine.stats.resumed == len(PARAMS)
        assert engine.stats.computed == 0

    def test_resume_from_prefix_reexecutes_only_pending(self, tmp_path):
        ref = _journaled_run(tmp_path)
        path = tmp_path / JOURNAL_NAME
        lines = path.read_text().splitlines()
        # Keep run.start + the first 3 submitted/done pairs.
        path.write_text("\n".join(lines[:7]) + "\n")
        scan = scan_journal(path)
        done = len(scan.completed())
        engine = ExperimentEngine(jobs=1, cache=None)
        engine.load_resume_state(scan)
        engine.journal = RunJournal(tmp_path)
        out = engine.map_cached("unit", _double, PARAMS)
        engine.journal.close()
        assert out == ref  # bit-identical to the uninterrupted run
        assert engine.stats.resumed == done
        assert engine.stats.computed == len(PARAMS) - done
        # The resumed run's journal now completes the record set.
        assert scan_journal(path).pending() == {}

    def test_rehydrated_payloads_are_independent_copies(self, tmp_path):
        _journaled_run(tmp_path)
        engine = ExperimentEngine(jobs=1, cache=None)
        engine.load_resume_state(scan_journal(tmp_path / JOURNAL_NAME))
        first = engine.map_cached("unit", _double, PARAMS)
        first[0]["y"] = "mutated"
        second = ExperimentEngine(jobs=1, cache=None)
        second.load_resume_state(scan_journal(tmp_path / JOURNAL_NAME))
        assert second.map_cached("unit", _double, PARAMS)[0] == {"ok": True, "y": 0}

    def test_failed_units_rehydrate_with_their_outcome(self, tmp_path):
        ref = _journaled_run(tmp_path, fn=_fail_on_three, retry=FAST)
        assert ref[3]["ok"] is False
        engine = ExperimentEngine(jobs=1, cache=None, retry=FAST)
        engine.load_resume_state(scan_journal(tmp_path / JOURNAL_NAME))
        out = engine.map_cached("unit", _fail_on_three, PARAMS)
        assert out == ref
        assert engine.stats.failed == 1
        assert engine.stats.resumed == len(PARAMS)
        resumed = [o for o in engine.stats.outcomes if o.resumed]
        assert len(resumed) == len(PARAMS)
        assert engine.failure_summary() is not None
        assert "three is right out" in engine.failure_summary()

    def test_journal_off_by_default_and_costs_nothing(self):
        engine = ExperimentEngine(jobs=1, cache=None)
        assert engine.journal is None and engine.resume_state == {}
        assert engine.map_cached("unit", _double, PARAMS) == [
            {"ok": True, "y": p["x"] * 2} for p in PARAMS
        ]

    @given(
        prefix_lines=st.integers(min_value=0, max_value=14),
        torn_tail=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_resume_from_any_crash_prefix_is_bit_identical(
        self, prefix_lines, torn_tail
    ):
        """The chaos property: kill the journal after ANY record prefix
        (optionally with a torn partial record after it, as a real crash
        leaves) and the resumed run's payloads equal the uninterrupted
        run's exactly."""
        with tempfile.TemporaryDirectory() as d:
            run_dir = Path(d)
            ref = _journaled_run(run_dir)
            path = run_dir / JOURNAL_NAME
            lines = path.read_text().splitlines()
            keep = lines[: min(prefix_lines, len(lines))]
            text = ("\n".join(keep) + "\n") if keep else ""
            if torn_tail and prefix_lines < len(lines):
                text += lines[prefix_lines][: len(lines[prefix_lines]) // 2]
            path.write_text(text)

            scan = scan_journal(path)
            engine = ExperimentEngine(jobs=1, cache=None)
            engine.load_resume_state(scan)
            engine.journal = RunJournal(run_dir)
            out = engine.map_cached("unit", _double, PARAMS)
            engine.journal.close()
            assert out == ref
            assert engine.stats.resumed == len(scan.completed())
            assert engine.stats.resumed + engine.stats.computed == len(PARAMS)


class TestRunCheckpoint:
    def test_fresh_then_resume_lifecycle(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=None)
        ck = RunCheckpoint(tmp_path)
        ck.attach(engine, "sweep", {"graphs": 2})
        engine.map_cached("unit", _double, PARAMS)
        ck.finish(engine, "ok")

        ck2 = RunCheckpoint(tmp_path, resume=True)
        assert ck2.restore_config("sweep") == {"graphs": 2}
        engine2 = ExperimentEngine(jobs=1, cache=None)
        ck2.attach(engine2, "sweep", {"graphs": 2})
        out = engine2.map_cached("unit", _double, PARAMS)
        ck2.finish(engine2, "ok")
        assert engine2.stats.resumed == len(PARAMS)
        assert out == [{"ok": True, "y": p["x"] * 2} for p in PARAMS]
        # Both lifecycles recorded their run.start/run.end.
        scan = scan_journal(tmp_path / JOURNAL_NAME)
        starts = [r["data"] for r in scan.records if r["type"] == "run.start"]
        assert [s["resumed"] for s in starts] == [False, True]

    def test_resume_wrong_command_rejected(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=None)
        ck = RunCheckpoint(tmp_path)
        ck.attach(engine, "sweep", {})
        ck.finish(engine)
        with pytest.raises(JournalError, match="cannot resume it as 'tables'"):
            RunCheckpoint(tmp_path, resume=True).restore_config("tables")

    def test_resume_without_start_record_rejected(self, tmp_path):
        with RunJournal(tmp_path) as j:
            j.job_submitted("k", "l")
        with pytest.raises(JournalError, match="no run.start record"):
            RunCheckpoint(tmp_path, resume=True).restore_config("sweep")


class TestCLIResume:
    def test_sweep_resume_after_truncated_journal_matches_reference(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        argv = ["sweep", "--graphs", "2", "--seed", "5", "--no-cache"]
        assert main(argv) == 0
        ref = capsys.readouterr().out

        run_dir = tmp_path / "run"
        assert main(argv + ["--journal", str(run_dir)]) == 0
        capsys.readouterr()
        path = run_dir / JOURNAL_NAME
        lines = path.read_text().splitlines()
        # Drop the run.end and the last third of the records, plus leave a
        # torn tail — the on-disk state an actual kill -9 produces.
        keep = lines[: 2 * len(lines) // 3]
        path.write_text("\n".join(keep) + "\n" + lines[-2][:20])

        assert main(["sweep", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == ref
        final = scan_journal(path)
        assert final.finished and final.pending() == {}

    def test_journal_and_resume_flags_are_mutually_exclusive(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--journal", "a", "--resume", "b"])

    def test_corrupt_journal_resume_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "sweep",
                    "--graphs",
                    "1",
                    "--no-cache",
                    "--journal",
                    str(run_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        path = run_dir / JOURNAL_NAME
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # mid-file damage, not a crash signature
        path.write_text("\n".join(lines) + "\n")
        assert main(["sweep", "--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "corrupt journal record" in err
        assert "Traceback" not in err
