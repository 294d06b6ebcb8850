"""Up-front CLI validation: bad flags die with one line, before any work.

Covers the range-checked engine and serve flags, the one fabric flag
(``--workers remote`` with ``--jobs`` spawned workers), the topology
fingerprint a journal records, and :func:`check_topology`'s refusal to
``--resume`` under a different execution fabric than the journal was
written with.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import (
    build_parser,
    check_topology,
    engine_from_args,
    main,
    topology_from_args,
    validate_engine_args,
)
from repro.runner import JournalError, RemoteFabric

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _args(*argv: str):
    return build_parser().parse_args(["tables", *argv])


class TestValidateEngineArgs:
    def test_plain_and_valid_remote_combos_pass(self):
        validate_engine_args(_args())
        validate_engine_args(_args("--workers", "remote"))
        validate_engine_args(
            _args("--workers", "remote", "--jobs", "3", "--lease-timeout", "5")
        )

    @pytest.mark.parametrize(
        "argv",
        [("--lease-timeout", "5"), ("--jobs", "2", "--lease-timeout", "5")],
    )
    def test_remote_flags_require_remote_workers(self, argv):
        with pytest.raises(SystemExit, match="requires --workers remote"):
            validate_engine_args(_args(*argv))

    def _refused(self, capsys, *argv: str) -> str:
        with pytest.raises(SystemExit):
            _args(*argv)
        return capsys.readouterr().err

    def test_supervised_flag_is_gone(self, capsys):
        # Folded into --workers remote, which spawns --jobs workers.
        err = self._refused(capsys, "--supervised", "--jobs", "2")
        assert "unrecognized arguments: --supervised" in err

    def test_remote_workers_flag_is_gone(self, capsys):
        err = self._refused(capsys, "--workers", "remote", "--remote-workers", "2")
        assert "unrecognized arguments: --remote-workers" in err

    def test_worker_heartbeat_timeout_flag_is_gone(self, capsys):
        err = self._refused(
            capsys, "--workers", "remote", "--worker-heartbeat-timeout", "5"
        )
        assert "--worker-heartbeat-timeout" in err

    def test_coordinator_flag_is_gone(self, capsys):
        err = self._refused(
            capsys, "--workers", "remote", "--coordinator", "127.0.0.1:9"
        )
        assert "unrecognized arguments: --coordinator" in err

    def test_help_lists_one_fabric_flag(self):
        for command in ("tables", "sweep"):
            sub = build_parser()._subparsers._group_actions[0].choices[command]
            text = sub.format_help()
            assert "--workers" in text
            assert "--supervised" not in text
            assert "--remote-workers" not in text

    def test_cli_dies_with_single_error_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "1",
             "--lease-timeout", "2"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        lines = [l for l in proc.stderr.splitlines() if l]
        assert lines == ["error: --lease-timeout requires --workers remote"]
        assert proc.stdout == ""  # validation fired before any work


class TestOutOfRangeFlags:
    """Every out-of-range or conflicting engine, serve or worker flag ends
    in one ``error:`` line and exit 2, with no traceback and nothing on
    stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--retries", "0"],
            ["tables", "--jobs", "-3"],
            ["tables", "--job-timeout", "-1"],
            ["tables", "--job-timeout", "0"],
            ["tables", "--job-timeout", "nan"],
            ["tables", "--workers", "remote", "--lease-timeout", "0"],
            ["sweep", "--workers", "remote", "--lease-timeout", "inf"],
            ["sweep", "--jobs", "two"],
            ["report", "--diff", "a", "b", "--counter-ratio", "0"],
            ["serve", "--max-inflight", "0"],
            ["serve", "--batch-max", "0"],
            ["serve", "--workers", "-1"],
            ["serve", "--remote-workers", "-1"],
            ["serve", "--distributed", "--lease-timeout", "0"],
            ["serve", "--port", "70000"],
            ["worker", "--connect", "127.0.0.1:9", "--retry-max", "0"],
            ["worker", "--connect", "127.0.0.1:9", "--request-timeout", "-1"],
            ["worker", "--connect", "127.0.0.1:9", "--max-units", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exit_2_with_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors = [l for l in err.splitlines() if "error:" in l]
        assert len(errors) == 1 and f"argument {argv[-2]}" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--lease-timeout", "5"],
            ["sweep", "--journal", "a", "--resume", "b"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_conflicting_flags_exit_2_with_one_error_line(self, argv, capsys):
        """Flags valid alone but not together are refused after parsing,
        with the same one line and exit code as an argparse error."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {exc.value}"]
        assert argv[-2] in err


class TestSupervisedFabric:
    """``--workers remote`` is the supervised lease fabric: it spawns the
    engine's resolved ``--jobs`` workers and respawns dead ones."""

    @pytest.mark.parametrize(
        "argv, workers, lease_timeout",
        [
            ((), 1, 30.0),
            (("--jobs", "3"), 3, 30.0),
            (("--jobs", "2", "--lease-timeout", "600"), 2, 600.0),
            (("--jobs", "0"), os.cpu_count() or 1, 30.0),
        ],
    )
    def test_supervised_is_the_lease_fabric_with_jobs_workers(
        self, argv, workers, lease_timeout
    ):
        engine = engine_from_args(
            _args("--workers", "remote", "--no-cache", *argv)
        )
        try:
            assert isinstance(engine.remote, RemoteFabric)
            assert engine.remote.workers == engine.jobs == workers
            assert engine.remote.lease_timeout == lease_timeout
            assert engine.remote.policy == engine.retry
        finally:
            engine.close()


class TestTopologyFingerprint:
    def test_fingerprint_shape(self):
        assert topology_from_args(_args()) == {"workers": "local"}
        assert topology_from_args(_args("--workers", "remote")) == {
            "workers": "remote",
        }
        # The worker count and lease timeout are tuning knobs, not a
        # topology.
        assert topology_from_args(
            _args("--workers", "remote", "--jobs", "3", "--lease-timeout", "600")
        ) == {"workers": "remote"}

    def test_old_journals_without_fingerprint_stay_resumable(self):
        check_topology({"graphs": 5}, _args("--workers", "remote"))

    def test_matching_topology_resumes(self):
        args = _args("--workers", "remote")
        check_topology({"topology": topology_from_args(args)}, args)

    @pytest.mark.parametrize(
        "recorded, workers",
        [
            ({"workers": "local", "supervised": True}, "remote"),
            ({"workers": "remote", "supervised": False}, "remote"),
            ({"workers": "local", "supervised": False}, "local"),
        ],
    )
    def test_legacy_fingerprints_resume_under_the_folded_flag(
        self, recorded, workers
    ):
        check_topology({"topology": recorded}, _args("--workers", workers))

    def test_mismatch_refused_with_both_topologies_named(self):
        recorded = {"topology": {"workers": "local", "supervised": True}}
        with pytest.raises(JournalError) as err:
            check_topology(recorded, _args())
        message = str(err.value)
        assert "topology mismatch" in message
        assert "recorded workers=remote" in message
        assert "says workers=local" in message

    def test_mismatch_on_resume_is_one_error_line(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["sweep", "--graphs", "1", "--no-cache",
                     "--journal", str(run)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--resume", str(run), "--workers", "remote"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --resume topology mismatch")


class TestModuleAlias:
    def test_analysis_alias_prints_the_tables_bytes(self):
        """``python -m repro.analysis`` is ``python -m repro tables``."""

        def run(*argv: str) -> str:
            proc = subprocess.run(
                [sys.executable, "-m", *argv, "1", "3", "--no-cache"],
                env={**os.environ, "PYTHONPATH": SRC},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            return proc.stdout

        tables = run("repro", "tables")
        assert "=== Table 1" in tables and "=== Table 3" in tables
        assert run("repro.analysis") == tables
