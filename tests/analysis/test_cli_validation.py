"""Up-front CLI validation: incompatible flag combos die with one line.

Covers :func:`validate_engine_args` (bad distributed-execution combos),
the fabric ``--supervised`` builds, the topology fingerprint a journal
records, and
:func:`check_topology`'s refusal to ``--resume`` under a different
execution fabric than the journal was written with.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.analysis.__main__ import (
    build_parser,
    check_topology,
    engine_from_args,
    topology_from_args,
    validate_engine_args,
)
from repro.runner import JournalError, RemoteFabric


def _args(*argv: str):
    return build_parser().parse_args(list(argv))


class TestValidateEngineArgs:
    def test_plain_and_valid_remote_combos_pass(self):
        validate_engine_args(_args())
        validate_engine_args(_args("--supervised"))
        validate_engine_args(_args("--supervised", "--lease-timeout", "5"))
        validate_engine_args(_args("--workers", "remote"))
        validate_engine_args(
            _args("--workers", "remote", "--remote-workers", "3",
                  "--lease-timeout", "5")
        )

    def test_supervised_and_remote_are_mutually_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            validate_engine_args(_args("--supervised", "--workers", "remote"))

    @pytest.mark.parametrize(
        "argv",
        [("--remote-workers", "2"), ("--lease-timeout", "5")],
    )
    def test_remote_flags_require_remote_workers(self, argv):
        with pytest.raises(SystemExit, match="requires --workers remote"):
            validate_engine_args(_args(*argv))

    def test_supervised_still_rejects_remote_only_flags(self):
        with pytest.raises(SystemExit, match="requires --workers remote"):
            validate_engine_args(_args("--supervised", "--remote-workers", "2"))

    def test_worker_heartbeat_timeout_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            _args("--supervised", "--worker-heartbeat-timeout", "5")
        assert "--worker-heartbeat-timeout" in capsys.readouterr().err

    def test_coordinator_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            _args("--workers", "remote", "--coordinator", "127.0.0.1:9")
        err = capsys.readouterr().err
        assert "unrecognized arguments: --coordinator" in err

    def test_cli_dies_with_single_error_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "1",
             "--remote-workers", "2"],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        lines = [l for l in proc.stderr.splitlines() if l]
        assert lines == ["error: --remote-workers requires --workers remote"]
        assert proc.stdout == ""  # validation fired before any work


class TestSupervisedFabric:
    @pytest.mark.parametrize(
        "argv, workers, lease_timeout",
        [
            (("--jobs", "3"), 3, 30.0),
            (("--jobs", "2", "--lease-timeout", "600"), 2, 600.0),
            (("--jobs", "0"), os.cpu_count() or 1, 30.0),
        ],
    )
    def test_supervised_is_the_lease_fabric_with_jobs_workers(
        self, argv, workers, lease_timeout
    ):
        engine = engine_from_args(_args("--supervised", "--no-cache", *argv))
        try:
            assert isinstance(engine.remote, RemoteFabric)
            assert engine.remote.workers == workers
            assert engine.remote.lease_timeout == lease_timeout
            assert engine.remote.policy == engine.retry
        finally:
            engine.close()


class TestTopologyFingerprint:
    def test_fingerprint_shape(self):
        assert topology_from_args(_args()) == {
            "workers": "local", "supervised": False,
        }
        assert topology_from_args(_args("--workers", "remote")) == {
            "workers": "remote", "supervised": False,
        }
        assert topology_from_args(_args("--supervised")) == {
            "workers": "local", "supervised": True,
        }
        # The lease timeout is a tuning knob, not a topology: journals
        # written by --supervised before it ran on the fabric resume.
        assert topology_from_args(
            _args("--supervised", "--lease-timeout", "600")
        ) == {"workers": "local", "supervised": True}

    def test_old_journals_without_fingerprint_stay_resumable(self):
        check_topology({"graphs": 5}, _args("--workers", "remote"))

    def test_matching_topology_resumes(self):
        args = _args("--workers", "remote")
        check_topology({"topology": topology_from_args(args)}, args)

    def test_mismatch_refused_with_both_topologies_named(self):
        recorded = {"topology": {"workers": "local", "supervised": True}}
        with pytest.raises(JournalError) as err:
            check_topology(recorded, _args("--workers", "remote"))
        message = str(err.value)
        assert "topology mismatch" in message
        assert "workers=local supervised=yes" in message
        assert "workers=remote supervised=no" in message
