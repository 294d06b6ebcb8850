"""End-to-end test of ``python -m repro serve``: real process, real
socket, SIGTERM drain, clean exit."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time


def _wait_for(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met before deadline")


def _unix_http(sock_path: str, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30.0)
        s.connect(sock_path)
        head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        s.sendall(head.encode() + body)
        raw = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            raw += chunk
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    return int(head_bytes.split()[1]), payload


def test_serve_answers_and_drains_on_sigterm(tmp_path):
    sock_path = str(tmp_path / "repro.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock_path,
            "--cache-dir",
            str(tmp_path / "cache"),
            "--max-inflight",
            "16",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for(lambda: os.path.exists(sock_path))

        status, payload = _unix_http(
            sock_path,
            "POST",
            "/v1/request",
            json.dumps(
                {
                    "kind": "analyze",
                    "params": {"workload": "iir", "trip_count": 3},
                }
            ).encode(),
        )
        assert status == 200
        body = json.loads(payload)
        assert body["ok"] and body["payload"]["period"] == 3  # iir retimed

        status, payload = _unix_http(sock_path, "GET", "/healthz")
        assert status == 200
        assert json.loads(payload)["stats"]["completed"] == 1

        status, payload = _unix_http(sock_path, "GET", "/metrics")
        assert status == 200
        assert b"server_completed 1" in payload

        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.communicate(timeout=30)
        raise

    assert proc.returncode == 0, err
    assert "serving on unix socket" in out
    assert "draining..." in out
    assert "drained: 1 submitted, 1 completed" in out
    assert not os.path.exists(sock_path)  # the socket file is cleaned up


def test_distributed_serve_leases_to_its_worker_and_drains(tmp_path):
    """``serve --distributed`` runs the work plane on its own loop and
    thread: a sweep request's units are leased to the spawned worker, the
    work plane answers its own ``/healthz``, and SIGTERM still drains to
    a clean exit."""
    sock_path = str(tmp_path / "repro.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--socket", sock_path,
            "--no-cache", "--distributed", "--remote-workers", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline().startswith("serving on unix socket")
        plane = proc.stdout.readline().strip()
        assert plane.startswith("work plane on http://")
        host, port = plane.rpartition("/")[2].rsplit(":", 1)

        doc = {"kind": "sweep", "params": {"graphs": 2, "seed": 1}}
        status, payload = _unix_http(
            sock_path, "POST", "/v1/request", json.dumps(doc).encode()
        )
        assert status == 200
        assert json.loads(payload)["ok"]

        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        health = (resp.status, json.loads(resp.read()))
        conn.close()
        assert health == (200, {"ok": True, "leases_active": 0})

        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.communicate(timeout=30)
        raise

    assert proc.returncode == 0, err
    assert "drained: 1 submitted, 1 completed" in out
    assert "repro-worker[spawn-0]: coordinator done; executed" in err
    assert "executed 0 unit(s)" not in err
