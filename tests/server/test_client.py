"""Tests for the resilient HTTP client.

Everything runs against injected fakes — ``transport`` and ``sleep`` —
so the retry ladder is asserted without sockets or real seconds.
"""

from __future__ import annotations

import pytest

from repro.server.client import (
    ClientPolicy,
    RemoteUnavailableError,
    ResilientClient,
    _jitter,
)


class ScriptedTransport:
    """Replays a script of outcomes: an exception instance to raise, or a
    ``(status, headers, body_bytes)`` tuple to return.  The last entry
    repeats forever."""

    def __init__(self, script: list) -> None:
        self.script = list(script)
        self.calls = 0

    def __call__(self, method, path, body):
        self.calls += 1
        step = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        if isinstance(step, Exception):
            raise step
        return step


OK = (200, {}, b'{"ok": true}')
FAIL = ConnectionRefusedError("down")


def make_client(script, *, sleeps=None, **policy_kw):
    policy = ClientPolicy(backoff=0.1, backoff_cap=1.0, **policy_kw)
    transport = ScriptedTransport(script)
    client = ResilientClient(
        "127.0.0.1:1",
        policy=policy,
        seed=7,
        transport=transport,
        sleep=(sleeps.append if sleeps is not None else lambda _s: None),
    )
    return client, transport


class TestRequestRetries:
    def test_address_must_be_host_port(self):
        with pytest.raises(ValueError, match="host:port"):
            ResilientClient("nonsense")

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ClientPolicy(max_attempts=0)

    def test_jitter_is_deterministic_and_bounded(self):
        values = {_jitter(7, "/p", a) for a in range(1, 20)}
        assert all(0.5 <= v < 1.0 for v in values)
        assert len(values) > 1  # varies per attempt
        assert _jitter(7, "/p", 1) == _jitter(7, "/p", 1)

    def test_transport_failures_retried_with_capped_backoff(self):
        sleeps: list[float] = []
        client, transport = make_client([FAIL, FAIL, OK], sleeps=sleeps)
        assert client.call("/v1/x", {"a": 1}) == {"ok": True}
        assert transport.calls == 3
        assert client.retries == 2
        # backoff * 2**(attempt-1), scaled into [0.5, 1.0) by the jitter
        assert 0.05 <= sleeps[0] < 0.1
        assert 0.1 <= sleeps[1] < 0.2

    def test_budget_exhaustion_raises_unavailable(self):
        client, transport = make_client([FAIL], max_attempts=3)
        with pytest.raises(RemoteUnavailableError, match="3 attempt"):
            client.request("/v1/x", {})
        assert transport.calls == 3

    def test_503_is_an_answer_too(self):
        shed = (503, {"retry-after": "3"}, b'{"error": "overloaded"}')
        client, transport = make_client([shed, OK])
        status, _, body = client.request("/v1/x", {})
        assert status == 503 and body == {"error": "overloaded"}
        assert transport.calls == 1

    def test_error_statuses_are_answers_not_failures(self):
        client, transport = make_client([(400, {}, b'{"error": "bad"}')])
        status, _, body = client.request("/v1/x", {})
        assert status == 400 and body == {"error": "bad"}
        assert transport.calls == 1  # no retry: the server answered

    def test_non_json_body_is_wrapped_not_fatal(self):
        client, _ = make_client([(200, {}, b"<html>oops</html>")])
        _, _, body = client.request("/v1/x", {})
        assert body == {"raw": "<html>oops</html>"}
