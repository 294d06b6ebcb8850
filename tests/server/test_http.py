"""Socket-level tests of the raw HTTP/1.1 transport.

Every route and every error status is exercised end to end over a real
connection (TCP on an ephemeral port, plus the unix-socket path), and
every response is checked to be complete and structured.
"""

from __future__ import annotations

import asyncio
import json

from .conftest import (
    analyze_doc,
    http_json,
    http_request,
    make_service,
    serve_frontend,
)


def run(coro):
    return asyncio.run(coro)


class TestRoutes:
    def test_healthz_reports_accounting(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            await http_json(host, port, analyze_doc(n=1))
            status, _, payload = await http_request(host, port, "GET", "/healthz")
            await frontend.aclose()
            await svc.drain()
            return status, json.loads(payload)

        status, body = run(scenario())
        assert status == 200
        assert body["status"] == "ok"
        assert body["stats"]["submitted"] == 1
        assert body["stats"]["completed"] == 1
        assert body["engine"]["calls"] == 1

    def test_healthz_lists_the_jobs_reuse_scope(self):
        """``warm`` shows the engine's stage reuse: the cells of a batch
        share their graph's stages."""
        from repro.runner.jobs import Job

        async def scenario():
            svc = make_service()
            svc.engine.run_jobs(
                [Job(transform="csr-pipelined", workload="iir", trip_count=n) for n in (5, 6)]
            )
            frontend, host, port = await serve_frontend(svc)
            status, _, payload = await http_request(host, port, "GET", "/healthz")
            await frontend.aclose()
            await svc.drain()
            return status, json.loads(payload)

        status, body = run(scenario())
        assert status == 200
        assert set(body["warm"]) == {"jobs"}
        jobs = body["warm"]["jobs"]
        assert set(jobs) == {"hits", "builds", "evictions"}
        assert jobs["builds"] > 0 and jobs["hits"] > 0

    def test_metrics_is_prometheus_text(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            await http_json(host, port, analyze_doc(n=1))
            status, headers, payload = await http_request(
                host, port, "GET", "/metrics"
            )
            await frontend.aclose()
            await svc.drain()
            return status, headers, payload.decode()

        status, headers, text = run(scenario())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "server_submitted 1" in text
        assert "server_completed 1" in text
        assert "# TYPE server_submitted gauge" in text

    def test_request_latency_histogram_counts_answered_requests(self):
        """With the server's metrics-only observability, each answered
        ``/v1/request`` is one ``server.request.seconds`` observation, a
        400 is none, and no span is kept."""
        from repro import observability

        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            await http_json(host, port, analyze_doc(n=1))
            await http_json(host, port, analyze_doc(n=2))
            await http_json(host, port, {"kind": "nope"})
            _, _, payload = await http_request(host, port, "GET", "/metrics")
            await frontend.aclose()
            await svc.drain()
            return payload.decode()

        observability.OBS.reset()
        observability.enable(trace=False)
        try:
            text = run(scenario())
            hist = observability.OBS.metrics.as_dict()["histograms"]
            roots = observability.OBS.tracer.roots
        finally:
            observability.disable()
            observability.OBS.reset()
        seconds = hist["server.request.seconds"]
        assert seconds["count"] == 2
        assert 0 < seconds["sum"] < 60
        assert "# TYPE server_request_seconds histogram" in text
        assert "server_request_seconds_count 2" in text
        assert roots == []

    def test_metrics_serves_the_computed_units_histogram(self):
        """``server.request.computed_units`` is in the global registry,
        so ``/metrics`` serves it: one observation per answered request,
        the same as the service's own histogram."""
        from repro import observability

        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            await http_json(host, port, analyze_doc(n=1))
            await http_json(host, port, analyze_doc(n=2))
            _, _, payload = await http_request(host, port, "GET", "/metrics")
            await frontend.aclose()
            await svc.drain()
            return svc, payload.decode()

        observability.OBS.reset()
        observability.enable(trace=False)
        try:
            svc, text = run(scenario())
        finally:
            observability.disable()
            observability.OBS.reset()
        assert svc.request_cost.count == 2
        assert "# TYPE server_request_computed_units histogram" in text
        assert "server_request_computed_units_count 2" in text
        assert f"server_request_computed_units_sum {svc.request_cost.sum}" in text

    def test_request_roundtrip_returns_canonical_json(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            status, headers, body = await http_json(host, port, analyze_doc(n=2))
            await frontend.aclose()
            await svc.drain()
            return status, headers, body

        status, headers, body = run(scenario())
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert body["ok"] and body["kind"] == "analyze"
        assert body["payload"]["period"] <= body["payload"]["period_original"]


class TestErrorStatuses:
    def test_invalid_json_is_400(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            status, _, payload = await http_request(
                host, port, "POST", "/v1/request", b"{nope"
            )
            await frontend.aclose()
            await svc.drain()
            return status, json.loads(payload)

        status, body = run(scenario())
        assert status == 400
        assert body["error_type"] == "ProtocolError"

    def test_protocol_error_is_400(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            result = await http_json(host, port, {"kind": "nope"})
            await frontend.aclose()
            await svc.drain()
            return result

        status, _, body = run(scenario())
        assert status == 400
        assert body["error_type"] == "ProtocolError"
        assert "unknown request kind" in body["error"]

    def test_unknown_route_is_404_and_wrong_method_is_405(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            missing = await http_request(host, port, "GET", "/nope")
            wrong = await http_request(host, port, "POST", "/healthz", b"{}")
            await frontend.aclose()
            await svc.drain()
            return missing, wrong

        (s404, _, b404), (s405, _, _) = run(scenario())
        assert s404 == 404
        assert json.loads(b404)["error_type"] == "NotFound"
        assert s405 == 405

    def test_oversized_body_is_413(self):
        from repro.server.http import MAX_BODY

        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"POST /v1/request HTTP/1.1\r\n"
                f"Content-Length: {MAX_BODY + 1}\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await frontend.aclose()
            await svc.drain()
            return raw

        raw = run(scenario())
        assert b"413" in raw.split(b"\r\n", 1)[0]

    def test_malformed_content_length_is_400(self):
        """A non-numeric or negative ``Content-Length`` is a structured
        400, not a dropped connection."""

        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            answers = []
            for declared in ("abc", "-5"):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    f"POST /v1/request HTTP/1.1\r\n"
                    f"Content-Length: {declared}\r\n\r\n".encode()
                )
                await writer.drain()
                answers.append(await asyncio.wait_for(reader.read(), timeout=10.0))
                writer.close()
            await frontend.aclose()
            await svc.drain()
            return answers, svc.stats.submitted

        answers, submitted = run(scenario())
        for raw in answers:
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert b" 400 " in head.split(b"\r\n", 1)[0]
            body = json.loads(payload)
            assert body["ok"] is False
            assert body["error_type"] == "ProtocolError"
            assert "Content-Length" in body["error"]
        assert submitted == 0

    def test_unexpected_error_is_a_structured_500(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)

            def broken():
                raise RuntimeError("snapshot exploded")

            svc.snapshot = broken
            answer = await http_request(host, port, "GET", "/healthz")
            await frontend.aclose()
            await svc.drain()
            return answer

        status, headers, payload = run(scenario())
        assert status == 500
        assert headers["content-type"] == "application/json"
        assert json.loads(payload) == {
            "ok": False,
            "error": "snapshot exploded",
            "error_type": "RuntimeError",
        }

    def test_shed_request_carries_retry_after_header(self):
        from repro.server import parse_request

        async def scenario():
            svc = make_service(max_inflight=1, retry_after=2.5)
            frontend, host, port = await serve_frontend(svc)
            svc.hold()
            blocker = asyncio.create_task(
                svc.submit(parse_request(analyze_doc(n=1)))
            )
            while svc.stats.submitted < 1:
                await asyncio.sleep(0)
            shed = await http_json(host, port, analyze_doc(n=2))
            svc.release()
            await blocker
            await frontend.aclose()
            await svc.drain()
            return shed

        status, headers, body = run(scenario())
        assert status == 503
        assert headers["retry-after"] == "2.5"
        assert body["error_type"] == "OverloadedError"
        assert body["retry_after"] == 2.5

    def test_draining_service_answers_503(self):
        async def scenario():
            svc = make_service()
            frontend, host, port = await serve_frontend(svc)
            await svc.drain()
            health = await http_request(host, port, "GET", "/healthz")
            refused = await http_json(host, port, analyze_doc(n=1))
            await frontend.aclose()
            return health, refused

        (hs, _, hb), (rs, _, rb) = run(scenario())
        assert hs == 503
        assert json.loads(hb)["status"] == "draining"
        assert rs == 503
        assert rb["error_type"] == "ServiceClosedError"


class TestUnixSocket:
    def test_unix_socket_roundtrip(self, tmp_path):
        sock = str(tmp_path / "repro.sock")

        async def scenario():
            from repro.server.http import HttpFrontend

            svc = make_service()
            frontend = HttpFrontend(svc)
            await frontend.start_unix(sock)
            status, _, body = await http_json(
                "", 0, analyze_doc(n=1), unix=sock
            )
            health = await http_request("", 0, "GET", "/healthz", unix=sock)
            await frontend.aclose()
            await svc.drain()
            return status, body, health

        status, body, (hs, _, _) = run(scenario())
        assert status == 200 and body["ok"]
        assert hs == 200
