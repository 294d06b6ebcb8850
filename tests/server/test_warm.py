"""What stays warm across server requests: the result cache, and nothing
else.  ``analyze`` builds and compiles its program per request, and the
compiled form dies with the program, so repeated requests leave no
per-request state behind."""

from __future__ import annotations

import asyncio
import gc

from repro.machine import dispatch
from repro.server import parse_request
from repro.server.work import analyze_graph
from repro.workloads import get_workload

from .conftest import analyze_doc, make_service


class TestWarmPrograms:
    def test_server_analyze_warms_across_requests(self, tmp_path):
        """A repeated analyze request is answered from the result cache,
        byte-equal, without running again."""

        async def scenario():
            svc = make_service(cache_dir=tmp_path)
            await svc.start()
            a = await svc.submit(
                parse_request(analyze_doc("elliptic", n=2, verify=False))
            )
            b = await svc.submit(
                parse_request(analyze_doc("elliptic", n=2, verify=False))
            )
            await svc.drain()
            return svc, a, b

        svc, a, b = asyncio.run(scenario())
        assert a["ok"] and b["ok"]
        assert not a["cached"] and b["cached"]
        assert svc.engine.stats.computed == 1
        assert a["payload"] == b["payload"]

    def test_pool_eviction_does_not_change_payloads(self):
        """The compile cache evicts a program's entry when the program
        dies: two identical analyses leave it as they found it, and their
        payloads are byte-equal."""
        from repro.graph.serialize import to_json

        g = get_workload("iir")
        params = {
            "graph": to_json(g, indent=None),
            "trip_count": 3,
            "verify": True,
        }
        gc.collect()
        before = len(dispatch._CACHE)
        first = analyze_graph(dict(params))
        second = analyze_graph(dict(params))
        gc.collect()
        assert len(dispatch._CACHE) == before
        first.pop("compute_time")
        second.pop("compute_time")
        assert first == second
