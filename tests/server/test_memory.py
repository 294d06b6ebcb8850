"""A long-lived server's memory does not grow with the requests it serves.

Mixed ``transform``/``analyze`` traffic on fresh random graphs, with the
occasional repeat, runs through :class:`RetimingService` with metrics on,
as ``python -m repro serve`` runs it.  Nothing may keep per-request
state: no spans (the server does not trace), no engine outcome records,
and the heap a second window of requests leaves behind stays under a
small per-request allowance.
"""

from __future__ import annotations

import asyncio
import random
import tracemalloc

import pytest

from repro import observability
from repro.graph.generators import random_dfg
from repro.graph.serialize import to_json
from repro.server import parse_request

from .conftest import make_service

TRANSFORMS = ("pipelined", "csr-pipelined", "csr-unfolded", "csr-retime-unfold")

#: Requests submitted together: the dispatcher drains them as one batch.
BATCH = 10
WARMUP = 600
WINDOW = 500
#: Heap growth allowed per request of the measured window, in bytes.
ALLOWANCE = 1024


def _docs(seed: int, count: int) -> list[dict]:
    """``count`` request documents: fresh graphs, one in five a repeat."""
    rng = random.Random(seed)
    docs: list[dict] = []
    for i in range(count):
        if docs and rng.random() < 0.2:
            docs.append(rng.choice(docs))
            continue
        g = random_dfg(rng, num_nodes=rng.randint(3, 7), name=f"m{seed}_{i}")
        graph = to_json(g, indent=None)
        if rng.random() < 0.3:
            docs.append({"kind": "analyze", "params": {"graph": graph, "trip_count": 4}})
        else:
            docs.append(
                {
                    "kind": "transform",
                    "params": {
                        "graph": graph,
                        "transform": rng.choice(TRANSFORMS),
                        "factor": rng.choice((2, 3)),
                        "trip_count": 4,
                    },
                }
            )
    return docs


@pytest.fixture
def metrics_only():
    """Observability as the server runs it: metrics on, tracing off."""
    observability.OBS.reset()
    observability.OBS.enabled, observability.OBS.tracing = True, False
    yield observability.OBS
    observability.disable()
    observability.OBS.reset()


def test_server_memory_is_constant_per_request(tmp_path, metrics_only):
    svc = make_service(cache_dir=tmp_path)

    async def serve(docs: list[dict]) -> None:
        for i in range(0, len(docs), BATCH):
            tasks = [
                asyncio.create_task(svc.submit(parse_request(doc)))
                for doc in docs[i : i + BATCH]
            ]
            envelopes = await asyncio.gather(*tasks)
            assert all(env["ok"] for env in envelopes), envelopes
            assert metrics_only.tracer.roots == []
            assert svc.engine.stats.outcomes == []

    async def scenario() -> int:
        await svc.start()
        await serve(_docs(1, WARMUP))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            await serve(_docs(2, WINDOW))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        await svc.drain()
        return grown

    grown = asyncio.run(scenario())
    assert svc.stats.completed == WARMUP + WINDOW
    assert svc.engine.stats.computed > WINDOW
    # The metrics were on: the counters saw every request.
    counters = metrics_only.metrics.as_dict()["counters"]
    assert counters["server.requests"] == WARMUP + WINDOW
    assert grown < ALLOWANCE * WINDOW, f"{grown / WINDOW:.0f} bytes per request"
