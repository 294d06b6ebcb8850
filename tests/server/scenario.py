"""CI scenario: 200 HTTP requests against a live in-process server under
the canned server fault plan, with deterministic counter assertions.

Not a pytest module — the CI ``server-matrix`` job runs it directly:

    PYTHONPATH=src python tests/server/scenario.py \\
        --fault-plan tests/data/faultplans/server-faults.json \\
        --metrics-out server-metrics.prom

The scenario has two gated phases (the dispatcher gate makes every
count exact, independent of scheduling):

* **dedup** — 160 requests over 8 distinct keys (20 copies each) while
  the dispatcher is held, so every copy either owns or joins an
  in-flight future: exactly 8 engine jobs, 150 joins, minus the 2
  requests the ``server.accept`` fault eats and the 1 response the
  ``server.respond`` fault corrupts (both structured 500s, no hangs).
* **shed** — 8 distinct keys fill ``--max-inflight``, the next 24
  distinct keys are refused with 503 + ``Retry-After``, while 8
  duplicates of in-flight keys are still admitted as joiners.

It finishes by asserting the conservation law
(completed + failed + shed == submitted), fetching ``GET /metrics``,
and writing the Prometheus snapshot for upload as a CI artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile

from repro import observability
from repro.runner import resilience
from repro.runner.cache import ResultCache
from repro.runner.engine import ExperimentEngine
from repro.runner.resilience import FaultPlan
from repro.server import HttpFrontend, RetimingService

MAX_INFLIGHT = 8
COPIES = 20  # per dedup key
SHED_EXTRA = 24  # distinct keys beyond capacity
TOTAL = 200

# 8 dedup keys: exactly ONE matches the fault plan's "iir/analyze/*".
DEDUP_WORKLOADS = [
    "iir", "fir", "diffeq", "biquad2", "allpole", "figure1", "figure2", "figure4",
]
# Shed-phase keys must not collide with the dedup keys or the plan match.
SHED_WORKLOADS = ["elliptic", "lattice", "lms", "figure8"]


def analyze_doc(workload: str, n: int) -> dict:
    return {
        "kind": "analyze",
        "params": {"workload": workload, "trip_count": n, "verify": False},
    }


async def post(host: str, port: int, doc: dict) -> tuple[int, dict, dict]:
    body = json.dumps(doc).encode()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        b"POST /v1/request HTTP/1.1\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(payload)


async def get(host: str, port: int, path: str) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw.partition(b"\r\n\r\n")[2]


async def settle(predicate, what: str, timeout: float = 60.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.005)


async def run(fault_plan: str | None, metrics_out: str | None) -> None:
    observability.enable(trace=False)  # as `python -m repro serve` runs
    if fault_plan:
        resilience.activate(FaultPlan.from_file(fault_plan))

    with tempfile.TemporaryDirectory() as cache_dir:
        engine = ExperimentEngine(jobs=1, cache=ResultCache(cache_dir))
        svc = RetimingService(engine, max_inflight=MAX_INFLIGHT, batch_max=8)
        await svc.start()
        frontend = HttpFrontend(svc)
        host, port = await frontend.start_tcp("127.0.0.1", 0)

        # -- phase 1: dedup under a held dispatcher ---------------------
        svc.hold()
        dedup_docs = [analyze_doc(w, 3) for w in DEDUP_WORKLOADS]
        tasks = [
            asyncio.create_task(post(host, port, doc))
            for doc in dedup_docs
            for _ in range(COPIES)
        ]
        n_dedup = len(tasks)  # 160
        accepted = n_dedup - 2  # the accept fault eats exactly 2
        await settle(
            lambda: svc.stats.submitted == accepted
            and svc.stats.jobs_submitted + svc.stats.deduped == accepted,
            "all dedup-phase requests to register",
        )
        assert svc.stats.jobs_submitted == len(DEDUP_WORKLOADS), svc.stats.as_dict()
        assert svc.stats.deduped == accepted - len(DEDUP_WORKLOADS)
        svc.release()
        dedup_results = await asyncio.gather(*tasks)

        faulted = [r for r in dedup_results if r[0] == 500]
        assert len(faulted) == 3, f"expected 2 accept + 1 respond faults, got {len(faulted)}"
        assert all(r[2]["error_type"] == "FaultInjected" for r in faulted)
        oks = [r for r in dedup_results if r[0] == 200]
        assert len(oks) == n_dedup - 3
        # every admitted copy of a key received byte-identical envelopes
        by_key: dict[str, set] = {}
        for _, _, env in oks:
            by_key.setdefault(env["key"], set()).add(json.dumps(env, sort_keys=True))
        assert len(by_key) == len(DEDUP_WORKLOADS)
        assert all(len(bodies) == 1 for bodies in by_key.values())
        print(f"dedup: {n_dedup} requests -> {svc.stats.jobs_submitted} engine jobs, "
              f"{svc.stats.deduped} joined, {len(faulted)} injected faults")

        # -- phase 2: shedding at capacity ------------------------------
        svc.hold()
        fill_docs = [analyze_doc(w, n) for w in SHED_WORKLOADS for n in (1, 2)][:MAX_INFLIGHT]
        fill_tasks = [asyncio.create_task(post(host, port, doc)) for doc in fill_docs]
        await settle(lambda: svc.inflight == MAX_INFLIGHT, "capacity to fill")

        shed_docs = [analyze_doc(w, n) for w in SHED_WORKLOADS for n in range(3, 9)]
        assert len(shed_docs) == SHED_EXTRA
        shed_results = await asyncio.gather(
            *(post(host, port, doc) for doc in shed_docs)
        )
        assert all(status == 503 for status, _, _ in shed_results)
        assert all("retry-after" in headers for _, headers, _ in shed_results)

        join_tasks = [asyncio.create_task(post(host, port, doc)) for doc in fill_docs]
        await settle(
            lambda: svc.stats.deduped
            == accepted - len(DEDUP_WORKLOADS) + len(join_tasks),
            "duplicates to join in-flight keys",
        )
        svc.release()
        fill_results = await asyncio.gather(*fill_tasks)
        join_results = await asyncio.gather(*join_tasks)
        assert all(status == 200 for status, _, _ in fill_results + join_results)
        print(f"shed: {len(shed_results)} refused with Retry-After, "
              f"{len(join_tasks)} duplicates still admitted at capacity")

        # -- accounting --------------------------------------------------
        total = n_dedup + len(fill_tasks) + len(shed_results) + len(join_tasks)
        assert total == TOTAL, total
        stats = svc.stats
        assert stats.submitted == TOTAL - 2  # accept faults never submit
        assert stats.shed == SHED_EXTRA
        assert stats.jobs_submitted == len(DEDUP_WORKLOADS) + len(fill_docs)
        assert stats.failed == 1  # the respond fault
        assert stats.completed + stats.failed + stats.shed == stats.submitted, (
            f"conservation violated: {stats.as_dict()}"
        )

        metrics = (await get(host, port, "/metrics")).decode()
        for needle in (
            f"server_submitted {stats.submitted}",
            f"server_deduped {stats.deduped}",
            f"server_shed {stats.shed}",
            f"server_jobs_submitted {stats.jobs_submitted}",
            f"server_completed {stats.completed}",
            f"server_failed {stats.failed}",
            # Every answered request (the shed ones are not) is timed
            # and costed.
            f"server_request_seconds_count {stats.completed + stats.failed}",
            f"server_request_computed_units_count {stats.completed + stats.failed}",
        ):
            assert needle in metrics, f"{needle!r} missing from /metrics"
        if metrics_out:
            with open(metrics_out, "w") as fh:
                fh.write(metrics)
            print(f"wrote /metrics snapshot: {metrics_out}")

        await frontend.aclose()
        await svc.drain()
    resilience.deactivate()
    print(f"OK: {TOTAL} requests, {stats.as_dict()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fault-plan", default=None)
    parser.add_argument("--metrics-out", default=None)
    args = parser.parse_args(argv)
    asyncio.run(asyncio.wait_for(run(args.fault_plan, args.metrics_out), timeout=300))
    return 0


if __name__ == "__main__":
    sys.exit(main())
