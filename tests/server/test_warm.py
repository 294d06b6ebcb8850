"""Warm-pool tests: the bounded LRU and the compiled-program pool —
including the bit-identity guarantee that makes warming safe (pooled
state may change speed, never results)."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.machine.dispatch import WarmPool, program_pool, warm_program
from repro.retiming.optimal import minimize_cycle_period
from repro.server import parse_request
from repro.server.work import analyze_graph, graph_digest
from repro.workloads import get_workload

from .conftest import analyze_doc, make_service


class TestWarmPool:
    def test_get_or_build_builds_once(self):
        pool = WarmPool(capacity=4)
        built = []

        def build():
            built.append(1)
            return "value"

        assert pool.get_or_build("k", build) == "value"
        assert pool.get_or_build("k", build) == "value"
        assert built == [1]
        assert pool.hits == 1 and pool.misses == 1

    def test_get_or_build_pools_none_values(self):
        """A pooled ``None`` is a hit like any other value, not a miss
        that rebuilds and re-puts it."""
        pool = WarmPool(capacity=4)
        built = []

        def build():
            built.append(1)
            return None

        assert pool.get_or_build("k", build) is None
        assert pool.get_or_build("k", build) is None
        assert built == [1]
        assert pool.hits == 1 and pool.misses == 1
        assert pool.get("absent", "default") == "default"

    def test_lru_evicts_least_recently_used(self):
        pool = WarmPool(capacity=2)
        pool.put("a", 1)
        pool.put("b", 2)
        assert pool.get("a") == 1  # touch: "a" becomes most-recent
        pool.put("c", 3)  # evicts "b", the LRU
        assert pool.get("b") is None
        assert pool.get("a") == 1 and pool.get("c") == 3
        assert pool.evictions == 1
        assert len(pool) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            WarmPool(capacity=0)

    def test_stats_and_clear(self):
        pool = WarmPool(capacity=2)
        pool.put("a", 1)
        pool.get("a")
        pool.get("missing")
        stats = pool.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["capacity"] == 2
        pool.clear()
        assert len(pool) == 0

    def test_concurrent_get_or_build_is_safe(self):
        """Thread-safety smoke: racing builders never corrupt the pool and
        every thread observes the same value per key."""
        pool = WarmPool(capacity=8)
        seen: list = []

        def worker(i: int):
            v = pool.get_or_build(f"k{i % 4}", lambda: i % 4)
            seen.append((i % 4, v))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(key == value for key, value in seen)
        assert len(pool) == 4


class TestWarmPrograms:
    def test_warm_program_pools_and_precompiles(self):
        from repro.core.csr import csr_pipelined_loop

        program_pool().clear()
        g = get_workload("iir")
        _, r = minimize_cycle_period(g)
        key = ("csr-pipelined", graph_digest("iir-test"))
        built = []

        def build():
            built.append(1)
            return csr_pipelined_loop(g, r)

        p1 = warm_program(key, build)
        p2 = warm_program(key, build)
        assert p1 is p2  # the SAME object: id-keyed compile cache hits
        assert built == [1]

    def test_server_analyze_warms_across_requests(self):
        """Two analyze requests for one graph: both run as engine units
        (cache off, distinct keys), and the second reuses the pooled
        compiled program."""
        program_pool().clear()

        async def scenario():
            svc = make_service()  # no result cache: both requests execute
            await svc.start()
            a = await svc.submit(
                parse_request(analyze_doc("elliptic", n=2, verify=False))
            )
            b = await svc.submit(
                parse_request(analyze_doc("elliptic", n=3, verify=False))
            )
            await svc.drain()
            return svc, a, b

        svc, a, b = asyncio.run(scenario())
        assert a["ok"] and b["ok"]
        assert svc.engine.stats.computed == 2  # distinct keys, both ran
        stats = program_pool().stats()
        assert stats["misses"] >= 1 and stats["hits"] >= 1
        assert a["payload"]["period"] == b["payload"]["period"]

    def test_pool_eviction_does_not_change_payloads(self):
        """Force eviction between two identical analyses: byte-equal."""
        from repro.graph.serialize import to_json

        g = get_workload("iir")
        params = {
            "graph": to_json(g, indent=None),
            "trip_count": 3,
            "verify": True,
        }
        first = analyze_graph(dict(params))
        program_pool().clear()
        second = analyze_graph(dict(params))
        first.pop("compute_time")
        second.pop("compute_time")
        assert first == second
