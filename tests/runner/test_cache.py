"""Property-based tests for the content-addressed result cache.

The three contracts the rest of the engine leans on:

* same inputs -> cache hit returning the *identical* payload (and hence
  identical reconstructed ``VMResult`` numbers);
* any mutation of the graph or the parameters -> different key -> miss;
* a corrupted entry is discarded and recomputed — never returned.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_dfg
from repro.graph.serialize import to_json
from repro.runner import (
    QUARANTINE_DIR,
    CacheStats,
    ExperimentEngine,
    Job,
    NullCache,
    ResultCache,
    cache_key,
    code_version,
    execute_job,
)


def _random_job(seed: int, transform: str = "csr-pipelined") -> Job:
    rng = random.Random(seed)
    g = random_dfg(rng, num_nodes=rng.randint(1, 5), extra_edges=rng.randint(0, 4))
    return Job(
        transform=transform,
        graph_json=to_json(g, indent=None),
        factor=2,
        trip_count=rng.randint(0, 10),
    )


class TestCacheKey:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_key_is_deterministic(self, seed):
        job = _random_job(seed)
        assert cache_key("job", job.to_params()) == cache_key("job", job.to_params())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mutated_params_change_the_key(self, seed):
        job = _random_job(seed)
        base = cache_key("job", job.to_params())
        for mutated in (
            Job(**{**_kwargs(job), "trip_count": job.trip_count + 1}),
            Job(**{**_kwargs(job), "factor": job.factor + 1}),
            Job(**{**_kwargs(job), "transform": "csr-unfolded"}),
            Job(**{**_kwargs(job), "verify": not job.verify}),
        ):
            assert cache_key("job", mutated.to_params()) != base
        assert cache_key("other-kind", job.to_params()) != base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mutated_graph_changes_the_key(self, seed):
        job = _random_job(seed)
        doc = json.loads(job.graph_json)
        assume(doc["edges"])  # a 1-node graph can come out edgeless
        doc["edges"][0]["delay"] += 1
        mutated = Job(**{**_kwargs(job), "graph_json": json.dumps(doc)})
        assert cache_key("job", mutated.to_params()) != cache_key("job", job.to_params())

    def test_key_includes_code_version(self, monkeypatch):
        job = _random_job(7)
        base = cache_key("job", job.to_params())
        monkeypatch.setattr("repro.runner.cache._code_version", "different!")
        assert cache_key("job", job.to_params()) != base


def _kwargs(job: Job) -> dict:
    return {
        "transform": job.transform,
        "graph_json": job.graph_json,
        "factor": job.factor,
        "trip_count": job.trip_count,
        "verify": job.verify,
        "trace": job.trace,
    }


class TestCacheStore:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_same_inputs_hit_with_identical_payload(self, seed):
        # A fresh tmp dir per example (hypothesis reuses the function body).
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            cache = ResultCache(d)
            job = _random_job(seed)
            key = cache_key("job", job.to_params())
            assert cache.get(key) is None
            first = execute_job(job.to_params())
            assert cache.put_safe(key, first) is True
            assert cache.stats.misses == 1 and cache.stats.puts == 1
            second = cache.get(key)
            assert cache.stats.hits == 1
            first.pop("compute_time", None)
            second.pop("compute_time", None)
            assert second == first  # identical VM numbers, sizes, flags

    def test_mutated_dfg_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _random_job(3)
        cache.put(cache_key("job", job.to_params()), {"ok": True, "marker": 1})
        doc = json.loads(job.graph_json)
        doc["nodes"][0]["imm"] += 1
        mutated = Job(**{**_kwargs(job), "graph_json": json.dumps(doc)})
        assert cache.get(cache_key("job", mutated.to_params())) is None

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "not-json", "wrong-key", "wrong-sha", "empty"],
    )
    def test_corrupted_entry_discarded_and_recomputed(self, tmp_path, corruption):
        cache = ResultCache(tmp_path)
        job = _random_job(11)
        key = cache_key("job", job.to_params())
        good = execute_job(job.to_params())
        good.pop("compute_time", None)
        cache.put(key, good)
        path = cache._path(key)

        raw = path.read_text()
        if corruption == "truncate":
            path.write_text(raw[: len(raw) // 2])
        elif corruption == "garbage":
            path.write_text(raw.replace('"ok"', '"ko"'))
        elif corruption == "not-json":
            path.write_text("}{ definitely not json")
        elif corruption == "wrong-key":
            doc = json.loads(raw)
            doc["key"] = "0" * 64
            path.write_text(json.dumps(doc))
        elif corruption == "wrong-sha":
            doc = json.loads(raw)
            doc["payload"]["executed"] = 10**9  # tampered result
            path.write_text(json.dumps(doc))
        elif corruption == "empty":
            path.write_text("")

        # The corrupted payload is never returned...
        assert cache.get(key) is None
        assert cache.stats.discarded == 1
        assert not path.exists()
        # ...the next lookup is a plain miss, and a recompute restores the
        # real result.
        assert cache.get(key) is None
        assert cache.stats.discarded == 1
        again = execute_job(job.to_params())
        again.pop("compute_time", None)
        assert again == good
        assert cache.put_safe(key, again) is True
        assert cache.get(key) == good

    def test_binary_garbage_entry_is_quarantined_not_fatal(self, tmp_path):
        """A cache file holding undecodable bytes (torn write, disk rot)
        must behave like any other corruption: miss + quarantine, never a
        UnicodeDecodeError escaping ``get``."""
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"ok": True, "x": 1})
        path = cache._path(key)
        path.write_bytes(b"\xff\xfe\x00garbage\x80\x81")

        assert cache.get(key) is None  # regression: used to raise
        assert cache.stats.discarded == 1
        assert cache.stats.misses == 1
        assert not path.exists()
        quarantined = cache.quarantined_entries()
        assert [p.name for p in quarantined] == [f"{key}.corrupt"]
        assert quarantined[0].read_bytes().startswith(b"\xff\xfe")

    def test_quarantine_preserves_evidence_and_live_counts(self, tmp_path):
        """Quarantined files leave the live cache (len, clear) but keep
        their bytes for post-mortems until clear() purges them."""
        cache = ResultCache(tmp_path)
        good_key, bad_key = "ab" * 32, "ba" * 32
        cache.put(good_key, {"ok": True})
        cache.put(bad_key, {"ok": True})
        cache._path(bad_key).write_text("}{ not json")

        assert cache.get(bad_key) is None
        assert len(cache) == 1  # the corrupt entry is out of the live set
        assert cache.get(good_key) == {"ok": True}
        assert len(cache.quarantined_entries()) == 1
        # clear() counts only the live entry but purges quarantine too.
        assert cache.clear() == 1
        assert cache.quarantined_entries() == []

    def test_atomic_envelope_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"ok": True, "nested": {"a": [1, 2, 3]}, "pi": 3.5}
        cache.put("ab" * 32, payload)
        assert cache.get("ab" * 32) == payload
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get("ab" * 32) is None

    def test_failures_are_not_cached_by_engine(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        bad = Job(transform="unfolded", workload="iir", factor=0, trip_count=5)
        first = engine.run_jobs([bad])[0]
        assert not first.ok and "factor" in first.error
        assert len(engine.cache) == 0
        second = engine.run_jobs([bad])[0]
        assert not second.cached  # recomputed, not replayed

    def test_null_cache_never_stores(self):
        cache = NullCache()
        cache.put("k", {"x": 1})
        assert cache.get("k") is None
        assert cache.put_safe("k", {"x": 2}) is True  # a no-op never fails
        assert cache.get("k") is None
        assert cache.stats.misses == 2 and cache.stats.puts == 0
        assert len(cache) == 0

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestQuarantineCap:
    """The ``.quarantine/`` directory is bounded: beyond ``quarantine_cap``
    files the oldest are pruned, so a rotting disk on a long campaign
    cannot grow it without limit."""

    def _seed_quarantine(self, tmp_path, n: int) -> None:
        import os

        qdir = tmp_path / QUARANTINE_DIR
        qdir.mkdir()
        for i in range(n):
            f = qdir / (f"{i:02d}" * 32 + ".corrupt")
            f.write_text("old corpse")
            os.utime(f, (1000 + i, 1000 + i))  # strictly increasing ages

    def test_prunes_oldest_beyond_cap(self, tmp_path):
        cache = ResultCache(tmp_path, quarantine_cap=3)
        self._seed_quarantine(tmp_path, 5)
        key = "ff" * 32
        cache.put(key, {"ok": True})
        cache._path(key).write_text("}{ not json")
        assert cache.get(key) is None  # quarantines a 6th file

        survivors = [p.name for p in cache.quarantined_entries()]
        assert len(survivors) == 3
        # The three OLDEST corpses went; the fresh one always survives.
        assert f"{key}.corrupt" in survivors
        assert ("00" * 32 + ".corrupt") not in survivors
        assert ("04" * 32 + ".corrupt") in survivors
        assert cache.stats.quarantine_pruned == 3

    def test_cap_zero_keeps_no_evidence(self, tmp_path):
        cache = ResultCache(tmp_path, quarantine_cap=0)
        key = "ab" * 32
        cache.put(key, {"ok": True})
        cache._path(key).write_text("}{ not json")
        assert cache.get(key) is None
        assert cache.quarantined_entries() == []
        assert cache.stats.quarantine_pruned == 1

    def test_under_cap_nothing_pruned(self, tmp_path):
        cache = ResultCache(tmp_path)  # default cap: 100
        key = "cd" * 32
        cache.put(key, {"ok": True})
        cache._path(key).write_text("}{ not json")
        assert cache.get(key) is None
        assert len(cache.quarantined_entries()) == 1
        assert cache.stats.quarantine_pruned == 0

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="quarantine_cap"):
            ResultCache(tmp_path, quarantine_cap=-1)

    def test_stats_merge_carries_pruned_counter(self):
        total = CacheStats()
        total.merge(CacheStats(quarantine_pruned=2))
        total.merge({"quarantine_pruned": 3})
        assert total.quarantine_pruned == 5
        assert total.as_dict()["quarantine_pruned"] == 5
