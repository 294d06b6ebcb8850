"""Server-vs-CLI differential guarantees, pinned byte for byte.

The server is a transport, not a second implementation: a sweep
requested over the server must produce the *byte-identical* summary that
``python -m repro sweep`` prints, and a transform request must share
cache entries (and therefore payload bytes) with the CLI sweep cells —
both directions, server-first and CLI-first.

Under a cache fault plan a hit can be impossible by design:
``tests/data/faultplans/cache-corruption.json`` faults the first store
and the first read of every key.  Where a cache fault fired, the tests
therefore check the recomputed miss instead: the payload bytes still
equal the CLI's, and every recomputed unit is accounted for by a fault
in the caches' ``discarded``/``write_failures`` counters.
"""

from __future__ import annotations

import asyncio
import re

from repro.__main__ import main as cli_main
from repro.runner.difftest import _graph_for_seed
from repro.runner.jobs import execute_job
from repro.server import canonical_bytes, parse_request

from .conftest import make_service

SWEEP = {"graphs": 2, "seed": 0, "factors": [2, 3], "max_nodes": 6}


def _cli_sweep(tmp_path, capsys, *extra: str) -> str:
    rc = cli_main(
        [
            "sweep",
            "--graphs",
            str(SWEEP["graphs"]),
            "--seed",
            str(SWEEP["seed"]),
            "--factors",
            *[str(f) for f in SWEEP["factors"]],
            "--max-nodes",
            str(SWEEP["max_nodes"]),
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ]
    )
    assert rc == 0
    return capsys.readouterr().out


async def _server_sweep(tmp_path):
    svc = make_service(cache_dir=tmp_path / "cache")
    await svc.start()
    env = await svc.submit(parse_request({"kind": "sweep", "params": SWEEP}))
    await svc.drain()
    return svc, env


def _stat(out: str, pattern: str) -> int:
    """One number from a CLI ``--stats`` block."""
    match = re.search(pattern, out)
    assert match, f"no {pattern!r} in the --stats output"
    return int(match[1])


def _cache_faults(cli_outs=(), services=()) -> int:
    """Cache faults seen by ``--stats`` CLI runs and by request services:
    corrupt reads quarantined plus failed stores.  Zero unless a fault
    plan is active."""
    total = 0
    for out in cli_outs:
        total += _stat(out, r"(\d+) corrupt quarantined")
        total += _stat(out, r"(\d+) write failures")
    for svc in services:
        total += svc.engine.cache.stats.discarded
        total += svc.engine.cache.stats.write_failures
    return total


def test_server_sweep_summary_is_byte_identical_to_cli(tmp_path, capsys):
    cli_out = _cli_sweep(tmp_path, capsys)
    _svc, env = asyncio.run(_server_sweep(tmp_path))
    assert env["ok"]
    # The CLI prints the summary plus a trailing newline; the server
    # carries the identical bytes in the payload.
    assert env["payload"]["summary"] + "\n" == cli_out
    assert env["payload"]["graphs"] == SWEEP["graphs"]
    assert env["payload"]["failures"] == []


def test_server_sweep_rides_the_cli_populated_cache(tmp_path, capsys):
    """CLI first: the server's sweep cells must all be cache hits —
    proof the two paths compute identical keys AND identical payloads
    (a changed payload would still hit, so equality is asserted too)."""
    cli_out = _cli_sweep(tmp_path, capsys, "--stats")
    svc, env = asyncio.run(_server_sweep(tmp_path))
    assert env["ok"]
    assert cli_out.startswith(env["payload"]["summary"] + "\n")
    # A second server run serves the whole *sweep* from its own cache
    # entry, byte-identically.
    again_svc, again = asyncio.run(_server_sweep(tmp_path))
    assert canonical_bytes(again["payload"]) == canonical_bytes(env["payload"])
    recomputed = svc.engine.stats.computed + again_svc.engine.stats.computed
    faults = _cache_faults([cli_out], [svc, again_svc])
    if faults == 0:
        assert recomputed == 0
        assert again["cached"]
    else:
        assert 0 < recomputed <= faults


def test_cli_sweep_rides_the_server_populated_cache(tmp_path, capsys):
    """Server first: the CLI sweep over the same cache directory recomputes
    nothing — the reverse direction of key compatibility."""
    _svc, env = asyncio.run(_server_sweep(tmp_path))
    cli_out = _cli_sweep(tmp_path, capsys, "--stats")
    assert "PASS" in cli_out
    assert cli_out.startswith(env["payload"]["summary"] + "\n")
    # Every job cell was served from the server-written cache: a third
    # run with --stats shows zero computed units.
    rc = cli_main(
        [
            "sweep",
            "--graphs",
            str(SWEEP["graphs"]),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--stats",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    computed = _stat(out, r"(\d+) computed")
    faults = _cache_faults([cli_out, out])
    if faults == 0:
        assert computed == 0
    else:
        assert 0 < computed <= faults


def test_transform_request_matches_a_sweep_cell(tmp_path, capsys):
    """One server transform request addresses the exact cache entry a CLI
    sweep cell wrote: served cached, payload equal to direct execution."""
    cli_out = _cli_sweep(tmp_path, capsys, "--stats")
    graph_json = _graph_for_seed(SWEEP["seed"], SWEEP["max_nodes"], 5)
    doc = {
        "kind": "transform",
        "params": {
            "graph": graph_json,
            "transform": "csr-pipelined",
            "factor": 1,
            "trip_count": 7,
            "verify": True,
        },
    }

    async def scenario():
        svc = make_service(cache_dir=tmp_path / "cache")
        await svc.start()
        env = await svc.submit(parse_request(doc))
        await svc.drain()
        return svc, env

    svc, env = asyncio.run(scenario())
    assert env["ok"]
    if _cache_faults([cli_out], [svc]) == 0:
        assert env["cached"], "server transform missed the CLI sweep's cache entry"
        assert svc.engine.stats.computed == 0
    else:
        assert svc.engine.stats.computed == 1  # the faulted entry, recomputed

    # And the cached payload is exactly what direct execution computes.
    req = parse_request(doc)
    direct = execute_job(dict(req.params))
    direct.pop("compute_time", None)
    assert canonical_bytes(env["payload"]) == canonical_bytes(direct)


def test_oracle_request_matches_direct_execution(tmp_path):
    doc = {"kind": "oracle", "params": {"workload": "iir"}}

    async def scenario():
        svc = make_service(cache_dir=tmp_path / "cache")
        await svc.start()
        env = await svc.submit(parse_request(doc))
        await svc.drain()
        return env

    env = asyncio.run(scenario())
    assert env["ok"]
    req = parse_request(doc)
    direct = execute_job(dict(req.params))
    direct.pop("compute_time", None)
    assert canonical_bytes(env["payload"]) == canonical_bytes(direct)
    assert env["payload"]["proven"] is True
