"""Seeded traffic for the ``serve`` workload.

The request mix (shares of all requests):

* 55% ``transform`` on a fresh random DFG (any transform but ``oracle``,
  whose exact search has no useful cost bound), factor 2 or 3;
* 15% ``analyze`` on a fresh random DFG;
* 20% repeats of an earlier fresh request, answered from the cache;
* 10% immediate duplicates of the previous request, sent at the same
  instant so the server's single-flight dedup joins them.

These shares and the 4-24 node graph sizes are an assumption: no recorded
request log backs them.  The repeat and duplicate shares set the server's
cache hit ratio and dedup count outright, so a cache or single-flight gain
measured on ``serve`` says nothing about real traffic until the shares
are derived from a committed request trace.

Graphs are built here, not by the program under test, so a change to the
program's own generators cannot change the inputs.

Two loops share one ``send`` coroutine.  The open loop sends on a fixed
schedule whether or not earlier requests have finished, and times every
request from when it was *due*: a stalled response delays the requests
queued behind it, and that wait is counted.  The closed loop keeps a fixed
number of requests outstanding and measures completions per second.  Both
hold at most ``max_conns`` connections at once.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass

#: Every transform the server accepts except ``oracle``.
TRANSFORMS = (
    "original",
    "pipelined",
    "csr-pipelined",
    "unfolded",
    "csr-unfolded",
    "retime-unfold",
    "csr-retime-unfold",
    "csr-retime-unfold-periter",
    "unfold-retime",
    "csr-unfold-retime",
    "orders",
)

#: (tag, share of all requests), in the order the draw tests them.
MIX = (("duplicate", 0.10), ("repeat", 0.20), ("analyze", 0.15), ("transform", 0.55))


@dataclass(frozen=True)
class Item:
    tag: str  # one of the MIX tags
    doc: dict

    @property
    def body(self) -> bytes:
        return canonical(self.doc)


@dataclass
class Sample:
    item: Item
    due: float  # when the open loop meant to send it (start, in a closed loop)
    start: float  # when a connection was free and it was sent
    end: float
    status: int  # 0 when the connection itself failed
    body: bytes

    @property
    def latency(self) -> float:
        return self.end - self.due


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def random_dfg(rng: random.Random, name: str) -> dict:
    """A legal cyclic DFG of 4-24 unit-time nodes, as repro-dfg-v1 JSON.

    A chain of forward edges keeps it connected; forward edges may carry
    no delay, while back edges and self loops carry at least one, so the
    zero-delay subgraph stays acyclic.
    """
    n = rng.randint(4, 24)
    nodes = [
        {"name": f"n{i}", "time": 1, "op": rng.choice(("add", "mul", "sub")), "imm": rng.randint(-4, 4)}
        for i in range(n)
    ]
    edges: list[dict] = []
    keys: dict[tuple[int, int], int] = {}

    def add(src: int, dst: int, delay: int) -> None:
        key = keys.get((src, dst), 0)
        keys[(src, dst)] = key + 1
        edges.append({"src": f"n{src}", "dst": f"n{dst}", "delay": delay, "key": key})

    for i in range(1, n):
        add(i - 1, i, rng.randint(0, 3))
    for _ in range(rng.randint(1, 5)):
        i, j = rng.randrange(n), rng.randrange(n)
        add(i, j, rng.randint(0, 3) if i < j else rng.randint(1, 3))
    return {"format": "repro-dfg-v1", "name": name, "nodes": nodes, "edges": edges}


def request_stream(seed: int, label: str):
    """Endless, deterministic request items for one seed and session label."""
    rng = random.Random(f"serve:{label}:{seed}")
    fresh: list[Item] = []
    prev: Item | None = None
    i = 0
    while True:
        r = rng.random()
        if prev is not None and r < 0.10:
            item = Item("duplicate", prev.doc)
        elif fresh and r < 0.30:
            item = Item("repeat", rng.choice(fresh).doc)
        else:
            i += 1
            graph = random_dfg(rng, f"{label}{seed}-{i}")
            if r < 0.45:
                item = Item("analyze", {"kind": "analyze", "params": {"graph": graph}})
            else:
                item = Item(
                    "transform",
                    {
                        "kind": "transform",
                        "params": {
                            "graph": graph,
                            "transform": rng.choice(TRANSFORMS),
                            "factor": rng.choice((2, 3)),
                            "trip_count": rng.choice((7, 12)),
                        },
                    },
                )
            fresh.append(item)
        prev = item
        yield item


def open_schedule(items: list[Item], rate: float) -> list[tuple[float, Item]]:
    """``(due offset, item)`` at ``rate`` per second; a duplicate is due
    together with the request it duplicates."""
    out: list[tuple[float, Item]] = []
    for i, item in enumerate(items):
        due = out[-1][0] if item.tag == "duplicate" and out else i / rate
        out.append((due, item))
    return out


async def open_loop(schedule, send, *, clock, sleep, max_conns: int = 2) -> list[Sample]:
    """Send each item when due; latency runs from the due time."""
    slots = asyncio.Semaphore(max_conns)
    samples: list[Sample | None] = [None] * len(schedule)
    t0 = clock()

    async def one(i: int, due: float, item: Item) -> None:
        async with slots:
            start = clock()
            status, body = await send(item)
            samples[i] = Sample(item, due, start, clock(), status, body)

    tasks = []
    for i, (offset, item) in enumerate(schedule):
        due = t0 + offset
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        tasks.append(asyncio.ensure_future(one(i, due, item)))
    await asyncio.gather(*tasks)
    return samples


async def closed_loop(items, send, *, clock, duration: float, conns: int = 2) -> tuple[list[Sample], float]:
    """``conns`` clients, each sending its next item as soon as the last
    returns, until ``duration`` has passed; returns the samples and the
    elapsed time."""
    t0 = clock()
    deadline = t0 + duration
    samples: list[Sample] = []

    async def client() -> None:
        while clock() < deadline:
            item = next(items)
            start = clock()
            status, body = await send(item)
            samples.append(Sample(item, start, start, clock(), status, body))

    await asyncio.gather(*(client() for _ in range(conns)))
    return samples, clock() - t0


async def http_post(host: str, port: int, body: bytes, timeout: float = 30.0) -> tuple[int, bytes]:
    """``POST /v1/request`` on its own connection (the server closes after
    each); status 0 when the connection fails or ``timeout`` passes."""
    try:
        return await asyncio.wait_for(_exchange(host, port, body), timeout)
    except (OSError, asyncio.TimeoutError):  # refused, reset or timed out
        return 0, b""


async def _exchange(host: str, port: int, body: bytes) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"POST /v1/request HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    try:
        return int(status_line.split()[1]), payload
    except (IndexError, ValueError):
        return 0, raw
