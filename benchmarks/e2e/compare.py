#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the lines ``run.py --out`` appends: any number of seeds,
workloads and passes.  For every workload and metric it prints both sides'
median and quartiles and a verdict for B against A:

* ``worse`` / ``better``: B's median is off A's by more than the metric's
  bound in BENCHMARK.json, in that direction;
* ``unresolved``: a side's quartile spread is wider than the bound, so the
  runs cannot tell -- unless every B run reads better (or worse) than
  every A run;
* ``same``: otherwise.

Per-layer metrics have no bound; their change is printed as ``info``.
Exits 1 when any end-to-end verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(path: str) -> dict[tuple[str, str], list[float]]:
    groups: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                groups.setdefault((record["workload"], name), []).append(metric["value"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1  # positive = B worse
    med_a, med_b = statistics.median(a), statistics.median(b)
    if max(spread(a), spread(b)) > bound:
        if all(sign * (x - y) < 0 for x in b for y in a):
            return "better"
        if all(sign * (x - y) > 0 for x in b for y in a):
            return "worse"
        return "unresolved"
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict) -> list[tuple]:
    """``(workload, metric, A quartiles, n, B quartiles, n, change, bound, verdict)`` rows."""
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name, m in metrics.items():
            key = (workload, name)
            if key not in a or key not in b:
                continue
            qa, qb = quartiles(a[key]), quartiles(b[key])
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            bound = m.get("bound")
            judged = verdict(a[key], b[key], bound, m["better"]) if bound is not None else "info"
            rows.append((workload, name, qa, len(a[key]), qb, len(b[key]), change, bound, judged))
    return rows


def _fmt(q: tuple[float, float, float], n: int) -> str:
    return f"{q[1]:10.4g} [{q[0]:.4g}, {q[2]:.4g}] n={n}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':17s} {'metric':28s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    for workload, name, qa, na, qb, nb, change, bound, judged in rows:
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:17s} {name:28s} {_fmt(qa, na):>34s} {_fmt(qb, nb):>34s} {100 * change:7.1f}% {bound_text:>6s}  {judged}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
