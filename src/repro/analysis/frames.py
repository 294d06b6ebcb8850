"""Minimal columnar dataframes for report aggregation.

The report pipeline (:mod:`repro.analysis.report`) loads thousands of
journaled job records and needs group-bys, filters and summary statistics
over them — exactly the slice of pandas the project would use, and
nothing more.  :class:`Frame` is that slice in pure python: an ordered
``column name -> list`` mapping with deterministic iteration, so every
aggregate built from one is a deterministic function of the *set* of
records it holds (records are sorted before aggregation, never by
arrival order).

Statistics live here too: :func:`mean`, :func:`quantile` (linear
interpolation, the numpy default) and :func:`bootstrap_ci` — a seeded
bootstrap percentile interval, deterministic across machines and python
versions because it draws only through ``random.Random(seed)``.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Frame",
    "bootstrap_ci",
    "mean",
    "quantile",
    "summarize",
]


class Frame:
    """An ordered, immutable-ish bag of equal-length columns.

    Construct from columns (``Frame({"a": [1, 2]})``) or records
    (:meth:`from_records`).  Row operations (:meth:`filter`,
    :meth:`sort_by`, :meth:`group_by`) return new frames; columns are
    shared copy-on-write style (lists are copied on construction, so a
    caller mutating its input cannot corrupt the frame).
    """

    def __init__(self, columns: Mapping[str, Sequence[object]] | None = None) -> None:
        cols = {name: list(values) for name, values in (columns or {}).items()}
        lengths = {len(v) for v in cols.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"columns have unequal lengths: "
                f"{ {k: len(v) for k, v in cols.items()} }"
            )
        self._cols: dict[str, list] = cols
        self._len = lengths.pop() if lengths else 0

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, object]], columns: Sequence[str] | None = None
    ) -> "Frame":
        """Build a frame from row dicts; missing keys become ``None``.

        Without an explicit ``columns`` list the union of keys is used,
        in first-seen order — deterministic for deterministic inputs.
        """
        rows = list(records)
        if columns is None:
            seen: dict[str, None] = {}
            for rec in rows:
                for key in rec:
                    seen.setdefault(key, None)
            columns = list(seen)
        data: dict[str, list] = {name: [] for name in columns}
        for rec in rows:
            for name in columns:
                data[name].append(rec.get(name))
        return cls(data)

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self._len} rows x {list(self._cols)})"

    @property
    def columns(self) -> list[str]:
        return list(self._cols)

    def column(self, name: str) -> list:
        """One column as a list (a copy — safe to mutate)."""
        return list(self._cols[name])

    def rows(self) -> Iterator[dict]:
        """Iterate rows as dicts."""
        names = list(self._cols)
        for i in range(self._len):
            yield {name: self._cols[name][i] for name in names}

    # -- row operations ------------------------------------------------

    def filter(self, pred: Callable[[dict], bool]) -> "Frame":
        """Rows for which ``pred(row_dict)`` is true, order preserved."""
        keep = [i for i, row in enumerate(self.rows()) if pred(row)]
        return Frame(
            {name: [col[i] for i in keep] for name, col in self._cols.items()}
        )

    def sort_by(self, *names: str) -> "Frame":
        """Stable sort by the named columns (``None`` sorts first).

        Values are compared by ``(type name, value)`` within each column
        so heterogeneous columns (ints mixed with strings from degraded
        records) still sort deterministically instead of raising.
        """

        def key(i: int):
            out = []
            for name in names:
                v = self._cols[name][i]
                out.append((0, "", "") if v is None else (1, type(v).__name__, v))
            return out

        order = sorted(range(self._len), key=key)
        return Frame(
            {name: [col[i] for i in order] for name, col in self._cols.items()}
        )

    def group_by(self, *names: str) -> list[tuple[tuple, "Frame"]]:
        """``(key, sub-frame)`` pairs, keys in sorted order.

        The key is always a tuple, even for a single grouping column.
        """
        buckets: dict[tuple, list[int]] = {}
        for i in range(self._len):
            key = tuple(self._cols[name][i] for name in names)
            buckets.setdefault(key, []).append(i)

        def sort_key(key: tuple):
            return [
                (0, "", "") if v is None else (1, type(v).__name__, v) for v in key
            ]

        out = []
        for key in sorted(buckets, key=sort_key):
            idx = buckets[key]
            out.append(
                (
                    key,
                    Frame(
                        {
                            name: [col[i] for i in idx]
                            for name, col in self._cols.items()
                        }
                    ),
                )
            )
        return out


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def bootstrap_ci(
    values: Sequence[float],
    stat: Callable[[Sequence[float]], float] = mean,
    n_boot: int = 800,
    alpha: float = 0.05,
    seed: int = 13,
) -> tuple[float, float]:
    """Seeded bootstrap percentile confidence interval for ``stat``.

    Deterministic: resamples are drawn from ``random.Random(seed)``, so
    the same values always yield the same interval — a requirement for
    golden-file report tests and ``--diff`` stability.  A single value
    degenerates to a zero-width interval.
    """
    if not values:
        raise ValueError("bootstrap_ci of empty sequence")
    if len(values) == 1:
        v = stat(values)
        return (v, v)
    rng = random.Random(seed)
    n = len(values)
    stats = sorted(
        stat([values[rng.randrange(n)] for _ in range(n)]) for _ in range(n_boot)
    )
    return (quantile(stats, alpha / 2.0), quantile(stats, 1.0 - alpha / 2.0))


def summarize(values: Sequence[float], ci: bool = True) -> dict:
    """The report's standard numeric summary block for one sample."""
    out: dict[str, object] = {
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "mean": round(mean(values), 4),
    }
    if ci and values:
        lo, hi = bootstrap_ci(values)
        out["ci95"] = [round(lo, 4), round(hi, 4)]
    return out
