"""Content-addressed on-disk result cache for the experiment engine.

Every cacheable computation is identified by a *stable* key: the SHA-256 of
a canonical JSON rendering of (kind, parameters, code version).  Parameters
always include the serialized DFG when a graph is involved, so two
workloads that happen to share a name but differ structurally can never
collide.  The code version is a digest of the ``repro`` package *sources*,
so any edit to the library silently invalidates every entry — a cache hit
is therefore always a replay of byte-identical code on byte-identical
input.

Entries are JSON envelopes ``{"key", "sha", "payload"}`` written atomically
(temp file + rename).  A corrupted entry — truncated file, undecodable
bytes, invalid JSON, key mismatch, or payload checksum mismatch — is
*quarantined and recomputed*, never returned: :meth:`ResultCache.get`
moves it into ``<root>/.quarantine/`` (for post-mortems) and reports a
miss.  The :mod:`~repro.runner.resilience` fault sites ``cache.read``
(corrupt the raw bytes before validation) and ``cache.write`` (crash
between the temp write and the rename) are threaded through here; both
hooks are single ``is None`` checks when no fault plan is active.

Entries fan out over 256 ``<key[:2]>/`` subdirectories, so no single
directory grows with a big sweep or a busy server.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from ..observability import count
from . import resilience

__all__ = [
    "CACHE_SCHEMA",
    "QUARANTINE_CAP",
    "QUARANTINE_DIR",
    "CacheStats",
    "NullCache",
    "ResultCache",
    "cache_key",
    "code_version",
    "default_cache_dir",
]

#: Bump to invalidate every existing cache entry on a format change.
CACHE_SCHEMA = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory (under the cache root) holding quarantined corrupt
#: entries.  The ``.corrupt`` suffix keeps them out of ``*.json`` globs,
#: so ``len(cache)`` and :meth:`ResultCache.clear` see live entries only.
QUARANTINE_DIR = ".quarantine"

#: Default cap on quarantined files kept for post-mortems; beyond it the
#: oldest are pruned so a rotting disk cannot grow the directory forever.
QUARANTINE_CAP = 100

_code_version: str | None = None


def code_version() -> str:
    """Digest of every ``.py`` source file in the ``repro`` package.

    Computed once per process.  Keying cache entries on this digest means
    *any* source change — not just version bumps — invalidates the cache,
    so stale results can never survive a refactor.
    """
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version = h.hexdigest()[:16]
    return _code_version


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the CWD."""
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path(".repro-cache")


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(kind: str, params: dict) -> str:
    """Stable content address of one computation.

    ``params`` must be a JSON-serializable dict fully determining the
    result (include the serialized DFG, never just a workload name).
    """
    doc = {
        "schema": CACHE_SCHEMA,
        "code": code_version(),
        "kind": kind,
        "params": params,
    }
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/corruption counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    discarded: int = 0  # corrupt entries quarantined on read
    write_failures: int = 0  # stores that raised (crash-injected or real)
    quarantine_pruned: int = 0  # old quarantined files evicted by the cap

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "discarded": self.discarded,
            "write_failures": self.write_failures,
            "quarantine_pruned": self.quarantine_pruned,
        }

    def merge(self, delta: "CacheStats | dict") -> None:
        """Add another instance's counters (worker-process deltas)."""
        if isinstance(delta, CacheStats):
            delta = delta.as_dict()
        self.hits += delta.get("hits", 0)
        self.misses += delta.get("misses", 0)
        self.puts += delta.get("puts", 0)
        self.discarded += delta.get("discarded", 0)
        self.write_failures += delta.get("write_failures", 0)
        self.quarantine_pruned += delta.get("quarantine_pruned", 0)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Content-addressed JSON store under one directory.

    Payloads must be JSON-serializable; they come back exactly as
    ``json.loads`` would render them (tuples become lists), so callers
    should treat payloads as plain JSON data.
    """

    def __init__(
        self,
        root: Path | str | None = None,
        quarantine_cap: int = QUARANTINE_CAP,
    ) -> None:
        if quarantine_cap < 0:
            raise ValueError(f"quarantine_cap must be >= 0, got {quarantine_cap}")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.quarantine_cap = quarantine_cap
        self.stats = CacheStats()

    # -- paths ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small on big sweeps.
        return self.root / key[:2] / f"{key}.json"

    # -- core API ------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Payload stored under ``key``; ``None`` (and a miss) otherwise.

        A corrupted entry — including one holding undecodable bytes — is
        quarantined and counted in ``stats.discarded``; it is never
        returned and never crashes the read.
        """
        path = self._path(key)
        try:
            raw: str | None = path.read_text()
        except OSError:  # absent or unreadable: a plain miss
            return self._miss()
        except UnicodeDecodeError:
            # Binary garbage (torn write, disk rot): the entry exists but
            # cannot even be decoded — treat it as corrupt, not fatal.
            raw = None
        if raw is not None:
            raw = resilience.corrupt_point(key, raw)
        try:
            if raw is None:
                raise ValueError("undecodable entry")
            doc = json.loads(raw)
            if not isinstance(doc, dict):
                raise ValueError("malformed envelope")
            if doc["key"] != key:
                raise ValueError("key mismatch")
            payload = doc["payload"]
            if not isinstance(payload, dict):
                raise ValueError("malformed payload")
            sha = hashlib.sha256(_canonical(payload).encode()).hexdigest()
            if doc["sha"] != sha:
                raise ValueError("payload checksum mismatch")
        except (ValueError, KeyError, TypeError):
            self.stats.discarded += 1
            count("cache.corrupt_discarded")
            self._quarantine(path, key)
            return self._miss()
        self.stats.hits += 1
        count("cache.hits")
        return payload

    def _miss(self) -> None:
        self.stats.misses += 1
        count("cache.misses")
        return None

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``.

        Crash-safe: the envelope lands in a temp file first and is moved
        over the final path with one atomic rename, so a reader can never
        observe a half-written entry — a writer dying mid-store (the
        ``cache.write`` fault site) leaves no live entry at all.
        """
        body = _canonical(payload)
        doc = {
            "key": key,
            "sha": hashlib.sha256(body.encode()).hexdigest(),
            "payload": payload,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            resilience.fault_point("cache.write", key)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        count("cache.puts")

    def put_safe(self, key: str, payload: dict) -> bool:
        """:meth:`put` that degrades a failed store into a counter.

        The engine uses this: a result that cannot be persisted (full
        disk, injected writer crash) is still *returned* — the job
        succeeded — and merely recomputed next run.
        """
        try:
            self.put(key, payload)
            return True
        except Exception:
            self.stats.write_failures += 1
            count("cache.write_failures")
            return False

    # -- maintenance ---------------------------------------------------

    def _quarantine(self, path: Path, key: str) -> None:
        """Move a corrupt entry to ``<root>/.quarantine/<key>.corrupt``.

        Keeping the bytes (instead of unlinking) preserves the evidence
        for post-mortems; either way the entry leaves the live cache.
        The directory is bounded by ``quarantine_cap``: beyond it the
        oldest files are pruned (``stats.quarantine_pruned``) so a run
        against a rotting disk cannot grow it without limit.
        """
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / f"{key}.corrupt")
            count("cache.quarantined")
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            return
        self._prune_quarantine()

    def _prune_quarantine(self) -> None:
        entries = self.quarantined_entries()
        for victim in entries[: max(0, len(entries) - self.quarantine_cap)]:
            try:
                victim.unlink()
            except OSError:
                continue
            self.stats.quarantine_pruned += 1
            count("cache.quarantined_pruned")

    def quarantined_entries(self) -> list[Path]:
        """Quarantined corrupt-entry files, oldest first (mtime, then name)."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.exists():
            return []

        def age(path: Path) -> tuple:
            try:
                return (path.stat().st_mtime, path.name)
            except OSError:
                return (0.0, path.name)

        return sorted(qdir.glob("*.corrupt"), key=age)

    def clear(self) -> int:
        """Delete every live entry; returns the number removed.

        Quarantined files are purged too but not counted — they were
        already removed from the cache when they were quarantined.
        """
        removed = 0
        if self.root.exists():
            for path in self.root.rglob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.quarantined_entries():
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))


class NullCache:
    """Cache interface that never stores anything (``--no-cache``)."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    def get(self, key: str) -> dict | None:
        self.stats.misses += 1
        count("cache.misses")
        return None

    def put(self, key: str, payload: dict) -> None:
        pass

    def put_safe(self, key: str, payload: dict) -> bool:
        return True

    def clear(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0
