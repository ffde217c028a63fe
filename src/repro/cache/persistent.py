"""The persistent L2 backend: an sqlite file that survives restarts.

One file holds every persisted namespace (plus the method-profile
observations of :mod:`repro.cache.profiles`), so a restarted worker — or
a future shard worker pointed at the same path — warms up from the whole
fleet's traffic. WAL journalling keeps concurrent readers cheap; one
process-level lock serialises this process's statements.

Failure policy: **a cache must never take the service down.** A corrupt
file is quarantined (renamed ``<path>.corrupt``) at open and a fresh
store is created in its place; an sqlite error mid-flight disables the
backend for the rest of the process, turning every subsequent ``get``
into a miss and every ``put`` into a no-op. Both paths are exercised by
``tests/integration/test_engine_cache_determinism.py``.

Values arrive already text-encoded (see :class:`~repro.cache.api.Codec`)
and are budgeted by encoded size: when the file's payload exceeds
``max_bytes``, oldest-created entries are dropped first. ``ttl_seconds``
expires entries lazily on read; expirations are counted separately from
evictions so the stats distinguish "aged out" from "squeezed out".

This module is the one place in the repo allowed to import ``sqlite3``
(enforced by cedarlint rule CDL031).
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from typing import Callable, Iterable

from .api import DEFAULT_MAX_BYTES, CacheStats

_COUNTER_NAMES = ("hits", "misses", "evictions", "expirations")

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS cache (
        namespace  TEXT NOT NULL,
        key        TEXT NOT NULL,
        value      TEXT NOT NULL,
        created_at REAL NOT NULL,
        expires_at REAL,
        size_bytes INTEGER NOT NULL,
        PRIMARY KEY (namespace, key)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS method_profiles (
        method          TEXT NOT NULL,
        recorded_at     REAL NOT NULL,
        trials          INTEGER NOT NULL,
        successes       INTEGER NOT NULL,
        cost            REAL NOT NULL,
        latency_seconds REAL NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS cache_age ON cache (created_at)",
)


class SqliteCacheBackend:
    """A :class:`~repro.cache.api.CacheBackend` over one sqlite file."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        ttl_seconds: float | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = str(path)
        self.ttl_seconds = ttl_seconds
        self.max_bytes = max_bytes
        self._clock = clock
        self._lock = threading.RLock()
        self._counters: dict[str, dict[str, int]] = {}
        self._conn: sqlite3.Connection | None = None
        try:
            self._conn = self._connect()
        except sqlite3.Error:
            # Unreadable/corrupt file: move it aside and start fresh. If
            # even a fresh file will not open (unwritable directory, ...)
            # the backend stays disabled — misses, not crashes.
            self._quarantine()
            try:
                self._conn = self._connect()
            except sqlite3.Error:
                self._conn = None

    # -- connection lifecycle ------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=5000")
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.commit()
            # Corrupt files often connect fine and fail on first real
            # read; probe now so corruption is handled at open, once.
            conn.execute("SELECT COUNT(*) FROM cache").fetchone()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _quarantine(self) -> None:
        try:
            os.replace(self.path, self.path + ".corrupt")
        except OSError:
            try:
                os.remove(self.path)
            except OSError:
                pass

    def _disable(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    @property
    def enabled(self) -> bool:
        return self._conn is not None

    def close(self) -> None:
        with self._lock:
            self._disable()

    # -- the backend protocol ------------------------------------------------

    def _counter(self, namespace: str) -> dict[str, int]:
        counter = self._counters.get(namespace)
        if counter is None:
            counter = dict.fromkeys(_COUNTER_NAMES, 0)
            self._counters[namespace] = counter
        return counter

    def get(self, namespace: str, key: str) -> str | None:
        with self._lock:
            counter = self._counter(namespace)
            if self._conn is None:
                counter["misses"] += 1
                return None
            try:
                row = self._conn.execute(
                    "SELECT value, expires_at FROM cache "
                    "WHERE namespace = ? AND key = ?",
                    (namespace, key),
                ).fetchone()
                if row is None:
                    counter["misses"] += 1
                    return None
                value, expires_at = row
                if expires_at is not None and expires_at <= self._clock():
                    self._conn.execute(
                        "DELETE FROM cache WHERE namespace = ? AND key = ?",
                        (namespace, key),
                    )
                    self._conn.commit()
                    counter["expirations"] += 1
                    counter["misses"] += 1
                    return None
                counter["hits"] += 1
                return value
            except sqlite3.Error:
                self._disable()
                counter["misses"] += 1
                return None

    def put(self, namespace: str, key: str, value: str) -> None:
        with self._lock:
            if self._conn is None:
                return
            now = self._clock()
            expires_at = (
                now + self.ttl_seconds if self.ttl_seconds is not None
                else None
            )
            size = len(value.encode("utf-8"))
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO cache "
                    "(namespace, key, value, created_at, expires_at, "
                    "size_bytes) VALUES (?, ?, ?, ?, ?, ?)",
                    (namespace, key, value, now, expires_at, size),
                )
                self._evict_over_budget()
                self._conn.commit()
            except sqlite3.Error:
                self._disable()

    def _evict_over_budget(self) -> None:
        total = self._conn.execute(
            "SELECT COALESCE(SUM(size_bytes), 0) FROM cache"
        ).fetchone()[0]
        while total > self.max_bytes:
            row = self._conn.execute(
                "SELECT namespace, key, size_bytes FROM cache "
                "ORDER BY created_at ASC, namespace ASC, key ASC LIMIT 1"
            ).fetchone()
            if row is None:
                break
            namespace, key, size = row
            self._conn.execute(
                "DELETE FROM cache WHERE namespace = ? AND key = ?",
                (namespace, key),
            )
            total -= size
            self._counter(namespace)["evictions"] += 1

    def evict(self, namespace: str | None = None) -> None:
        with self._lock:
            if self._conn is None:
                return
            try:
                if namespace is None:
                    self._conn.execute("DELETE FROM cache")
                else:
                    self._conn.execute(
                        "DELETE FROM cache WHERE namespace = ?", (namespace,)
                    )
                self._conn.commit()
            except sqlite3.Error:
                self._disable()

    def _entry_count(self, namespace: str | None) -> int:
        if self._conn is None:
            return 0
        try:
            if namespace is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM cache"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM cache WHERE namespace = ?",
                    (namespace,),
                ).fetchone()
            return int(row[0])
        except sqlite3.Error:
            self._disable()
            return 0

    def stats(self, namespace: str | None = None) -> CacheStats:
        """Traffic counters plus the live entry count. ``max_size`` is 0:
        this tier is budgeted in bytes, not entries."""
        with self._lock:
            if namespace is not None:
                counters = dict(self._counter(namespace))
            else:
                counters = dict.fromkeys(_COUNTER_NAMES, 0)
                for counter in self._counters.values():
                    for name in _COUNTER_NAMES:
                        counters[name] += counter[name]
            return CacheStats(
                hits=counters["hits"],
                misses=counters["misses"],
                evictions=counters["evictions"],
                expirations=counters["expirations"],
                size=self._entry_count(namespace),
            )

    def reset_stats(self, namespace: str | None = None) -> None:
        with self._lock:
            if namespace is None:
                self._counters.clear()
            else:
                self._counters.pop(namespace, None)

    def namespaces(self) -> list[str]:
        """Namespaces present in the file (for ``/stats`` renderings)."""
        with self._lock:
            if self._conn is None:
                return []
            try:
                rows = self._conn.execute(
                    "SELECT DISTINCT namespace FROM cache ORDER BY namespace"
                ).fetchall()
            except sqlite3.Error:
                self._disable()
                return []
            return [row[0] for row in rows]

    # -- shared-file helpers (profile store) ---------------------------------

    def run(self, sql: str, params: Iterable = ()) -> list[tuple]:
        """Execute one statement on the shared file, error-safe.

        Used by :class:`~repro.cache.profiles.ProfileStore`, which lives
        in the same file. Returns fetched rows (empty for writes); any
        sqlite error disables the backend and returns nothing, matching
        the never-crash policy of the cache side.
        """
        with self._lock:
            if self._conn is None:
                return []
            try:
                cursor = self._conn.execute(sql, tuple(params))
                rows = cursor.fetchall()
                self._conn.commit()
                return rows
            except sqlite3.Error:
                self._disable()
                return []

    def now(self) -> float:
        return self._clock()
