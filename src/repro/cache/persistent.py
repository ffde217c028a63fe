"""The persistent L2 tier: one sqlite file that survives restarts.

One file holds every persisted namespace (``llm`` and ``sql_result``),
so a restarted process — or every shard of ``repro.cluster`` pointed at
the same path — warms up from the whole fleet's traffic. WAL
journalling keeps concurrent readers cheap; one process-level lock
serialises this process's statements.

Failure policy: **a cache must never take the service down.** A corrupt
file is quarantined (renamed ``<path>.corrupt``) at open and a fresh
store is created in its place; an sqlite error mid-flight disables the
backend for the rest of the process, turning every later ``get`` into a
miss and every ``put`` into a no-op. Both paths are exercised by
``tests/integration/test_engine_cache_determinism.py``.

Values arrive text-encoded and are budgeted by encoded size: when the
stored values exceed ``max_bytes``, the oldest-written entries go
first. The running total lives in the file itself (``cache_bytes``),
kept by triggers inside each writer's own transaction, so the budget
check costs O(1) per put and stays right when several processes share
the file.

This module is the one place in the repo allowed to import ``sqlite3``
(enforced by cedarlint rule CDL031).
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time

from .tiered import CacheStats

#: Byte budget of the values one L2 file holds.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

_COUNTER_NAMES = ("hits", "misses", "evictions")

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS cache (
        namespace  TEXT NOT NULL,
        key        TEXT NOT NULL,
        value      TEXT NOT NULL,
        created_at REAL NOT NULL,
        size_bytes INTEGER NOT NULL,
        PRIMARY KEY (namespace, key)
    )
    """,
    "CREATE INDEX IF NOT EXISTS cache_age ON cache (created_at)",
    "CREATE TABLE IF NOT EXISTS cache_bytes (total INTEGER NOT NULL)",
    """
    CREATE TRIGGER IF NOT EXISTS cache_bytes_add AFTER INSERT ON cache
    BEGIN UPDATE cache_bytes SET total = total + NEW.size_bytes; END
    """,
    """
    CREATE TRIGGER IF NOT EXISTS cache_bytes_drop AFTER DELETE ON cache
    BEGIN UPDATE cache_bytes SET total = total - OLD.size_bytes; END
    """,
    # Seed the total once (a file written before the triggers existed
    # is summed here); after that only the triggers move it.
    """
    INSERT INTO cache_bytes SELECT COALESCE(SUM(size_bytes), 0) FROM cache
    WHERE NOT EXISTS (SELECT 1 FROM cache_bytes)
    """,
)


class SqliteCacheBackend:
    """Namespace-scoped text get/put over one sqlite file."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.path = str(path)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
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
            # INSERT OR REPLACE deletes the row it replaces; only with
            # recursive triggers does that delete reach cache_bytes_drop.
            conn.execute("PRAGMA recursive_triggers=ON")
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

    # -- get / put -----------------------------------------------------------

    def _counter(self, namespace: str) -> dict[str, int]:
        counter = self._counters.get(namespace)
        if counter is None:
            counter = dict.fromkeys(_COUNTER_NAMES, 0)
            self._counters[namespace] = counter
        return counter

    def get(self, namespace: str, key: str) -> str | None:
        with self._lock:
            value = None
            if self._conn is not None:
                try:
                    row = self._conn.execute(
                        "SELECT value FROM cache "
                        "WHERE namespace = ? AND key = ?",
                        (namespace, key),
                    ).fetchone()
                    value = row[0] if row is not None else None
                except sqlite3.Error:
                    self._disable()
            self._counter(namespace)["misses" if value is None else "hits"] += 1
            return value

    def put(self, namespace: str, key: str, value: str) -> None:
        size = len(value.encode("utf-8"))
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO cache "
                    "(namespace, key, value, created_at, size_bytes) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (namespace, key, value, time.time(), size),
                )
                self._evict_over_budget()
                self._conn.commit()
            except sqlite3.Error:
                self._disable()

    def _evict_over_budget(self) -> None:
        # Runs inside the put's transaction, after its INSERT took the
        # write lock: no other writer can move the total meanwhile.
        (total,) = self._conn.execute(
            "SELECT total FROM cache_bytes"
        ).fetchone()
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

    # -- stats ---------------------------------------------------------------

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
        """Traffic counters (one namespace, or all) plus the live entry
        count. ``max_size`` is 0: this tier is budgeted in bytes."""
        with self._lock:
            counters = dict.fromkeys(_COUNTER_NAMES, 0)
            for name, counter in self._counters.items():
                if namespace is None or name == namespace:
                    for field in _COUNTER_NAMES:
                        counters[field] += counter[field]
            return CacheStats(
                hits=counters["hits"],
                misses=counters["misses"],
                evictions=counters["evictions"],
                size=self._entry_count(namespace),
            )
