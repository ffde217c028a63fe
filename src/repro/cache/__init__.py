"""One cache class, one key, one optional file.

* :class:`TieredCache` — every cache in the repo: an in-process LRU,
  optionally backed by the persistent tier (see :mod:`.tiered`);
* :class:`SqliteCacheBackend` — that tier: one sqlite file shared by a
  process's ``llm`` and ``sql_result`` caches, and by every shard
  pointed at the same path (see :mod:`.persistent`);
* :func:`stable_key` — how a cache key becomes an L2 key;
* :class:`CacheStats` — the one stats shape every cache reports.

A verifier or service gets its file from one setting, ``cache_db``
(``VerifierConfig``, ``ServiceConfig``, ``RouterConfig`` and the
``--cache-db`` flag).
"""

from .persistent import DEFAULT_MAX_BYTES, SqliteCacheBackend
from .tiered import CacheStats, TieredCache, stable_key

__all__ = [
    "DEFAULT_MAX_BYTES",
    "CacheStats",
    "SqliteCacheBackend",
    "TieredCache",
    "stable_key",
]
