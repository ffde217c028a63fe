"""One cache class: an in-process LRU, optionally backed by one file.

Every cache in the repo is a :class:`TieredCache` — the LLM response
cache, the plan and query-result caches, the analyzer memo and the
prompt-schema memo. The facades (``LLMCache``, ``PlanCache``,
``QueryResultCache``) only add a namespace and, where the values
persist, a codec.

* **L1** is an ``OrderedDict`` LRU of live objects behind one lock, with
  one set of counters.
* **L2** (optional) is a shared
  :class:`~repro.cache.persistent.SqliteCacheBackend`. On an L1 miss the
  cache probes it under ``stable_key(namespace, *key)``, decodes a hit
  through the codec and promotes it into L1; a put writes both tiers.

One key serves both tiers: keys are tuples whose parts mean the same in
every process and render as JSON. The SQL caches key on
:meth:`~repro.sqlengine.table.Database.content_fingerprint`, the LLM
cache on ``(model, prompt, temperature, repr(seed))``.

Determinism contract: a hit from either tier equals what the original
computation produced, so cold-cache and warm-cache runs render
byte-identical reports (``tests/integration/
test_engine_cache_determinism.py``).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - persistent imports CacheStats
    from .persistent import SqliteCacheBackend


@dataclass(frozen=True)
class CacheStats:
    """Counters describing one cache's traffic (every cache, one shape)."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over cacheable lookups (bypasses excluded)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly rendering (reports, ``/v1/stats``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "size": self.size,
            "max_size": self.max_size,
            "hit_rate": round(self.hit_rate, 4),
        }


def stable_key(namespace: str, *parts: object) -> str:
    """A process-independent cache key: sha256 over the JSON'd parts.

    Every part must render deterministically — strings, numbers, bools,
    None, or nested lists thereof; anything else raises ``TypeError``.
    """
    payload = json.dumps(
        [namespace, *parts], separators=(",", ":"), ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TieredCache:
    """One namespace's cache: an LRU of live values plus an optional L2.

    Caches never store None: ``get`` returns None on a miss. ``stats()``
    is what callers experienced (a hit from either tier is a hit);
    :meth:`tier_stats` splits it per tier, so an L2 hit shows as an L1
    miss there.

    An L2 needs a ``codec`` with ``encode(value) -> str`` and
    ``decode(text) -> value`` whose round trip is exact in every field
    the rest of the system can observe: the determinism contract rides
    on it. The shipped codecs are plain ``json`` over dataclass fields,
    whose float rendering round-trips exactly.
    """

    def __init__(
        self,
        namespace: str,
        max_entries: int,
        *,
        l2: SqliteCacheBackend | None = None,
        codec: Any = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if l2 is not None and codec is None:
            raise ValueError("a persistent tier requires a codec")
        self.namespace = namespace
        self.max_size = max_entries
        self._l2 = l2
        self._codec = codec
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._l1_hits = 0
        self._l2_hits = 0
        self._misses = 0
        self._bypasses = 0
        self._evictions = 0

    @property
    def has_l2(self) -> bool:
        return self._l2 is not None

    def get(self, key: Hashable) -> object | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._l1_hits += 1
                return value
        value = self._l2_get(key)
        with self._lock:
            if value is None:
                self._misses += 1
                return None
            self._l2_hits += 1
        self._insert(key, value)            # promote
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._insert(key, value)
        if self._l2 is None:
            return
        try:
            encoded = self._codec.encode(value)
        except (ValueError, TypeError):
            return
        self._l2.put(self.namespace, self._l2_key(key), encoded)

    def _insert(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def _l2_key(self, key: Hashable) -> str:
        return stable_key(self.namespace, *key)  # type: ignore[misc]

    def _l2_get(self, key: Hashable) -> object | None:
        if self._l2 is None:
            return None
        encoded = self._l2.get(self.namespace, self._l2_key(key))
        if encoded is None:
            return None
        try:
            return self._codec.decode(encoded)
        except (ValueError, KeyError, TypeError):
            # Undecodable payload (foreign writer, schema drift): a miss,
            # never a crash.
            return None

    def note_bypass(self) -> None:
        with self._lock:
            self._bypasses += 1

    def clear(self) -> None:
        """Drop L1 entries; counters survive. The L2 file is shared state
        and is left alone."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """What the caller experienced: hits from any tier, L1 pressure."""
        with self._lock:
            return CacheStats(
                hits=self._l1_hits + self._l2_hits,
                misses=self._misses,
                bypasses=self._bypasses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self.max_size,
            )

    def tier_stats(self) -> dict:
        """Per-tier accounting for ``/v1/stats``: ``{"l1": ..., "l2": ...}``."""
        with self._lock:
            l1 = CacheStats(
                hits=self._l1_hits,
                misses=self._l2_hits + self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self.max_size,
            )
        tiers = {"l1": l1.to_dict()}
        if self._l2 is not None:
            tiers["l2"] = self._l2.stats(self.namespace).to_dict()
        return tiers

    def reset_stats(self) -> None:
        with self._lock:
            self._l1_hits = self._l2_hits = self._misses = 0
            self._bypasses = self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
