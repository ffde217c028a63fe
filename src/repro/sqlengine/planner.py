"""Query planning support: SQL normalization, plan/result caches, counters.

This module is the bookkeeping half of the compile-and-cache engine:

* :func:`normalize_sql` — canonical text for cache keys (whitespace
  collapsed *outside* string/identifier quotes only).
* :class:`PlanCache` — normalized SQL to the parsed statement, so the
  tokenizer/parser run once per distinct query. A module-level default
  (:func:`shared_plan_cache`) is shared by every engine unless a caller
  supplies its own. L1-only on purpose: plans are live AST objects and
  a re-parse is cheaper than a faithful serialisation.
* :class:`QueryResultCache` — ``(Database.content_fingerprint(),
  normalized SQL)`` to a finished
  :class:`~repro.sqlengine.executor.QueryResult`. The fingerprint is a
  content hash, so mutating a database invalidates its entries by key
  change, equal databases share entries, and the key means the same in
  every process — which is what lets the optional L2 file serve results
  across restarts.
* :class:`StrategyCounters` — process-wide counters for which execution
  strategies fired (indexed scans, compiled vs interpreted expressions,
  result- and subquery-cache traffic).
  Surfaced in ``/stats`` and in report renderings via
  :func:`engine_stats`.

Both caches are :class:`repro.cache.TieredCache` namespaces. Statement
ASTs are frozen dataclasses, so sharing one parse across threads and
engines is safe. Cached results are defensively copied on both insert
and hit — ``QueryResult.rows`` is a mutable list and callers are
allowed to mangle what they get back.
"""

from __future__ import annotations

import json
import threading
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.cache import SqliteCacheBackend, TieredCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor imports us)
    from .executor import QueryResult

DEFAULT_PLAN_CACHE_SIZE = 512
DEFAULT_RESULT_CACHE_SIZE = 1024

#: Distinct SQL texts whose normal form is remembered: twice the result
#: cache, since the analyzer memo, the plan cache and the result cache
#: each normalize the same candidate once per attempt.
NORMALIZE_MEMO_SIZE = 2048

_QUOTES = ("'", '"')


@lru_cache(maxsize=NORMALIZE_MEMO_SIZE)
def normalize_sql(sql: str) -> str:
    """Collapse runs of whitespace to single spaces, outside quotes only.

    ``SELECT  a`` and ``SELECT a`` share a cache entry, but the literal in
    ``WHERE name = 'two  spaces'`` keeps its spacing — folding it would
    conflate semantically different queries. Doubled quotes inside a
    literal are handled by treating each quote as a toggle: the zero-width
    close/reopen pair leaves the intervening text correctly "inside".
    Keyword case is deliberately left alone (folding would also fold
    quoted-free identifiers, and a case miss only costs a re-parse).
    Pure in its text, so memoized (LRU, thread-safe); the character loop
    is reachable as ``normalize_sql.__wrapped__``.
    """
    parts: list[str] = []
    quote: str | None = None
    space_pending = False
    for ch in sql:
        if quote is not None:
            parts.append(ch)
            if ch == quote:
                quote = None
        elif ch in _QUOTES:
            if space_pending and parts:
                parts.append(" ")
            space_pending = False
            parts.append(ch)
            quote = ch
        elif ch.isspace():
            space_pending = True
        else:
            if space_pending and parts:
                parts.append(" ")
            space_pending = False
            parts.append(ch)
    return "".join(parts)


class _QueryResultCodec:
    """Exact JSON round trip for :class:`QueryResult` (the L2 codec).

    ``SqlValue`` is ``None | bool | int | float | str`` — all JSON-native
    with exact float round trips — so only the row *tuples* need
    restoring on decode.
    """

    def encode(self, result: "QueryResult") -> str:
        return json.dumps({
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
        }, sort_keys=True)

    def decode(self, text: str) -> "QueryResult":
        # Imported lazily: the executor imports this module at load time.
        from .executor import QueryResult

        data = json.loads(text)
        return QueryResult(
            columns=list(data["columns"]),
            rows=[tuple(row) for row in data["rows"]],
        )


QUERY_RESULT_CODEC = _QueryResultCodec()


class PlanCache(TieredCache):
    """Normalized SQL text → parsed
    :class:`~repro.sqlengine.ast_nodes.SelectStatement`.

    Only successful parses are cached; malformed SQL re-raises its parse
    error on every attempt, exactly like the uncached engine.
    """

    def __init__(self, max_size: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        super().__init__("sql_plan", max_size)


class QueryResultCache(TieredCache):
    """(database content fingerprint, normalized SQL) → :class:`QueryResult`.

    Correlated subqueries never reach this cache: the engine consults it
    only where no outer row scope exists. Entries are copied in and out,
    so cached rows can never be mutated by a caller. Pass ``l2`` (an
    opened :class:`~repro.cache.SqliteCacheBackend`) to keep results
    across restarts.
    """

    def __init__(
        self,
        max_size: int = DEFAULT_RESULT_CACHE_SIZE,
        *,
        l2: SqliteCacheBackend | None = None,
    ) -> None:
        super().__init__(
            "sql_result", max_size, l2=l2, codec=QUERY_RESULT_CODEC,
        )

    def get(self, key: tuple) -> "QueryResult | None":
        result = super().get(key)
        if result is None:
            return None
        return result.copy()  # type: ignore[attr-defined]

    def put(self, key: tuple, value: "QueryResult") -> None:
        super().put(key, value.copy())


_STRATEGY_NAMES = (
    "indexed_scans",
    "compiled_expressions",
    "interpreted_fallbacks",
    "result_cache_hits",
    "result_cache_misses",
    "subquery_cache_hits",
    "subquery_cache_misses",
    "subquery_cache_bypasses",
    "naive_executions",
)


class StrategyCounters:
    """Process-wide tallies of which engine strategies actually fired."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(_STRATEGY_NAMES, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(_STRATEGY_NAMES, 0)


#: Shared singletons. Every Engine defaults to these, so distinct queries
#: parsed anywhere in the process (pipeline, agents, reconstruction,
#: service) all land in one plan cache.
_SHARED_PLAN_CACHE = PlanCache(DEFAULT_PLAN_CACHE_SIZE)
STRATEGY_COUNTERS = StrategyCounters()


def shared_plan_cache() -> PlanCache:
    """The process-wide default plan cache."""
    return _SHARED_PLAN_CACHE


def engine_stats() -> dict:
    """Aggregate engine-layer stats for ``/stats`` and reports."""
    # Imported lazily: the analyzer sits above the planner in the module
    # hierarchy (it imports the shared counters from here).
    from .analyzer import ANALYZER_COUNTERS, analysis_memo_stats

    return {
        "plan_cache": _SHARED_PLAN_CACHE.stats().to_dict(),
        "strategies": STRATEGY_COUNTERS.snapshot(),
        "analyzer": ANALYZER_COUNTERS.snapshot(),
        "analyzer_memo": analysis_memo_stats().to_dict(),
    }


def reset_engine_stats() -> None:
    """Zero the strategy counters and drop the shared plan cache.

    Test/benchmark hook: production code never calls this.
    """
    from .analyzer import reset_analyzer

    STRATEGY_COUNTERS.reset()
    reset_analyzer()
    _SHARED_PLAN_CACHE.clear()
    _SHARED_PLAN_CACHE.reset_stats()
