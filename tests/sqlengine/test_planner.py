"""Plan/result caches, normalization, counters, and table memoization."""

import copy
import math

import pytest

from repro.sqlengine import (
    Database,
    Engine,
    PlanCache,
    QueryResultCache,
    Table,
    engine_for,
    engine_stats,
    normalize_sql,
    reset_engine_stats,
    shared_plan_cache,
)


def _database():
    db = Database("planner")
    db.add(Table(
        "t",
        ["name", "score"],
        [("a", 1), ("b", 2), ("c", None), ("b", 4)],
    ))
    return db


# -- normalize_sql ------------------------------------------------------------

def test_normalize_collapses_whitespace():
    assert normalize_sql("SELECT   a\n  FROM\tt") == "SELECT a FROM t"


def test_normalize_strips_leading_and_trailing_space():
    assert normalize_sql("  SELECT a  ") == "SELECT a"


def test_normalize_preserves_quoted_whitespace():
    sql = "SELECT a FROM t WHERE name = 'two  spaces'"
    assert normalize_sql("SELECT  a FROM t WHERE name = 'two  spaces'") == sql


def test_normalize_preserves_quoted_identifier_whitespace():
    sql = 'SELECT "weird  col" FROM t'
    assert normalize_sql('SELECT   "weird  col"  FROM  t') == sql


def test_normalize_handles_doubled_quotes():
    # 'it''s  fine' closes and reopens; the doubled spacing must survive.
    sql = "SELECT a FROM t WHERE name = 'it''s  fine'"
    assert normalize_sql(
        "SELECT  a FROM t WHERE name = 'it''s  fine'"
    ) == sql


def test_normalize_keeps_keyword_case():
    assert normalize_sql("select a from t") == "select a from t"


# -- LRU (repro.cache.TieredCache, which PlanCache names) ---------------------

def test_lru_eviction_order():
    cache = PlanCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")          # refresh a; b is now least-recent
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats().evictions == 1


def test_lru_stats_track_hits_and_misses():
    cache = PlanCache(4)
    cache.put("k", "v")
    cache.get("k")
    cache.get("absent")
    stats = cache.stats()
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.size == 1
    assert stats.hit_rate == 0.5


def test_lru_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        PlanCache(0)


# -- plan cache ---------------------------------------------------------------

def test_plan_cache_shared_across_engines():
    db = _database()
    plan_cache = PlanCache(16)
    first = Engine(db, plan_cache=plan_cache, result_cache=None)
    second = Engine(db, plan_cache=plan_cache, result_cache=None)
    first.execute("SELECT COUNT(*) FROM t")
    before = plan_cache.stats().hits
    second.execute("SELECT  COUNT(*)  FROM t")   # normalizes to same key
    assert plan_cache.stats().hits == before + 1


def test_plan_cache_skips_failed_parses():
    db = _database()
    plan_cache = PlanCache(16)
    engine = Engine(db, plan_cache=plan_cache, result_cache=None)
    with pytest.raises(Exception):
        engine.execute("SELECT FROM WHERE")
    assert len(plan_cache) == 0


def test_naive_engine_bypasses_shared_plan_cache():
    reset_engine_stats()
    db = _database()
    engine = Engine(db, naive=True)
    engine.execute("SELECT COUNT(*) FROM t")
    stats = engine_stats()
    assert stats["plan_cache"]["hits"] == 0
    assert stats["plan_cache"]["misses"] == 0
    assert stats["strategies"]["naive_executions"] == 1


# -- result cache -------------------------------------------------------------

def test_result_cache_hit_returns_equal_rows():
    db = _database()
    engine = Engine(db, result_cache=QueryResultCache(8))
    first = engine.execute("SELECT score FROM t ORDER BY name")
    second = engine.execute("SELECT score FROM t ORDER BY name")
    assert first.rows == second.rows
    assert engine.result_cache.stats().hits == 1


def test_result_cache_copies_are_isolated():
    db = _database()
    engine = Engine(db, result_cache=QueryResultCache(8))
    first = engine.execute("SELECT score FROM t ORDER BY name")
    first.rows.append(("tampered",))
    second = engine.execute("SELECT score FROM t ORDER BY name")
    assert ("tampered",) not in second.rows


def test_result_cache_invalidated_by_database_mutation():
    db = _database()
    engine = Engine(db, result_cache=QueryResultCache(8))
    before = engine.execute("SELECT COUNT(*) FROM t").first_cell()
    db.add(Table("t", ["name", "score"], [("only", 9)]))
    after = engine.execute("SELECT COUNT(*) FROM t").first_cell()
    assert (before, after) == (4, 1)


def test_deepcopied_database_shares_entries_until_mutated():
    db = _database()
    clone = copy.deepcopy(db)
    assert clone.content_fingerprint() == db.content_fingerprint()
    cache = QueryResultCache(8)
    Engine(db, result_cache=cache).execute("SELECT COUNT(*) FROM t")
    # Equal content, one entry: the clone's first execution hits.
    Engine(clone, result_cache=cache).execute("SELECT COUNT(*) FROM t")
    assert cache.stats().hits == 1
    # Mutating the clone moves only the clone's key.
    clone.add(Table("t", ["name", "score"], [("only", 9)]))
    assert clone.content_fingerprint() != db.content_fingerprint()
    count = Engine(clone, result_cache=cache).execute("SELECT COUNT(*) FROM t")
    assert count.first_cell() == 1
    assert cache.stats().misses == 2


def test_content_fingerprint_changes_on_add():
    db = _database()
    before = db.content_fingerprint()
    db.add(Table("u", ["x"], [(1,)]))
    assert db.content_fingerprint() != before


# -- engine_for ---------------------------------------------------------------

def test_engine_for_returns_one_engine_per_database():
    db = _database()
    assert engine_for(db) is engine_for(db)


def test_engine_for_distinct_databases_distinct_engines():
    assert engine_for(_database()) is not engine_for(_database())


def test_engine_for_rebinds_result_cache():
    db = _database()
    engine = engine_for(db)
    replacement = QueryResultCache(4)
    assert engine_for(db, replacement) is engine
    assert engine.result_cache is replacement
    assert engine_for(db, None) is engine
    assert engine.result_cache is None
    # UNSET leaves the previous binding alone.
    assert engine_for(db).result_cache is None


def test_engine_for_default_has_caches():
    engine = engine_for(_database())
    assert engine.result_cache is not None
    assert engine.plan_cache is shared_plan_cache()


# -- strategy counters --------------------------------------------------------

def test_engine_stats_shape():
    stats = engine_stats()
    assert set(stats) == {
        "plan_cache", "strategies", "analyzer", "analyzer_memo",
    }
    assert "hit_rate" in stats["plan_cache"]
    assert "indexed_scans" in stats["strategies"]
    assert "queries_analyzed" in stats["analyzer"]
    assert "hit_rate" in stats["analyzer_memo"]


# -- table memoization --------------------------------------------------------

def test_columns_memoized():
    table = Table("t", ["a", "b"], [(1, 2)])
    assert table.columns() is not None
    assert table._columns_cache is not None
    again = table.columns()
    assert [c.name for c in again] == ["a", "b"]


def test_unique_column_values_memoized_and_isolated():
    table = Table("t", ["a"], [(3,), (1,), (3,), (None,)])
    first = table.unique_column_values("a")
    second = table.unique_column_values("a")
    assert first == second
    assert first is not second          # callers get their own list
    first.append("tampered")
    assert table.unique_column_values("a") == second


def test_equality_rows_matches_compare_semantics():
    table = Table("t", ["a"], [(1,), ("1",), (2.0,), (None,), ("x",)])
    # compare_values treats 1 and '1' as equal numbers; the index must too.
    assert table.equality_rows("a", 1) == [0, 1]
    assert table.equality_rows("a", "2") == [2]
    assert table.equality_rows("a", "x") == [4]
    assert table.equality_rows("a", "absent") == []
    # NULL probes and NULL cells never match.
    assert table.equality_rows("a", None) is None


def test_equality_rows_bails_on_nan():
    table = Table("t", ["a"], [(1.0,), (math.nan,)])
    assert table.equality_rows("a", 1.0) is None
    clean = Table("t", ["a"], [(1.0,)])
    assert clean.equality_rows("a", math.nan) is None
