"""Differential tests: the optimized engine vs ``naive=True``.

The optimization contract is byte-identical behaviour — every plan-cache
hit, compiled evaluator, pushed predicate, indexed scan and hash join
must produce exactly the rows (and exactly the errors) of the original
parse-per-call interpreter. The property tests drive both arms over a
query family chosen to hit the interesting strategy boundaries: NULL
join keys, LEFT joins with pushable WHERE conjuncts, OR-connected
predicates (not splittable), and grouped aggregates. A second family
feeds both arms hostile values: NaN/inf columns, mixed-type columns,
NULL-heavy and empty tables, and GROUP BY over all-NULL keys.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database, Engine, QueryResultCache, Table
from repro.sqlengine.errors import SqlError
from repro.sqlengine.planner import STRATEGY_COUNTERS

_KEYS = st.one_of(st.none(), st.integers(0, 4))
_CATS = ("red", "green", "blue")


@st.composite
def databases(draw):
    left_rows = draw(st.lists(
        st.tuples(_KEYS, st.sampled_from(_CATS), st.integers(-10, 10)),
        min_size=0, max_size=12,
    ))
    right_rows = draw(st.lists(
        st.tuples(_KEYS, st.integers(0, 100)),
        min_size=0, max_size=12,
    ))
    db = Database("diff")
    db.add(Table("l", ["k", "cat", "v"], left_rows))
    db.add(Table("r", ["k", "w"], right_rows))
    return db


_JOIN_QUERIES = (
    # INNER hash join; NULL keys on either side must never match.
    "SELECT l.k, cat, w FROM l JOIN r ON l.k = r.k ORDER BY w, cat",
    # LEFT join with a pushable single-table WHERE conjunct on the left.
    "SELECT cat, w FROM l LEFT JOIN r ON l.k = r.k "
    "WHERE v > 0 ORDER BY cat, w",
    # LEFT join where the predicate targets the padded (right) side —
    # must NOT be pushed below the join (it would drop padded rows).
    "SELECT cat, w FROM l LEFT JOIN r ON l.k = r.k "
    "WHERE w IS NULL ORDER BY cat",
    # OR across tables: not splittable, stays a residual filter.
    "SELECT cat, w FROM l JOIN r ON l.k = r.k "
    "WHERE v > 5 OR w < 50 ORDER BY cat, w",
    # Equality probe eligible for an indexed scan.
    "SELECT v FROM l WHERE cat = 'red' ORDER BY v",
    # Grouped aggregate with HAVING over the join.
    "SELECT cat, COUNT(*), SUM(w) FROM l JOIN r ON l.k = r.k "
    "GROUP BY cat HAVING COUNT(*) > 1 ORDER BY cat",
    # Cross join (comma syntax) with a join predicate in WHERE.
    "SELECT cat, w FROM l, r WHERE l.k = r.k AND v >= 0 ORDER BY cat, w",
    # Plain aggregates over an empty-able group.
    "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM l WHERE v > 3",
)


def _run(engine, sql):
    try:
        result = engine.execute(sql)
    except SqlError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.columns, result.rows)


@given(databases(), st.sampled_from(_JOIN_QUERIES))
@settings(max_examples=120, deadline=None)
def test_optimized_matches_naive(db, sql):
    naive = _run(Engine(db, naive=True), sql)
    optimized_engine = Engine(db, result_cache=QueryResultCache(32))
    assert _run(optimized_engine, sql) == naive
    # Second execution answers from the result cache — still identical.
    assert _run(optimized_engine, sql) == naive


@given(databases())
@settings(max_examples=60, deadline=None)
def test_null_join_keys_never_match(db):
    sql = "SELECT l.k, r.k FROM l JOIN r ON l.k = r.k"
    naive = _run(Engine(db, naive=True), sql)
    optimized = _run(Engine(db, result_cache=None), sql)
    assert optimized == naive
    if naive[0] == "ok":
        assert all(k is not None for row in naive[2] for k in row)


def _correlated_db():
    db = Database("corr")
    db.add(Table("emp", ["dept", "salary"],
                 [("a", 10), ("a", 30), ("b", 20), ("b", 40)]))
    db.add(Table("dept", ["dept", "cap"], [("a", 25), ("b", 35)]))
    return db


CORRELATED = (
    "SELECT d.dept, (SELECT COUNT(*) FROM emp e "
    "WHERE e.dept = d.dept AND e.salary > d.cap) FROM dept d "
    "ORDER BY d.dept"
)


def test_correlated_subquery_matches_naive():
    db = _correlated_db()
    naive = _run(Engine(db, naive=True), CORRELATED)
    assert _run(Engine(db, result_cache=QueryResultCache(32)), CORRELATED) \
        == naive
    assert naive[0] == "ok"
    assert naive[2] == [("a", 1), ("b", 1)]


def test_correlated_subquery_bypasses_result_cache():
    db = _correlated_db()
    cache = QueryResultCache(32)
    engine = Engine(db, result_cache=cache)
    engine.execute(CORRELATED)
    # Only the top-level statement lands in the cache; the inner query,
    # evaluated once per outer row, never consults it.
    assert len(cache) == 1
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 0
    engine.execute(CORRELATED)
    assert cache.stats()["hits"] == 1


def test_unknown_column_error_matches_naive():
    db = _correlated_db()
    sql = "SELECT nope FROM emp"
    naive = _run(Engine(db, naive=True), sql)
    optimized = _run(Engine(db, result_cache=None), sql)
    assert naive[0] == "error"
    assert optimized == naive


def test_division_by_zero_error_matches_naive():
    db = Database("dz")
    db.add(Table("t", ["a", "b"], [(1, 0)]))
    sql = "SELECT a / b FROM t"
    naive = _run(Engine(db, naive=True), sql)
    optimized = _run(Engine(db, result_cache=None), sql)
    assert naive[0] == "error"
    assert optimized == naive


# -- hostile values -----------------------------------------------------------
#
# Comparisons go through repr() so NaN cells (which are != themselves)
# still compare, and so -0.0 vs 0.0 divergence would be caught rather
# than masked.

_NAN = float("nan")
_INF = float("inf")

_NUMS = st.one_of(st.none(), st.integers(-5, 5))
_FLOATS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from((0.5, -2.25, 1e15, _NAN, _INF, -_INF)),
)
_MIXED = st.one_of(
    st.none(), st.integers(-3, 3), st.booleans(),
    st.sampled_from(("x", "7", "", "y z")), st.just(_NAN),
)
_TEXTS = st.one_of(st.none(), st.sampled_from(("ab", "c", "", "zz")))


@st.composite
def hostile_databases(draw):
    v_rows = draw(st.lists(
        st.tuples(_NUMS, _FLOATS, _MIXED, _TEXTS), min_size=0, max_size=14,
    ))
    j_rows = draw(st.lists(
        st.tuples(_FLOATS, st.integers(0, 50)), min_size=0, max_size=10,
    ))
    db = Database("hostile")
    db.add(Table("v", ["num", "fnum", "mix", "txt"], v_rows))
    db.add(Table("j", ["k", "w"], j_rows))
    return db


_HOSTILE_QUERIES = (
    # Numeric scan + arithmetic next to inf/NaN columns.
    "SELECT num, num + 1, num * 2 FROM v WHERE num > 0 ORDER BY 1, 2",
    # Mixed-type column in predicates: only compare_values semantics work
    # (a NaN in the column makes the equality index decline).
    "SELECT mix FROM v WHERE mix = 7",
    # NULL-heavy grouping; an all-NULL txt column makes one NULL group.
    "SELECT txt, COUNT(*), COUNT(txt), SUM(num) FROM v "
    "GROUP BY txt ORDER BY 2 DESC, 1",
    # GROUP BY over a mixed column (bools, NaN, numeric strings).
    "SELECT COUNT(*) FROM v GROUP BY mix ORDER BY 1",
    # Global aggregates, empty relation included.
    "SELECT COUNT(*), SUM(num), AVG(num), MIN(txt), MAX(fnum) FROM v",
    "SELECT COUNT(*), MIN(num) FROM v WHERE num > 100",
    # DISTINCT + aggregate arguments.
    "SELECT COUNT(DISTINCT num), COUNT(DISTINCT txt) FROM v",
    # Join on a float column: NaN keys defeat hashing at runtime and the
    # nested loop must answer identically (the padded LEFT variant too).
    "SELECT num, w FROM v JOIN j ON v.fnum = j.k ORDER BY 1, 2",
    "SELECT num, w FROM v LEFT JOIN j ON v.fnum = j.k ORDER BY 1, 2",
    # IN / BETWEEN / CASE / IS NULL over nullable numerics.
    "SELECT num FROM v WHERE num IN (1, 2, NULL) OR num BETWEEN -2 AND -1",
    "SELECT CASE WHEN num > 0 THEN txt WHEN num IS NULL THEN 'n' END "
    "FROM v ORDER BY 1",
    # HAVING over a computed aggregate.
    "SELECT txt, SUM(num) FROM v GROUP BY txt "
    "HAVING COUNT(*) >= 1 ORDER BY 1",
)


def _run_repr(engine, sql):
    try:
        result = engine.execute(sql)
    except SqlError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.columns, repr(result.rows))


@given(hostile_databases(), st.sampled_from(_HOSTILE_QUERIES))
@settings(max_examples=150, deadline=None)
def test_hostile_values_match_naive(db, sql):
    naive = _run_repr(Engine(db, naive=True), sql)
    optimized = Engine(db, result_cache=None)
    assert _run_repr(optimized, sql) == naive
    # Replay through the warm plan cache and the built table indexes.
    assert _run_repr(optimized, sql) == naive


def test_nan_join_key_takes_the_nested_loop():
    db = Database("nanjoin")
    db.add(Table("l", ["k"], [(math.nan,), (1.0,)]))
    db.add(Table("r", ["k", "w"], [(1.0, 10)]))
    engine = Engine(db, result_cache=None)
    sql = "SELECT l.k, w FROM l JOIN r ON l.k = r.k"
    naive = _run_repr(Engine(db, naive=True), sql)
    before = STRATEGY_COUNTERS.snapshot()
    assert _run_repr(engine, sql) == naive
    assert _run_repr(engine, sql) == naive
    after = STRATEGY_COUNTERS.snapshot()
    # The hash join declines the NaN key on every run (nothing is
    # memoized about the data), so each run is one nested loop.
    assert after["nested_loop_joins"] == before["nested_loop_joins"] + 2
    assert after["hash_joins"] == before["hash_joins"]
    assert naive[0] == "ok"


def test_group_by_all_null_keys():
    db = Database("allnull")
    db.add(Table("t", ["g", "x"], [(None, None), (None, None), (None, 3)]))
    sql = "SELECT g, COUNT(*), COUNT(x), SUM(x), AVG(x) FROM t GROUP BY g"
    naive = _run_repr(Engine(db, naive=True), sql)
    assert _run_repr(Engine(db, result_cache=None), sql) == naive
    assert naive[0] == "ok"


def test_empty_table_matches_naive():
    db = Database("empty")
    db.add(Table("t", ["a", "b"], []))
    for sql in (
        "SELECT a, b FROM t",
        "SELECT a FROM t WHERE a > 0 ORDER BY b",
        "SELECT a, COUNT(*) FROM t GROUP BY a",
        "SELECT COUNT(*), SUM(a) FROM t",
    ):
        naive = _run_repr(Engine(db, naive=True), sql)
        assert _run_repr(Engine(db, result_cache=None), sql) == naive
