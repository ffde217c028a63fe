"""``Database.content_fingerprint()`` is a sound key for every SQL cache.

Equal content must give equal keys (so a rebuilt database — or one in
another process — hits), and any different cell must give a different
key (so no cache ever answers for the wrong data).
"""

from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database, Engine, QueryResultCache, Table
from repro.sqlengine.planner import STRATEGY_COUNTERS

#: Every ``SqlValue`` kind. NaN is left out: it is unequal to itself, so
#: "built from equal rows" has no meaning for it.
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)

COLUMNS = ["a", "b", "c"]


@st.composite
def rows(draw):
    count = draw(st.integers(1, 6))
    return [tuple(draw(CELLS) for _ in COLUMNS) for _ in range(count)]


def _database(rows, name="t"):
    db = Database("fp")
    db.add(Table(name, list(COLUMNS), [tuple(row) for row in rows]))
    return db


def _same_cell(left, right):
    """Identical as stored: same type and same rendering (so ``1``,
    ``1.0`` and ``True`` differ, and so do ``0.0`` and ``-0.0``)."""
    return type(left) is type(right) and repr(left) == repr(right)


@given(rows())
@settings(max_examples=200, deadline=None)
def test_separately_built_equal_tables_share_a_fingerprint(table_rows):
    copied = [tuple(row) for row in table_rows]
    assert (_database(table_rows).content_fingerprint()
            == _database(copied).content_fingerprint())


@given(rows(), st.data())
@settings(max_examples=300, deadline=None)
def test_any_different_cell_changes_the_fingerprint(table_rows, data):
    row = data.draw(st.integers(0, len(table_rows) - 1))
    column = data.draw(st.integers(0, len(COLUMNS) - 1))
    old = table_rows[row][column]
    new = data.draw(CELLS.filter(lambda cell: not _same_cell(cell, old)))
    changed = [list(values) for values in table_rows]
    changed[row][column] = new
    assert (_database(table_rows).content_fingerprint()
            != _database(changed).content_fingerprint())


def test_lookalike_cells_are_told_apart():
    lookalikes = [1, 1.0, True, "1", None, 0, 0.0, False, "", -0.0]
    prints = {
        _database([(cell, None, None)]).content_fingerprint()
        for cell in lookalikes
    }
    assert len(prints) == len(lookalikes)


def test_table_name_and_columns_are_part_of_the_content():
    base = _database([(1, 2, 3)])
    renamed = _database([(1, 2, 3)], name="u")
    reordered = Database("fp")
    reordered.add(Table("t", ["b", "a", "c"], [(1, 2, 3)]))
    prints = [db.content_fingerprint() for db in (base, renamed, reordered)]
    assert len(set(prints)) == 3
    # The database's own name is not: results depend only on the data.
    other = Database("another-name")
    other.add(Table("t", list(COLUMNS), [(1, 2, 3)]))
    assert other.content_fingerprint() == base.content_fingerprint()


def test_equal_databases_share_a_result_cache_entry():
    cache = QueryResultCache(8)
    sql = "SELECT SUM(a) FROM t"
    first, second = (_database([(1, 2, 3), (4, 5, 6)]) for _ in range(2))
    assert first is not second
    Engine(first, result_cache=cache).execute(sql)
    hits = STRATEGY_COUNTERS.snapshot()["result_cache_hits"]
    result = Engine(second, result_cache=cache).execute(sql)
    assert STRATEGY_COUNTERS.snapshot()["result_cache_hits"] == hits + 1
    assert result.first_cell() == 5


def test_add_invalidates_the_cached_result():
    cache = QueryResultCache(8)
    db = _database([(1, 2, 3)])
    engine = Engine(db, result_cache=cache)
    before = db.content_fingerprint()
    assert engine.execute("SELECT COUNT(*) FROM t").first_cell() == 1
    db.add(Table("t", list(COLUMNS), [(1, 2, 3), (4, 5, 6)]))
    assert db.content_fingerprint() != before
    assert engine.execute("SELECT COUNT(*) FROM t").first_cell() == 2
    assert cache.stats().misses == 2
