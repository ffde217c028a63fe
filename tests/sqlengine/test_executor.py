"""Executor unit tests over a small fixture database."""

import pytest

from repro.sqlengine import Database, Engine, Table
from repro.sqlengine.errors import (
    EmptyResultError,
    ExecutionError,
    PlanError,
)


@pytest.fixture()
def db():
    database = Database("fixture")
    database.add(Table(
        "airlines",
        ["airline", "region", "fatal", "seats"],
        [
            ("Malaysia Airlines", "Asia", 2, 1500),
            ("KLM", "Europe", 0, 1200),
            ("Aeroflot", "Europe", 6, 900),
            ("Delta", "NA", 1, 3000),
            ("Qantas", "Oceania", 0, 800),
        ],
    ))
    database.add(Table(
        "regions",
        ["region", "continent_population"],
        [
            ("Asia", 4600), ("Europe", 750), ("NA", 580),
        ],
    ))
    return database


@pytest.fixture()
def engine(db):
    return Engine(db)


class TestProjectionAndFilter:
    def test_lookup(self, engine):
        assert engine.execute_scalar(
            "SELECT fatal FROM airlines WHERE airline = 'KLM'"
        ) == 0

    def test_star_expansion(self, engine):
        result = engine.execute("SELECT * FROM airlines")
        assert result.columns == ["airline", "region", "fatal", "seats"]
        assert len(result.rows) == 5

    def test_qualified_star(self, engine):
        result = engine.execute("SELECT a.* FROM airlines a")
        assert len(result.columns) == 4

    def test_expression_projection(self, engine):
        result = engine.execute(
            "SELECT seats / 100 AS hundreds FROM airlines WHERE airline = 'KLM'"
        )
        assert result.columns == ["hundreds"]
        assert result.rows[0][0] == 12

    def test_where_and(self, engine):
        result = engine.execute(
            "SELECT airline FROM airlines WHERE region = 'Europe' AND fatal = 0"
        )
        assert result.rows == [("KLM",)]

    def test_where_or(self, engine):
        result = engine.execute(
            "SELECT COUNT(*) FROM airlines WHERE region = 'Asia' OR region = 'NA'"
        )
        assert result.rows[0][0] == 2

    def test_in_list(self, engine):
        assert engine.execute_scalar(
            "SELECT COUNT(*) FROM airlines WHERE region IN ('Asia', 'Europe')"
        ) == 3

    def test_between(self, engine):
        assert engine.execute_scalar(
            "SELECT COUNT(*) FROM airlines WHERE fatal BETWEEN 1 AND 5"
        ) == 2

    def test_like(self, engine):
        # Lowercase 'a': Malaysia Airlines, Delta, Qantas (not Aeroflot).
        assert engine.execute_scalar(
            "SELECT COUNT(*) FROM airlines WHERE airline LIKE '%a%'"
        ) == 3

    def test_like_case_sensitive(self, engine):
        assert engine.execute_scalar(
            "SELECT COUNT(*) FROM airlines WHERE airline LIKE 'k%'"
        ) == 0

    def test_unknown_column_raises(self, engine):
        with pytest.raises(PlanError):
            engine.execute("SELECT nope FROM airlines")

    def test_unknown_table_raises(self, engine):
        with pytest.raises(PlanError):
            engine.execute("SELECT a FROM nope")

    def test_case_insensitive_names(self, engine):
        assert engine.execute_scalar(
            "SELECT FATAL FROM AIRLINES WHERE AIRLINE = 'KLM'"
        ) == 0


class TestAggregates:
    def test_count_star(self, engine):
        assert engine.execute_scalar("SELECT COUNT(*) FROM airlines") == 5

    def test_sum(self, engine):
        assert engine.execute_scalar("SELECT SUM(fatal) FROM airlines") == 9

    def test_avg(self, engine):
        assert engine.execute_scalar(
            "SELECT AVG(fatal) FROM airlines"
        ) == pytest.approx(1.8)

    def test_min_max(self, engine):
        assert engine.execute_scalar("SELECT MIN(seats) FROM airlines") == 800
        assert engine.execute_scalar("SELECT MAX(seats) FROM airlines") == 3000

    def test_count_distinct(self, engine):
        assert engine.execute_scalar(
            "SELECT COUNT(DISTINCT region) FROM airlines"
        ) == 4

    def test_aggregate_over_empty_filter(self, engine):
        assert engine.execute_scalar(
            "SELECT SUM(fatal) FROM airlines WHERE region = 'Mars'"
        ) is None

    def test_count_over_empty_filter_is_zero(self, engine):
        assert engine.execute_scalar(
            "SELECT COUNT(*) FROM airlines WHERE region = 'Mars'"
        ) == 0

    def test_group_by(self, engine):
        result = engine.execute(
            "SELECT region, SUM(fatal) FROM airlines GROUP BY region "
            "ORDER BY region"
        )
        assert ("Europe", 6) in result.rows
        assert len(result.rows) == 4

    def test_having(self, engine):
        result = engine.execute(
            "SELECT region FROM airlines GROUP BY region "
            "HAVING COUNT(*) > 1"
        )
        assert result.rows == [("Europe",)]

    def test_order_by_aggregate(self, engine):
        result = engine.execute(
            "SELECT region FROM airlines GROUP BY region "
            "ORDER BY SUM(fatal) DESC LIMIT 1"
        )
        assert result.rows == [("Europe",)]

    def test_percentage_pattern(self, engine):
        value = engine.execute_scalar(
            "SELECT (SELECT COUNT(airline) FROM airlines "
            "WHERE region = 'Europe') * 100.0 / "
            "(SELECT COUNT(airline) FROM airlines)"
        )
        assert value == pytest.approx(40.0)

    def test_aggregate_in_expression(self, engine):
        assert engine.execute_scalar(
            "SELECT MAX(fatal) - MIN(fatal) FROM airlines"
        ) == 6


class TestSubqueries:
    def test_scalar_subquery_in_where(self, engine):
        assert engine.execute_scalar(
            "SELECT airline FROM airlines WHERE seats = "
            "(SELECT MAX(seats) FROM airlines)"
        ) == "Delta"

    def test_in_subquery(self, engine):
        assert engine.execute_scalar(
            "SELECT COUNT(*) FROM airlines WHERE region IN "
            "(SELECT region FROM regions)"
        ) == 4

    def test_correlated_subquery(self, engine):
        result = engine.execute(
            "SELECT airline FROM airlines a WHERE fatal = "
            "(SELECT MAX(fatal) FROM airlines b WHERE b.region = a.region) "
            "AND region = 'Europe'"
        )
        assert result.rows == [("Aeroflot",)]

    def test_exists(self, engine):
        assert engine.execute_scalar(
            "SELECT COUNT(*) FROM airlines a WHERE EXISTS "
            "(SELECT 1 FROM regions r WHERE r.region = a.region)"
        ) == 4

    def test_scalar_subquery_multiple_rows_raises(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute(
                "SELECT airline FROM airlines WHERE fatal = "
                "(SELECT fatal FROM airlines)"
            )

    def test_empty_scalar_subquery_is_null(self, engine):
        result = engine.execute(
            "SELECT airline FROM airlines WHERE fatal = "
            "(SELECT fatal FROM airlines WHERE airline = 'none')"
        )
        assert result.rows == []


class TestJoins:
    def test_inner_join(self, engine):
        result = engine.execute(
            "SELECT a.airline, r.continent_population FROM airlines a "
            "JOIN regions r ON a.region = r.region ORDER BY a.airline"
        )
        assert len(result.rows) == 4

    def test_left_join_keeps_unmatched(self, engine):
        result = engine.execute(
            "SELECT a.airline, r.continent_population FROM airlines a "
            "LEFT JOIN regions r ON a.region = r.region "
            "WHERE r.continent_population IS NULL"
        )
        assert result.rows == [("Qantas", None)]

    def test_cross_join_row_count(self, engine):
        result = engine.execute(
            "SELECT COUNT(*) FROM airlines CROSS JOIN regions"
        )
        assert result.rows[0][0] == 15

    def test_join_with_aggregate(self, engine):
        value = engine.execute_scalar(
            "SELECT SUM(a.fatal) FROM airlines a JOIN regions r "
            "ON a.region = r.region WHERE r.continent_population > 700"
        )
        assert value == 8  # Asia (2) + Europe (0 + 6)

    def test_ambiguous_column_raises(self, engine):
        with pytest.raises(PlanError):
            engine.execute(
                "SELECT region FROM airlines a JOIN regions r "
                "ON a.region = r.region"
            )


class TestOrderLimitDistinct:
    def test_order_by_column(self, engine):
        result = engine.execute(
            "SELECT airline FROM airlines ORDER BY seats DESC LIMIT 2"
        )
        assert result.rows == [("Delta",), ("Malaysia Airlines",)]

    def test_order_by_unselected_column(self, engine):
        result = engine.execute(
            "SELECT airline FROM airlines ORDER BY fatal DESC LIMIT 1"
        )
        assert result.rows == [("Aeroflot",)]

    def test_order_by_ordinal(self, engine):
        result = engine.execute(
            "SELECT airline, fatal FROM airlines ORDER BY 2 DESC LIMIT 1"
        )
        assert result.rows[0][0] == "Aeroflot"

    @pytest.mark.parametrize("literal", ["TRUE", "FALSE"])
    def test_order_by_boolean_is_a_constant_key(self, db, literal):
        # bool subclasses int, but TRUE/FALSE are not 1-based positions:
        # the sort key is constant, so rows keep their scan order.
        sql = f"SELECT airline, fatal FROM airlines ORDER BY {literal}"
        scan_order = [(row[0], row[2]) for row in db.table("airlines").rows]
        naive = Engine(db, naive=True).execute(sql)
        optimized = Engine(db, result_cache=None).execute(sql)
        assert naive.rows == optimized.rows == scan_order

    def test_order_by_alias(self, engine):
        result = engine.execute(
            "SELECT airline, seats * 2 AS double_seats FROM airlines "
            "ORDER BY double_seats LIMIT 1"
        )
        assert result.rows[0][0] == "Qantas"

    def test_order_by_text_descending(self, engine):
        result = engine.execute(
            "SELECT airline FROM airlines ORDER BY airline DESC LIMIT 1"
        )
        assert result.rows == [("Qantas",)]

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT region FROM airlines")
        assert len(result.rows) == 4

    def test_limit_offset(self, engine):
        result = engine.execute(
            "SELECT airline FROM airlines ORDER BY airline LIMIT 2 OFFSET 1"
        )
        assert result.rows == [("Delta",), ("KLM",)]


class TestResultHelpers:
    def test_scalar_on_empty_raises_figure4_error(self, engine):
        with pytest.raises(EmptyResultError) as excinfo:
            engine.execute(
                "SELECT fatal FROM airlines WHERE airline = 'United States'"
            ).scalar()
        assert "index 0 is out of bounds" in str(excinfo.value)

    def test_scalar_on_multi_row_raises(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT airline FROM airlines").scalar()

    def test_first_cell_on_multi_row(self, engine):
        value = engine.execute(
            "SELECT airline FROM airlines ORDER BY airline"
        ).first_cell()
        assert value == "Aeroflot"


class TestNullSemantics:
    @pytest.fixture()
    def nullable(self):
        database = Database("nullable")
        database.add(Table("t", ["a", "b"], [(1, None), (2, 5), (None, 7)]))
        return Engine(database)

    def test_null_comparison_filters_out(self, nullable):
        assert nullable.execute_scalar(
            "SELECT COUNT(*) FROM t WHERE b > 1"
        ) == 2

    def test_aggregate_skips_null(self, nullable):
        assert nullable.execute_scalar("SELECT SUM(b) FROM t") == 12
        assert nullable.execute_scalar("SELECT COUNT(a) FROM t") == 2

    def test_is_null(self, nullable):
        assert nullable.execute_scalar(
            "SELECT COUNT(*) FROM t WHERE a IS NULL"
        ) == 1

    def test_coalesce(self, nullable):
        assert nullable.execute_scalar(
            "SELECT SUM(COALESCE(b, 0)) FROM t"
        ) == 12

    def test_nulls_sort_last_ascending(self, nullable):
        result = nullable.execute("SELECT a FROM t ORDER BY a")
        assert result.rows == [(1,), (2,), (None,)]


class TestArithmetic:
    def test_division_is_float(self, engine):
        assert engine.execute_scalar("SELECT 3 / 2") == 1.5

    def test_division_by_zero_raises(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT 1 / 0")

    def test_modulo(self, engine):
        assert engine.execute_scalar("SELECT 7 % 3") == 1

    def test_case_expression(self, engine):
        assert engine.execute_scalar(
            "SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END"
        ) == "b"

    def test_cast(self, engine):
        assert engine.execute_scalar("SELECT CAST('42' AS INTEGER)") == 42

    def test_concat(self, engine):
        assert engine.execute_scalar("SELECT 'a' || 'b'") == "ab"
