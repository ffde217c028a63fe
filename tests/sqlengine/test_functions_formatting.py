"""Tests for scalar/aggregate functions and prompt formatting."""

import pytest

from repro.sqlengine import (
    Database,
    Engine,
    Table,
    create_table_select_3_text,
    create_table_text,
    markdown_table_text,
    prompt_schema_text,
    schema_text,
)
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.formatting import select_sample_text
from repro.sqlengine.functions import aggregate, call_scalar


class TestAggregateFunction:
    def test_count_counts_non_null(self):
        assert aggregate("COUNT", [1, None, 2], distinct=False) == 2

    def test_count_distinct(self):
        assert aggregate("COUNT", [1, 1, 2, None], distinct=True) == 2

    def test_sum_empty_is_null(self):
        assert aggregate("SUM", [], distinct=False) is None

    def test_avg(self):
        assert aggregate("AVG", [1, 2, 3], distinct=False) == 2

    def test_sum_distinct(self):
        assert aggregate("SUM", [2, 2, 3], distinct=True) == 5

    def test_min_max_strings(self):
        assert aggregate("MIN", ["b", "a"], distinct=False) == "a"
        assert aggregate("MAX", ["b", "a"], distinct=False) == "b"

    def test_sum_text_raises(self):
        with pytest.raises(ExecutionError):
            aggregate("SUM", ["x"], distinct=False)

    def test_unknown_aggregate(self):
        with pytest.raises(ExecutionError):
            aggregate("MEDIAN", [1], distinct=False)


class TestScalarFunctions:
    @pytest.mark.parametrize("name,args,expected", [
        ("ABS", [-3], 3),
        ("ROUND", [3.456], 3),
        ("ROUND", [3.456, 2], 3.46),
        ("LOWER", ["ABC"], "abc"),
        ("UPPER", ["abc"], "ABC"),
        ("LENGTH", ["abcd"], 4),
        ("LEN", ["ab"], 2),
        ("COALESCE", [None, None, 5], 5),
        ("COALESCE", [None, None], None),
        ("IFNULL", [None, 7], 7),
        ("NULLIF", [3, 3], None),
        ("NULLIF", [3, 4], 3),
        ("SUBSTR", ["abcdef", 2, 3], "bcd"),
        ("SUBSTR", ["abcdef", 4], "def"),
        ("SUBSTRING", ["abc", 1, 1], "a"),
        ("TRIM", ["  x  "], "x"),
    ])
    def test_values(self, name, args, expected):
        assert call_scalar(name, args) == expected

    @pytest.mark.parametrize("name", ["ABS", "ROUND", "LOWER", "UPPER",
                                      "LENGTH", "TRIM"])
    def test_null_propagates(self, name):
        assert call_scalar(name, [None]) is None

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            call_scalar("SOUNDEX", ["x"])

    def test_arity_checked(self):
        with pytest.raises(ExecutionError):
            call_scalar("ABS", [1, 2])
        with pytest.raises(ExecutionError):
            call_scalar("COALESCE", [])

    def test_abs_text_raises(self):
        with pytest.raises(ExecutionError):
            call_scalar("ABS", ["word"])

    def test_round_negative_digits(self):
        assert call_scalar("ROUND", [1234, -2]) == 1200


@pytest.fixture()
def db():
    database = Database("fmt")
    database.add(Table("drinks", ["country", "wine"],
                       [("France", 370), ("USA", 84), ("Italy", 340),
                        ("Spain", 250)]))
    return database


class TestFormatting:
    def test_create_table(self, db):
        text = create_table_text(db.table("drinks"))
        assert text.startswith('CREATE TABLE "drinks"')
        assert '"country" TEXT' in text
        assert '"wine" INTEGER' in text

    def test_schema_text_all_tables(self, db):
        db.add(Table("extra", ["x"], []))
        text = schema_text(db)
        assert "drinks" in text and "extra" in text

    def test_select_sample_limited(self, db):
        text = select_sample_text(db.table("drinks"), limit=2)
        assert "LIMIT 2" in text
        assert "France" in text
        assert "Spain" not in text

    def test_create_table_select_3(self, db):
        text = create_table_select_3_text(db)
        assert "CREATE TABLE" in text
        assert "SELECT * FROM" in text

    def test_prompt_schema_has_rows(self, db):
        text = prompt_schema_text(db, sample_rows=1)
        assert "CREATE TABLE" in text
        assert "France" in text
        assert "USA" not in text  # only one sample row

    def test_markdown(self, db):
        text = markdown_table_text(db.table("drinks"), limit=2)
        assert text.splitlines()[0] == "| country | wine |"
        assert "| France | 370 |" in text
        assert len(text.splitlines()) == 4  # header + sep + 2 rows
