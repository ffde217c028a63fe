"""A small in-memory relational engine (the repo's DuckDB substitute).

Public surface::

    from repro.sqlengine import Database, Table, Engine, parse_select

    db = Database("demo")
    db.add(Table("airlines", ["airline", "fatal_accidents_00_14"],
                 [("Malaysia Airlines", 2), ("KLM", 0)]))
    Engine(db).execute_scalar(
        'SELECT "fatal_accidents_00_14" FROM airlines '
        "WHERE airline = 'Malaysia Airlines'"
    )  # -> 2
"""

from .analyzer import (
    ANALYZER_COUNTERS,
    DIAGNOSTIC_CODES,
    Diagnostic,
    QueryAnalysis,
    analyze_sql,
    render_diagnostics,
    reset_analyzer,
    shape_diagnostics,
)
from .ast_nodes import SelectStatement, walk_expressions, walk_subqueries
from .errors import (
    EmptyResultError,
    ExecutionError,
    ParseError,
    PlanError,
    SqlError,
    TokenizeError,
)
from .executor import Engine, QueryResult, engine_for
from .formatting import (
    create_table_select_3_text,
    create_table_text,
    markdown_table_text,
    prompt_schema_text,
    schema_text,
)
from .io import dump_csv, dump_database, load_csv, load_csv_directory
from .parser import parse_select
from .planner import (
    PlanCache,
    QueryResultCache,
    engine_stats,
    normalize_sql,
    reset_engine_stats,
    shared_plan_cache,
)
from .table import Column, Database, Table
from .values import SqlValue, coerce_numeric, is_numeric, to_text

__all__ = [
    "ANALYZER_COUNTERS",
    "Column",
    "DIAGNOSTIC_CODES",
    "Database",
    "Diagnostic",
    "QueryAnalysis",
    "EmptyResultError",
    "Engine",
    "ExecutionError",
    "ParseError",
    "PlanCache",
    "PlanError",
    "QueryResult",
    "QueryResultCache",
    "SelectStatement",
    "SqlError",
    "SqlValue",
    "Table",
    "TokenizeError",
    "analyze_sql",
    "coerce_numeric",
    "create_table_select_3_text",
    "dump_csv",
    "dump_database",
    "create_table_text",
    "engine_for",
    "engine_stats",
    "is_numeric",
    "load_csv",
    "load_csv_directory",
    "markdown_table_text",
    "normalize_sql",
    "parse_select",
    "prompt_schema_text",
    "render_diagnostics",
    "reset_analyzer",
    "reset_engine_stats",
    "schema_text",
    "shape_diagnostics",
    "shared_plan_cache",
    "to_text",
    "walk_expressions",
    "walk_subqueries",
]
