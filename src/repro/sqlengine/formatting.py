"""Rendering schemas and data samples into prompt text.

The one-shot prompt template (paper Figure 3) embeds the database schema;
the P1 baseline ("Create Table + Select 3", Rajkumar et al.) additionally
embeds the first three rows of each table. This module produces both
renderings from :class:`~repro.sqlengine.table.Database` objects.
"""

from __future__ import annotations

from repro.cache import TieredCache

from .ast_nodes import quote_identifier, quote_string
from .table import Database, Table
from .values import to_text

#: Rendered prompt schemas kept, one per (database state, preview
#: length). Every attempt on a document embeds the same few KB of text.
SCHEMA_MEMO_SIZE = 128

_SCHEMA_MEMO = TieredCache("prompt_schema", SCHEMA_MEMO_SIZE)


def create_table_text(table: Table) -> str:
    """Render one table as a ``CREATE TABLE`` statement."""
    column_lines = [
        f"    {quote_identifier(column.name)} {column.type_name}"
        for column in table.columns()
    ]
    body = ",\n".join(column_lines)
    return f"CREATE TABLE {quote_identifier(table.name)} (\n{body}\n)"


def schema_text(database: Database) -> str:
    """Render all tables of a database as CREATE TABLE statements."""
    return "\n\n".join(create_table_text(t) for t in database.tables())


def select_sample_text(table: Table, limit: int = 3) -> str:
    """Render a ``SELECT * ... LIMIT n`` preview, P1-baseline style."""
    header = f"SELECT * FROM {quote_identifier(table.name)} LIMIT {limit};"
    lines = [header]
    lines.append(" | ".join(table.column_names))
    for row in table.head(limit):
        lines.append(" | ".join(to_text(v) for v in row))
    return "\n".join(lines)


def create_table_select_3_text(database: Database) -> str:
    """Render the full P1 "Create Table + Select 3" context block."""
    blocks = []
    for table in database.tables():
        blocks.append(create_table_text(table))
        blocks.append(select_sample_text(table))
    return "\n\n".join(blocks)


def prompt_schema_text(database: Database, sample_rows: int = 3) -> str:
    """Schema rendering for claim-translation prompts (paper Table 1).

    The sample prompt in the paper shows the schema *with* example rows,
    which is what lets the model infer value formats. Renders every table
    as CREATE TABLE plus a short row preview. Memoized on
    :meth:`Database.fingerprint`, so ``add`` invalidates the rendering.
    """
    key = (database.fingerprint(), sample_rows)
    text = _SCHEMA_MEMO.get(key)
    if text is None:
        text = _render_prompt_schema(database, sample_rows)
        _SCHEMA_MEMO.put(key, text)
    return text


def _render_prompt_schema(database: Database, sample_rows: int) -> str:
    blocks = []
    for table in database.tables():
        blocks.append(create_table_text(table))
        preview = [" | ".join(table.column_names)]
        for row in table.head(sample_rows):
            preview.append(" | ".join(to_text(v) for v in row))
        blocks.append("\n".join(preview))
    return "\n\n".join(blocks)


def markdown_table_text(table: Table, limit: int | None = None) -> str:
    """Render a table as GitHub-flavoured markdown (TAPEX-style flattening)."""
    rows = table.rows if limit is None else table.rows[:limit]
    lines = ["| " + " | ".join(table.column_names) + " |"]
    lines.append("|" + "|".join([" --- "] * len(table.column_names)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(to_text(v) for v in row) + " |")
    return "\n".join(lines)


def insert_statements_text(table: Table, limit: int | None = None) -> str:
    """Render rows as INSERT statements (useful for exporting datasets)."""
    rows = table.rows if limit is None else table.rows[:limit]
    columns = ", ".join(quote_identifier(c) for c in table.column_names)
    statements = []
    for row in rows:
        rendered = ", ".join(
            quote_string(v) if isinstance(v, str) else to_text(v) for v in row
        )
        statements.append(
            f"INSERT INTO {quote_identifier(table.name)} ({columns}) "
            f"VALUES ({rendered});"
        )
    return "\n".join(statements)
