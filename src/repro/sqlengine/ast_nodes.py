"""Abstract syntax tree for the SQL subset.

Every node knows how to render itself back to SQL text (``to_sql``), which
the query-reconstruction stage (Algorithm 9) and the complexity analyser
(Table 3) rely on. Rendering always quotes identifiers, so round-tripping is
insensitive to the quoting style of the original query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .values import SqlValue, to_text

Expression = Union[
    "Literal", "ColumnRef", "Star", "UnaryOp", "BinaryOp", "FunctionCall",
    "AggregateCall", "InExpr", "BetweenExpr", "LikeExpr", "IsNullExpr",
    "CaseExpr", "CastExpr", "ScalarSubquery", "ExistsExpr",
]


def quote_identifier(name: str) -> str:
    """Render an identifier with double quotes (doubling embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


def quote_string(text: str) -> str:
    """Render a string literal with single quotes."""
    return "'" + text.replace("'", "''") + "'"


@dataclass(frozen=True)
class Literal:
    """A constant value (number, string, boolean, or NULL)."""

    value: SqlValue

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return quote_string(self.value)
        return to_text(self.value)


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    def to_sql(self) -> str:
        if self.table:
            return f"{quote_identifier(self.table)}.{quote_identifier(self.name)}"
        return quote_identifier(self.name)


@dataclass(frozen=True)
class Star:
    """``*`` or ``table.*`` in a select list or inside COUNT(*)."""

    table: str | None = None

    def to_sql(self) -> str:
        return f"{quote_identifier(self.table)}.*" if self.table else "*"


@dataclass(frozen=True)
class UnaryOp:
    """Unary operator application: ``-x`` or ``NOT x``."""

    op: str
    operand: Expression

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.to_sql()})"
        return f"{self.op}({self.operand.to_sql()})"


@dataclass(frozen=True)
class BinaryOp:
    """Binary operator application (arithmetic, comparison, AND/OR, ``||``)."""

    op: str
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class FunctionCall:
    """A scalar function call such as ``ABS(x)`` or ``ROUND(x, 2)``."""

    name: str
    args: tuple[Expression, ...]

    def to_sql(self) -> str:
        rendered = ", ".join(a.to_sql() for a in self.args)
        return f"{self.name.upper()}({rendered})"


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate call: COUNT/SUM/AVG/MIN/MAX, optionally DISTINCT."""

    name: str
    argument: Expression
    distinct: bool = False

    def to_sql(self) -> str:
        inner = self.argument.to_sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"


@dataclass(frozen=True)
class InExpr:
    """``expr [NOT] IN (list | subquery)``."""

    operand: Expression
    items: tuple[Expression, ...] | None
    subquery: "SelectStatement | None" = None
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        if self.subquery is not None:
            return f"({self.operand.to_sql()} {keyword} ({self.subquery.to_sql()}))"
        rendered = ", ".join(i.to_sql() for i in self.items or ())
        return f"({self.operand.to_sql()} {keyword} ({rendered}))"


@dataclass(frozen=True)
class BetweenExpr:
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {keyword} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class LikeExpr:
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql()} {keyword} {self.pattern.to_sql()})"


@dataclass(frozen=True)
class IsNullExpr:
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {keyword})"


@dataclass(frozen=True)
class CaseExpr:
    """A searched CASE expression: ``CASE WHEN … THEN … [ELSE …] END``."""

    branches: tuple[tuple[Expression, Expression], ...]
    default: Expression | None = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class CastExpr:
    """``CAST(expr AS type)``."""

    operand: Expression
    type_name: str

    def to_sql(self) -> str:
        return f"CAST({self.operand.to_sql()} AS {self.type_name.upper()})"


@dataclass(frozen=True)
class ScalarSubquery:
    """A parenthesised SELECT used as a scalar expression."""

    query: "SelectStatement"

    def to_sql(self) -> str:
        return f"({self.query.to_sql()})"


@dataclass(frozen=True)
class ExistsExpr:
    """``[NOT] EXISTS (subquery)``."""

    query: "SelectStatement"
    negated: bool = False

    def to_sql(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({keyword} ({self.query.to_sql()}))"


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expression.to_sql()} AS {quote_identifier(self.alias)}"
        return self.expression.to_sql()


@dataclass(frozen=True)
class TableRef:
    """A base table in the FROM clause, with an optional alias."""

    name: str
    alias: str | None = None

    def effective_alias(self) -> str:
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{quote_identifier(self.name)} AS {quote_identifier(self.alias)}"
        return quote_identifier(self.name)


@dataclass(frozen=True)
class Join:
    """A join step applied to the FROM clause built so far."""

    kind: str  # "INNER", "LEFT", or "CROSS"
    table: TableRef
    condition: Expression | None = None

    def to_sql(self) -> str:
        if self.kind == "CROSS":
            return f"CROSS JOIN {self.table.to_sql()}"
        condition = self.condition.to_sql() if self.condition else "TRUE"
        return f"{self.kind} JOIN {self.table.to_sql()} ON {condition}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key with its direction."""

    expression: Expression
    descending: bool = False

    def to_sql(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return f"{self.expression.to_sql()} {direction}"


@dataclass(frozen=True)
class SelectStatement:
    """A full SELECT statement in the supported subset."""

    items: tuple[SelectItem, ...]
    from_table: TableRef | None = None
    joins: tuple[Join, ...] = field(default=())
    where: Expression | None = None
    group_by: tuple[Expression, ...] = field(default=())
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = field(default=())
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        if self.from_table is not None:
            parts.append(f"FROM {self.from_table.to_sql()}")
        for join in self.joins:
            parts.append(join.to_sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(e.to_sql() for e in self.group_by)
            )
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


def walk_expressions(node: object):
    """Yield every expression node reachable from ``node`` (inclusive).

    Descends through select statements, joins, and nested expressions, but
    stops at sub-query boundaries: nested SELECTs are yielded as their
    wrapper nodes (``ScalarSubquery`` etc.) without entering them. Use
    :func:`walk_subqueries` to enumerate nested statements. Used by the
    query-complexity analyser and by tests.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        if isinstance(current, SelectStatement):
            stack.extend(item.expression for item in current.items)
            stack.extend(j.condition for j in current.joins)
            stack.append(current.where)
            stack.extend(current.group_by)
            stack.append(current.having)
            stack.extend(o.expression for o in current.order_by)
            continue
        yield current
        if isinstance(current, UnaryOp):
            stack.append(current.operand)
        elif isinstance(current, BinaryOp):
            stack.extend((current.left, current.right))
        elif isinstance(current, FunctionCall):
            stack.extend(current.args)
        elif isinstance(current, AggregateCall):
            stack.append(current.argument)
        elif isinstance(current, InExpr):
            stack.append(current.operand)
            if current.items:
                stack.extend(current.items)
        elif isinstance(current, BetweenExpr):
            stack.extend((current.operand, current.low, current.high))
        elif isinstance(current, LikeExpr):
            stack.extend((current.operand, current.pattern))
        elif isinstance(current, IsNullExpr):
            stack.append(current.operand)
        elif isinstance(current, CaseExpr):
            for condition, result in current.branches:
                stack.extend((condition, result))
            if current.default is not None:
                stack.append(current.default)
        elif isinstance(current, CastExpr):
            stack.append(current.operand)
        # ScalarSubquery / ExistsExpr / InExpr subqueries are boundaries:
        # the wrapper is yielded, the nested statement is not entered.


def is_aggregate_query(statement: SelectStatement) -> bool:
    """True when the statement groups: GROUP BY, or an aggregate call in
    the select list or HAVING (ORDER BY alone does not make it one)."""
    if statement.group_by:
        return True
    candidates: list[object] = [item.expression for item in statement.items]
    candidates.append(statement.having)
    return any(
        isinstance(node, AggregateCall)
        for candidate in candidates
        for node in walk_expressions(candidate)
    )


def is_ordinal(expression: Expression) -> bool:
    """True for an ORDER BY item that names a select item by 1-based
    position: an integer literal. ``TRUE``/``FALSE`` are constant sort
    keys, not positions, although ``bool`` subclasses ``int``."""
    return (
        isinstance(expression, Literal)
        and isinstance(expression.value, int)
        and not isinstance(expression.value, bool)
    )


def walk_subqueries(statement: SelectStatement):
    """Yield every nested SelectStatement under ``statement`` (exclusive)."""
    for node in walk_expressions(statement):
        if isinstance(node, ScalarSubquery):
            yield node.query
            yield from walk_subqueries(node.query)
        elif isinstance(node, ExistsExpr):
            yield node.query
            yield from walk_subqueries(node.query)
        elif isinstance(node, InExpr) and node.subquery is not None:
            yield node.subquery
            yield from walk_subqueries(node.subquery)
