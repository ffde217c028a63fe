"""Expression compilation: AST nodes → Python closures over row tuples.

The interpreted :class:`~repro.sqlengine.expressions.Evaluator` re-walks
the expression tree and re-resolves every column name (a linear scan of
the scope's columns) for every row. The compiler does both jobs once per
(statement, relation schema): column references become fixed tuple
indexes, and each node becomes a small closure, so per-row evaluation is
just nested function calls.

The contract is strict semantic equivalence with the evaluator — same
three-valued logic, same short-circuiting, same error types *and
messages*, in the same per-row order. Anything the compiler cannot honour
bit-for-bit (subqueries, unresolved or ambiguous columns, aggregates in
scalar position, ``Star``) raises :class:`CompileError` at compile time,
and the executor silently falls back to the interpreted path. A compile
failure is therefore never user-visible: it only costs speed. In
particular, name-resolution *errors* must stay lazy — the naive engine
only raises "unknown column" when a row is actually evaluated, so an
optimized engine must not raise it at compile time for a relation that
turns out to be empty.

Two entry points:

* :func:`compile_scalar` — closure over one row tuple.
* :func:`compile_grouped` — closure over ``(group_rows, representative
  row)``; aggregate arguments are compiled per-row against the same
  schema. Callers handle empty groups themselves (the evaluator's
  representative-scope trick has no compiled analogue).
"""

from __future__ import annotations

from typing import Callable

from . import ast_nodes as ast
from .errors import ExecutionError
from .expressions import ColumnInfo, _like_to_regex, _truthy
from .functions import aggregate, call_scalar
from .values import (
    SqlValue,
    cast_value,
    coerce_numeric,
    compare_values,
    to_text,
)

#: A compiled scalar expression: row tuple → value.
RowFn = Callable[[tuple], SqlValue]
#: A compiled grouped expression: (group rows, representative row) → value.
GroupFn = Callable[[list, tuple], SqlValue]


class CompileError(Exception):
    """Expression not compilable; the caller falls back to the evaluator."""


def resolve_column(
    columns: list[ColumnInfo], name: str, table: str | None
) -> int:
    """Resolve a column reference to a unique position, or CompileError.

    Mirrors :meth:`Scope.resolve` matching rules, but treats both misses
    (the evaluator would try outer scopes or raise lazily) and ambiguity
    (the evaluator raises per-row) as "not compilable" so the fallback
    path reproduces the reference behaviour exactly.
    """
    name_lower = name.lower()
    table_lower = table.lower() if table else None
    matches = [
        index
        for index, info in enumerate(columns)
        if info.name == name_lower
        and (table_lower is None or info.table == table_lower)
    ]
    if len(matches) != 1:
        raise CompileError(f"cannot statically resolve column {name!r}")
    return matches[0]


def compile_scalar(node: ast.Expression, columns: list[ColumnInfo]) -> RowFn:
    """Compile an expression into a closure over a single row tuple."""
    return _compile(node, columns, grouped=False)


def compile_grouped(node: ast.Expression, columns: list[ColumnInfo]) -> GroupFn:
    """Compile a grouped expression into a closure over (rows, rep_row).

    Non-aggregate subtrees evaluate against the representative row —
    matching the evaluator, which scopes the group's first row for bare
    column references in an aggregate query.
    """
    return _compile(node, columns, grouped=True)


# Internally every closure takes a single ``ctx`` argument: the row tuple
# in scalar mode, the ``(rows, rep_row)`` pair in grouped mode. Only the
# two leaf kinds that actually touch rows (ColumnRef, AggregateCall)
# differ between modes; all structural handlers are mode-agnostic.


def _compile(node: ast.Expression, columns, grouped: bool):
    handler = _COMPILERS.get(type(node))
    if handler is None:
        raise CompileError(f"uncompilable node {type(node).__name__}")
    return handler(node, columns, grouped)


def _c_literal(node: ast.Literal, columns, grouped):
    value = node.value
    return lambda ctx: value


def _c_column(node: ast.ColumnRef, columns, grouped):
    position = resolve_column(columns, node.name, node.table)
    if grouped:
        return lambda ctx: ctx[1][position]
    return lambda ctx: ctx[position]


def _c_aggregate(node: ast.AggregateCall, columns, grouped):
    if not grouped:
        raise CompileError("aggregate in scalar context")
    name = node.name
    if isinstance(node.argument, ast.Star):
        if name != "COUNT":
            raise CompileError(f"{name}(*)")
        return lambda ctx: len(ctx[0])
    argument = compile_scalar(node.argument, columns)
    distinct = node.distinct
    return lambda ctx: aggregate(
        name, [argument(row) for row in ctx[0]], distinct
    )


def _c_unary(node: ast.UnaryOp, columns, grouped):
    operand = _compile(node.operand, columns, grouped)
    if node.op == "NOT":
        def run_not(ctx):
            value = operand(ctx)
            if value is None:
                return None
            return not _truthy(value)
        return run_not
    if node.op == "-":
        def run_neg(ctx):
            value = operand(ctx)
            if value is None:
                return None
            number = coerce_numeric(value)
            if number is None:
                raise ExecutionError(f"cannot negate {value!r}")
            return -number
        return run_neg
    raise CompileError(f"unary operator {node.op}")


def _c_binary(node: ast.BinaryOp, columns, grouped):
    op = node.op
    left = _compile(node.left, columns, grouped)
    right = _compile(node.right, columns, grouped)
    if op == "AND":
        def run_and(ctx):
            left_value = left(ctx)
            if left_value is not None and not _truthy(left_value):
                return False
            right_value = right(ctx)
            if right_value is not None and not _truthy(right_value):
                return False
            if left_value is None or right_value is None:
                return None
            return True
        return run_and
    if op == "OR":
        def run_or(ctx):
            left_value = left(ctx)
            if left_value is not None and _truthy(left_value):
                return True
            right_value = right(ctx)
            if right_value is not None and _truthy(right_value):
                return True
            if left_value is None or right_value is None:
                return None
            return False
        return run_or
    if op in ("=", "<>", "<", "<=", ">", ">="):
        test = _COMPARISON_TESTS[op]
        def run_compare(ctx):
            left_value = left(ctx)
            right_value = right(ctx)
            if left_value is None or right_value is None:
                return None
            return test(compare_values(left_value, right_value))
        return run_compare
    if op == "||":
        def run_concat(ctx):
            left_value = left(ctx)
            right_value = right(ctx)
            if left_value is None or right_value is None:
                return None
            return to_text(left_value) + to_text(right_value)
        return run_concat
    if op in ("+", "-", "*", "/", "%"):
        arith = _ARITHMETIC_OPS[op]
        def run_arith(ctx):
            left_value = left(ctx)
            right_value = right(ctx)
            if left_value is None or right_value is None:
                return None
            left_num = coerce_numeric(left_value)
            right_num = coerce_numeric(right_value)
            if left_num is None or right_num is None:
                raise ExecutionError(
                    f"arithmetic {op} requires numbers, "
                    f"got {left_value!r} and {right_value!r}"
                )
            return arith(left_num, right_num)
        return run_arith
    raise CompileError(f"binary operator {op}")


_COMPARISON_TESTS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def _div(left_num, right_num):
    if right_num == 0:
        raise ExecutionError("division by zero")
    return left_num / right_num


def _mod(left_num, right_num):
    if right_num == 0:
        raise ExecutionError("modulo by zero")
    return left_num % right_num


_ARITHMETIC_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "%": _mod,
}


def _c_function(node: ast.FunctionCall, columns, grouped):
    name = node.name.upper()
    args = [_compile(a, columns, grouped) for a in node.args]
    return lambda ctx: call_scalar(name, [a(ctx) for a in args])


def _c_in(node: ast.InExpr, columns, grouped):
    if node.subquery is not None:
        raise CompileError("IN subquery")
    operand = _compile(node.operand, columns, grouped)
    items = [_compile(item, columns, grouped) for item in node.items or ()]
    negated = node.negated

    def run_in(ctx):
        value = operand(ctx)
        if value is None:
            return None
        # Evaluate every item before testing, exactly like the evaluator:
        # a raising item (e.g. 1/0) after a matching one must still raise.
        candidates = [item(ctx) for item in items]
        saw_null = False
        for candidate in candidates:
            if candidate is None:
                saw_null = True
                continue
            if compare_values(value, candidate) == 0:
                return not negated
        if saw_null:
            return None
        return negated
    return run_in


def _c_between(node: ast.BetweenExpr, columns, grouped):
    operand = _compile(node.operand, columns, grouped)
    low = _compile(node.low, columns, grouped)
    high = _compile(node.high, columns, grouped)
    negated = node.negated

    def run_between(ctx):
        value = operand(ctx)
        low_value = low(ctx)
        high_value = high(ctx)
        if value is None or low_value is None or high_value is None:
            return None
        inside = (
            compare_values(value, low_value) >= 0
            and compare_values(value, high_value) <= 0
        )
        return inside != negated
    return run_between


def _c_like(node: ast.LikeExpr, columns, grouped):
    operand = _compile(node.operand, columns, grouped)
    negated = node.negated
    if isinstance(node.pattern, ast.Literal) and node.pattern.value is not None:
        # Constant pattern: translate to a regex once instead of per row.
        regex = _like_to_regex(to_text(node.pattern.value))

        def run_like_constant(ctx):
            value = operand(ctx)
            if value is None:
                return None
            matched = regex.fullmatch(to_text(value)) is not None
            return matched != negated
        return run_like_constant
    pattern = _compile(node.pattern, columns, grouped)

    def run_like(ctx):
        value = operand(ctx)
        pattern_value = pattern(ctx)
        if value is None or pattern_value is None:
            return None
        regex = _like_to_regex(to_text(pattern_value))
        matched = regex.fullmatch(to_text(value)) is not None
        return matched != negated
    return run_like


def _c_is_null(node: ast.IsNullExpr, columns, grouped):
    operand = _compile(node.operand, columns, grouped)
    negated = node.negated
    return lambda ctx: (operand(ctx) is None) != negated


def _c_case(node: ast.CaseExpr, columns, grouped):
    branches = [
        (_compile(condition, columns, grouped),
         _compile(result, columns, grouped))
        for condition, result in node.branches
    ]
    default = (
        _compile(node.default, columns, grouped)
        if node.default is not None else None
    )

    def run_case(ctx):
        for condition, result in branches:
            value = condition(ctx)
            if value is not None and _truthy(value):
                return result(ctx)
        if default is not None:
            return default(ctx)
        return None
    return run_case


def _c_cast(node: ast.CastExpr, columns, grouped):
    operand = _compile(node.operand, columns, grouped)
    type_name = node.type_name
    return lambda ctx: cast_value(operand(ctx), type_name)


_COMPILERS = {
    ast.Literal: _c_literal,
    ast.ColumnRef: _c_column,
    ast.AggregateCall: _c_aggregate,
    ast.UnaryOp: _c_unary,
    ast.BinaryOp: _c_binary,
    ast.FunctionCall: _c_function,
    ast.InExpr: _c_in,
    ast.BetweenExpr: _c_between,
    ast.LikeExpr: _c_like,
    ast.IsNullExpr: _c_is_null,
    ast.CaseExpr: _c_case,
    ast.CastExpr: _c_cast,
    # Star, ScalarSubquery, ExistsExpr: intentionally absent — subqueries
    # need live scope chains, Star is handled by select-list expansion.
}


# -- static analysis for the pushdown planner -------------------------------

# The totality facts now live in the analyzer (which owns all static
# judgments about expressions); re-exported here because the planner and
# executor historically import them from the compiler.
from .analyzer import is_total, split_conjuncts  # noqa: E402,F401
