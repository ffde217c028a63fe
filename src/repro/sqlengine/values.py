"""Value model shared by the whole SQL engine.

The engine works with a small set of Python-native value types:

* ``None`` — SQL ``NULL``
* ``bool`` — SQL booleans (kept distinct from integers for display)
* ``int`` / ``float`` — SQL numerics
* ``str`` — SQL text

This module centralises coercion, comparison, and display rules so that the
expression evaluator, the aggregate functions, and the claim-validation code
in :mod:`repro.core` all agree on the semantics.
"""

from __future__ import annotations

import math
from typing import Any

from .errors import ExecutionError

SqlValue = None | bool | int | float | str

#: Type names accepted by ``CAST(expr AS <type>)``.
CASTABLE_TYPES = ("INTEGER", "INT", "BIGINT", "REAL", "FLOAT", "DOUBLE",
                  "TEXT", "VARCHAR", "STRING", "BOOLEAN", "BOOL")


def is_null(value: SqlValue) -> bool:
    """Return True when the value is SQL NULL."""
    return value is None


def coerce_numeric(value: SqlValue) -> float | int | None:
    """Best-effort conversion of a value to a number.

    Returns None when the value cannot be interpreted numerically. Strings
    holding numerals (e.g. ``"42"``, ``"3.5"``) convert, matching the loose
    typing of CSV-backed tables.
    """
    if value is None or isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        text = value.strip().replace(",", "")
        if not text:
            return None
        try:
            as_int = int(text)
        except ValueError:
            pass
        else:
            return as_int
        try:
            as_float = float(text)
        except ValueError:
            return None
        return as_float
    return None


def compare_values(left: SqlValue, right: SqlValue) -> int:
    """Three-way comparison of two SQL values.

    Returns a negative number, zero, or a positive number, like the classic
    ``cmp``. NULL never compares (callers must handle NULL before calling).
    Numbers compare numerically; a number and a numeric-looking string also
    compare numerically, because the synthetic tables (like real CSV data)
    sometimes store numbers as text. Everything else compares as text.
    """
    if left is None or right is None:
        raise ExecutionError("cannot compare NULL values")
    left_num = coerce_numeric(left)
    right_num = coerce_numeric(right)
    if left_num is not None and right_num is not None:
        if left_num < right_num:
            return -1
        if left_num > right_num:
            return 1
        return 0
    left_text = to_text(left)
    right_text = to_text(right)
    if left_text < right_text:
        return -1
    if left_text > right_text:
        return 1
    return 0


def values_equal(left: SqlValue, right: SqlValue) -> bool:
    """SQL equality with numeric coercion; NULL equals nothing."""
    if left is None or right is None:
        return False
    return compare_values(left, right) == 0


def equality_key(value: SqlValue) -> tuple | None:
    """Hashable key such that two non-NULL values share a key exactly when
    :func:`compare_values` says they are equal.

    Numeric-coercible values key on the coerced number (Python unifies the
    hash of equal ints and floats), everything else on its display text —
    mirroring the two comparison branches of :func:`compare_values`. NaN
    breaks the equivalence (``compare_values`` reports NaN equal to every
    number, hashing cannot), so NaN-keyed values return None and callers
    must fall back to pairwise comparison.
    """
    if value is None:
        return None
    number = coerce_numeric(value)
    if number is not None:
        if number != number:  # NaN: unrepresentable as a hash class
            return None
        return ("num", number)
    return ("text", to_text(value))


def to_text(value: SqlValue) -> str:
    """Render a value the way the engine displays it in results."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def cast_value(value: SqlValue, type_name: str) -> SqlValue:
    """Implement ``CAST(value AS type_name)``.

    NULL casts to NULL. Failed numeric casts raise :class:`ExecutionError`,
    matching strict engines (the agent treats such errors as feedback).
    """
    upper = type_name.upper()
    if upper not in CASTABLE_TYPES:
        raise ExecutionError(f"unknown cast target type: {type_name}")
    if value is None:
        return None
    if upper in ("INTEGER", "INT", "BIGINT"):
        number = coerce_numeric(value)
        if number is None:
            raise ExecutionError(f"cannot cast {value!r} to INTEGER")
        return int(number)
    if upper in ("REAL", "FLOAT", "DOUBLE"):
        number = coerce_numeric(value)
        if number is None:
            raise ExecutionError(f"cannot cast {value!r} to REAL")
        return float(number)
    if upper in ("BOOLEAN", "BOOL"):
        if isinstance(value, bool):
            return value
        number = coerce_numeric(value)
        if number is not None:
            return bool(number)
        text = str(value).strip().lower()
        if text in ("true", "t", "yes"):
            return True
        if text in ("false", "f", "no"):
            return False
        raise ExecutionError(f"cannot cast {value!r} to BOOLEAN")
    return to_text(value) if not isinstance(value, str) else value


def infer_column_type(values: list[Any]) -> str:
    """Infer a display type name for a column from its values.

    Used when rendering schemas into prompts (``CREATE TABLE`` text). The
    rules mirror how CSV loaders sniff types: all-numeric columns become
    INTEGER/REAL, everything else TEXT.
    """
    saw_float = False
    saw_int = False
    saw_text = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            saw_text = True
        elif isinstance(value, int):
            saw_int = True
        elif isinstance(value, float):
            saw_float = True
        else:
            saw_text = True
    if saw_text or not (saw_int or saw_float):
        return "TEXT"
    if saw_float:
        return "REAL"
    return "INTEGER"
