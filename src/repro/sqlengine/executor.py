"""Query executor: binds a parsed SELECT to a database and runs it.

Two execution modes share one code base:

* ``naive=True`` — the original reference strategy: parse per call,
  nested-loop joins, per-row :class:`Evaluator` tree walks. Kept verbatim
  as the semantic oracle for differential tests and benchmarks.
* default (optimized) — the compile-and-cache strategy: statements come
  from a shared :class:`~repro.sqlengine.planner.PlanCache`, expressions
  are compiled to closures once per (statement, schema), a single-table
  WHERE is split into conjuncts applied during the scan, ``col = literal``
  scans use lazy per-table indexes, and joins run as nested loops over a
  compiled ON condition. Finished results can be cached per (database
  content fingerprint, normalized SQL) in a
  :class:`~repro.sqlengine.planner.QueryResultCache`.

The optimized mode is required to be *byte-identical* to naive: same
rows, same row order, same errors. Everything that cannot be proven
equivalent statically (subqueries, unresolved names, predicates that can
raise) falls back to the interpreted path — see
:mod:`repro.sqlengine.compiler` for the rules.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.tracer import MAX_ATTRIBUTE_LENGTH, current_tracer

from . import ast_nodes as ast
from .analyzer import subquery_is_cacheable
from .compiler import (
    CompileError,
    compile_grouped,
    compile_scalar,
    is_total,
    resolve_column,
    split_conjuncts,
)
from .errors import EmptyResultError, ExecutionError, PlanError
from .expressions import ColumnInfo, Evaluator, GroupContext, Scope, _truthy
from .parser import parse_select
from .planner import (
    DEFAULT_RESULT_CACHE_SIZE,
    STRATEGY_COUNTERS,
    PlanCache,
    QueryResultCache,
    normalize_sql,
    shared_plan_cache,
)
from .table import Database, Table
from .values import SqlValue


@dataclass
class QueryResult:
    """Rows produced by a query, with display column names."""

    columns: list[str]
    rows: list[tuple[SqlValue, ...]]

    def scalar(self) -> SqlValue:
        """Return the single cell of a single-cell result.

        Raises :class:`EmptyResultError` when the result has no rows (this
        is the error the paper's agent observes for wrong constants, see
        Figure 4) and :class:`ExecutionError` when the result is not a
        single cell.
        """
        if not self.rows:
            raise EmptyResultError()
        if len(self.rows) > 1 or len(self.columns) > 1:
            raise ExecutionError(
                f"expected a single cell, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]

    def first_cell(self) -> SqlValue:
        """Return the top-left cell, raising only on empty results."""
        if not self.rows:
            raise EmptyResultError()
        return self.rows[0][0]

    def copy(self) -> "QueryResult":
        """A defensive copy (rows are shared tuples, the lists are new)."""
        return QueryResult(list(self.columns), list(self.rows))


class _Relation:
    """An intermediate relation: column metadata plus rows."""

    def __init__(self, columns: list[ColumnInfo],
                 rows: list[tuple[SqlValue, ...]]):
        self.columns = columns
        self.rows = rows


_UNSET = object()


def _clip_sql(sql: str) -> str:
    """Clip SQL text to the tracer's attribute bound (``Tracer.leaf``
    trusts callers to pre-clip; a single length check here keeps the
    traced hot path from paying a generic per-attribute loop)."""
    if len(sql) > MAX_ATTRIBUTE_LENGTH:
        return sql[: MAX_ATTRIBUTE_LENGTH - 1] + "…"
    return sql


class Engine:
    """Executes SELECT statements against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        *,
        naive: bool = False,
        plan_cache: "PlanCache | None | object" = _UNSET,
        result_cache: QueryResultCache | None = None,
    ) -> None:
        self.database = database
        self._evaluator = Evaluator(self)
        self.naive = naive
        if naive:
            self.plan_cache: PlanCache | None = None
            self.result_cache: QueryResultCache | None = None
        else:
            self.plan_cache = (
                shared_plan_cache() if plan_cache is _UNSET else plan_cache
            )  # type: ignore[assignment]
            self.result_cache = result_cache
        # id(statement) -> (statement, fingerprint, cacheable, key_sql);
        # the statement reference both guards against id() reuse and keeps
        # the plan-cache entry alive so the memo stays valid.
        self._subquery_meta: dict[int, tuple] = {}

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute SQL text (consulting the caches, if any).

        When a tracer is active, one pre-timed ``sql_execute`` leaf span
        is recorded per call (the :meth:`Tracer.record` fast path — no
        stack operations). Cache hit/miss status is deliberately *not*
        an attribute: the shared plan/result caches are process-warm
        state, and span trees must be identical run over run.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return self._execute_text(sql)
        start = tracer.clock()
        try:
            result = self._execute_text(sql)
        except Exception as error:
            tracer.leaf(
                "sql", "sql_execute", start, tracer.clock(),
                {"sql": _clip_sql(sql), "error": type(error).__name__},
                status="error",
            )
            raise
        tracer.leaf(
            "sql", "sql_execute", start, tracer.clock(),
            {"sql": sql if len(sql) <= MAX_ATTRIBUTE_LENGTH
             else _clip_sql(sql),
             "rows": len(result.rows)},
        )
        return result

    def _execute_text(self, sql: str) -> QueryResult:
        if self.naive:
            STRATEGY_COUNTERS.bump("naive_executions")
            return self.execute_statement(parse_select(sql), [])
        key = normalize_sql(sql)
        statement = (
            self.plan_cache.get(key) if self.plan_cache is not None else None
        )
        if statement is None:
            statement = parse_select(sql)
            if self.plan_cache is not None:
                self.plan_cache.put(key, statement)
        if self.result_cache is None:
            return self.execute_statement(statement, [])
        cache_key = (self.database.content_fingerprint(), key)
        cached = self.result_cache.get(cache_key)
        if cached is not None:
            STRATEGY_COUNTERS.bump("result_cache_hits")
            return cached
        STRATEGY_COUNTERS.bump("result_cache_misses")
        result = self.execute_statement(statement, [])
        self.result_cache.put(cache_key, result)
        return result

    def execute_scalar(self, sql: str) -> SqlValue:
        """Execute SQL text expected to produce a single cell."""
        return self.execute(sql).scalar()

    def execute_subquery(
        self, statement: ast.SelectStatement, outer_scopes: list[Scope]
    ) -> QueryResult:
        """Execute a nested statement, consulting the result cache when safe.

        PR 3 never cached subqueries at all: the result cache was consulted
        only for top-level SQL text, an implicit convention that kept
        correlated subqueries (whose results depend on the outer row)
        correct at the price of re-running every *uncorrelated* subquery
        per outer row. The analyzer now proves which subqueries are pure
        functions of the database, so those hit the shared result cache
        while correlated ones still bypass it — explicitly, with counters.
        """
        if self.naive or self.result_cache is None:
            return self.execute_statement(statement, outer_scopes)
        fingerprint = self.database.content_fingerprint()
        meta = self._subquery_meta.get(id(statement))  # cedarlint: disable=CDL013
        if meta is None or meta[0] is not statement or meta[1] != fingerprint:
            cacheable = subquery_is_cacheable(statement, self.database)
            key_sql = normalize_sql(statement.to_sql()) if cacheable else None
            if len(self._subquery_meta) > 256:
                self._subquery_meta.clear()
            meta = (statement, fingerprint, cacheable, key_sql)
            self._subquery_meta[id(statement)] = meta  # cedarlint: disable=CDL013
        if not meta[2]:
            STRATEGY_COUNTERS.bump("subquery_cache_bypasses")
            return self.execute_statement(statement, outer_scopes)
        cache_key = (fingerprint, meta[3])
        cached = self.result_cache.get(cache_key)
        if cached is not None:
            STRATEGY_COUNTERS.bump("subquery_cache_hits")
            return cached
        STRATEGY_COUNTERS.bump("subquery_cache_misses")
        result = self.execute_statement(statement, outer_scopes)
        self.result_cache.put(cache_key, result)
        return result

    def execute_statement(
        self, statement: ast.SelectStatement, outer_scopes: list[Scope]
    ) -> QueryResult:
        """Execute a parsed statement; ``outer_scopes`` enables correlation.

        Subqueries re-enter here with live scopes, which is why the result
        cache is consulted only in :meth:`execute`: a correlated subquery's
        result depends on the outer row and must never be cached by text.
        """
        if self.naive:
            relation = self._build_from(statement, outer_scopes)
            if statement.where is not None:
                relation = self._filter(relation, statement.where, outer_scopes)
            names, tagged = self._project(statement, relation, outer_scopes)
        else:
            relation = self._build_filtered(statement, outer_scopes)
            names, tagged = self._project(statement, relation, outer_scopes)
        if statement.distinct:
            tagged = _dedupe_tagged(tagged)
        if statement.order_by:
            tagged.sort(key=lambda pair: pair[1])
        rows = [row for row, _ in tagged]
        if statement.offset is not None:
            rows = rows[statement.offset:]
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return QueryResult(names, rows)

    def _project(
        self,
        statement: ast.SelectStatement,
        relation: "_Relation",
        outer_scopes: list[Scope],
    ) -> tuple[list[str], list[tuple[tuple[SqlValue, ...], tuple]]]:
        if ast.is_aggregate_query(statement):
            return self._execute_grouped(statement, relation, outer_scopes)
        return self._execute_plain(statement, relation, outer_scopes)

    # -- FROM clause (naive) -----------------------------------------------

    def _build_from(
        self, statement: ast.SelectStatement, outer_scopes: list[Scope]
    ) -> _Relation:
        if statement.from_table is None:
            return _Relation([], [()])
        relation = self._scan(statement.from_table)
        for join in statement.joins:
            right = self._scan(join.table)
            relation = self._join(relation, right, join, outer_scopes)
        return relation

    def _scan(self, ref: ast.TableRef) -> _Relation:
        table: Table = self.database.table(ref.name)
        alias = ref.effective_alias().lower()
        columns = [
            ColumnInfo(alias, name.lower(), name) for name in table.column_names
        ]
        return _Relation(columns, list(table.rows))

    def _join(
        self,
        left: _Relation,
        right: _Relation,
        join: ast.Join,
        outer_scopes: list[Scope],
    ) -> _Relation:
        columns = left.columns + right.columns
        rows: list[tuple[SqlValue, ...]] = []
        null_right = (None,) * len(right.columns)
        for left_row in left.rows:
            matched = False
            for right_row in right.rows:
                combined = left_row + right_row
                if join.kind == "CROSS" or join.condition is None:
                    keep = True
                else:
                    scope = Scope(columns, combined)
                    value = self._evaluator.evaluate(
                        join.condition, [scope] + outer_scopes
                    )
                    keep = value is not None and _truthy(value)
                if keep:
                    matched = True
                    rows.append(combined)
            if join.kind == "LEFT" and not matched:
                rows.append(left_row + null_right)
        return _Relation(columns, rows)

    def _filter(
        self,
        relation: _Relation,
        condition: ast.Expression,
        outer_scopes: list[Scope],
    ) -> _Relation:
        kept: list[tuple[SqlValue, ...]] = []
        for row in relation.rows:
            scope = Scope(relation.columns, row)
            value = self._evaluator.evaluate(condition, [scope] + outer_scopes)
            if value is not None and _truthy(value):
                kept.append(row)
        return _Relation(relation.columns, kept)

    # -- FROM clause (optimized) ---------------------------------------------

    def _build_filtered(
        self, statement: ast.SelectStatement, outer_scopes: list[Scope]
    ) -> _Relation:
        """Scans, pushed predicates, and joins — the optimized pipeline.

        A single-table WHERE is split into conjuncts and pushed into the
        scan only when every conjunct is *splittable*: provably
        non-raising (see :func:`is_total`) with every column reference
        statically resolved. Otherwise — and always over a multi-table
        FROM — the whole WHERE tree is applied after the scan and joins
        exactly like the naive engine, because dropping rows early could
        skip (or reorder past) an evaluation that would have raised.
        """
        if statement.from_table is None:
            relation = _Relation([], [()])
        else:
            table = self.database.table(statement.from_table.name)
            columns = _scan_columns(statement.from_table, table)
            if not statement.joins:
                conjuncts = split_conjuncts(statement.where)
                if conjuncts and all(
                    _splittable(conj, columns) for conj in conjuncts
                ):
                    return self._scan_filtered(
                        table, columns, conjuncts, outer_scopes
                    )
            relation = _Relation(columns, table.rows)
            for join in statement.joins:
                right_table = self.database.table(join.table.name)
                right = _Relation(
                    _scan_columns(join.table, right_table), right_table.rows
                )
                relation = self._join_planned(
                    relation, right, join, outer_scopes
                )
        if statement.where is not None:
            relation = self._filter_predicates(
                relation, [statement.where], outer_scopes
            )
        return relation

    def _scan_filtered(
        self,
        table: Table,
        columns: list[ColumnInfo],
        conjuncts: list[ast.Expression],
        outer_scopes: list[Scope],
    ) -> _Relation:
        """Scan one table, applying pushed-down predicates during the scan.

        A ``col = literal`` conjunct is answered from the table's lazy
        equality index when the index can honour ``compare_values``
        semantics (it declines NaN); remaining conjuncts run as compiled
        predicates. Row order is always the table's row order.
        """
        rest = list(conjuncts)
        rows: list[tuple[SqlValue, ...]] | None = None
        for conj in conjuncts:
            probe = _index_probe(conj)
            if probe is None:
                continue
            ref, value = probe
            if value is None or not table.has_column(ref.name):
                continue
            positions = table.equality_rows(ref.name, value)
            if positions is None:
                continue
            rows = [table.rows[i] for i in positions]
            rest.remove(conj)
            STRATEGY_COUNTERS.bump("indexed_scans")
            break
        source = rows if rows is not None else table.rows
        if rest:
            source = self._filter_predicates(
                _Relation(columns, source), rest, outer_scopes
            ).rows
        return _Relation(columns, source)

    def _join_planned(
        self,
        left: _Relation,
        right: _Relation,
        join: ast.Join,
        outer_scopes: list[Scope],
    ) -> _Relation:
        """Nested loop over a compiled (or interpreted) ON condition.

        The naive ``_join`` with the condition compiled once per join
        instead of tree-walked per pair; a CROSS join or a missing ON is
        a plain cross product. Row order matches the naive loop.
        """
        columns = left.columns + right.columns
        if join.kind == "CROSS" or join.condition is None:
            rows = [
                left_row + right_row
                for left_row in left.rows
                for right_row in right.rows
            ]
            return _Relation(columns, rows)
        predicate = self._row_fn(join.condition, columns, outer_scopes)
        rows = []
        null_right = (None,) * len(right.columns)
        for left_row in left.rows:
            matched = False
            for right_row in right.rows:
                combined = left_row + right_row
                value = predicate(combined)
                if value is not None and _truthy(value):
                    matched = True
                    rows.append(combined)
            if join.kind == "LEFT" and not matched:
                rows.append(left_row + null_right)
        return _Relation(columns, rows)

    def _filter_predicates(
        self,
        relation: _Relation,
        conjuncts: list[ast.Expression],
        outer_scopes: list[Scope],
    ) -> _Relation:
        """Keep rows on which every conjunct is non-NULL truthy.

        For a single conjunct this is exactly the naive ``_filter``; for
        several (all total, by construction) the decomposition is sound
        because ``A AND B`` filters a row through iff both conjuncts do.
        """
        predicates = [
            self._row_fn(conj, relation.columns, outer_scopes)
            for conj in conjuncts
        ]
        kept: list[tuple[SqlValue, ...]] = []
        for row in relation.rows:
            for predicate in predicates:
                value = predicate(row)
                if value is None or not _truthy(value):
                    break
            else:
                kept.append(row)
        return _Relation(relation.columns, kept)

    # -- compiled/interpreted expression plumbing ----------------------------

    def _row_fn(
        self,
        expression: ast.Expression,
        columns: list[ColumnInfo],
        outer_scopes: list[Scope],
    ):
        """A row → value callable: compiled when possible, else interpreted."""
        if not self.naive:
            try:
                fn = compile_scalar(expression, columns)
            except CompileError:
                STRATEGY_COUNTERS.bump("interpreted_fallbacks")
            else:
                STRATEGY_COUNTERS.bump("compiled_expressions")
                return fn
        evaluator = self._evaluator

        def interpret(row: tuple[SqlValue, ...]) -> SqlValue:
            return evaluator.evaluate(
                expression, [Scope(columns, row)] + outer_scopes
            )
        return interpret

    def _grouped_fn(
        self,
        expression: ast.Expression,
        columns: list[ColumnInfo],
        outer_scopes: list[Scope],
    ):
        """A (group_rows, representative_row) → value callable.

        The compiled form cannot represent an *empty* group (the
        evaluator's representative scope disappears and bare columns may
        resolve outward or fail lazily), so empty groups — which only
        occur for global aggregates over empty relations — always take the
        interpreted branch.
        """
        fast = None
        if not self.naive:
            try:
                fast = compile_grouped(expression, columns)
            except CompileError:
                STRATEGY_COUNTERS.bump("interpreted_fallbacks")
            else:
                STRATEGY_COUNTERS.bump("compiled_expressions")
        evaluator = self._evaluator

        def interpret(rows, representative):
            context = GroupContext(columns, rows)
            scopes = (
                [Scope(columns, representative)]
                if representative is not None else []
            ) + outer_scopes
            return evaluator.evaluate(expression, scopes, context)

        if fast is None:
            return interpret

        def run(rows, representative):
            if representative is None:
                return interpret(rows, representative)
            return fast((rows, representative))
        return run

    # -- projection --------------------------------------------------------

    def _execute_plain(
        self,
        statement: ast.SelectStatement,
        relation: _Relation,
        outer_scopes: list[Scope],
    ) -> tuple[list[str], list[tuple[tuple[SqlValue, ...], tuple]]]:
        items = _expand_select_items(statement, relation.columns)
        order_items = _resolve_order_items(statement, items)
        names = [_output_name(item) for item in items]
        tagged: list[tuple[tuple[SqlValue, ...], tuple]] = []
        if self.naive:
            for row in relation.rows:
                scope = Scope(relation.columns, row)
                scopes = [scope] + outer_scopes
                output = tuple(
                    self._evaluator.evaluate(item.expression, scopes)
                    for item in items
                )
                keys = tuple(
                    _sort_key(
                        self._evaluator.evaluate(order.expression, scopes),
                        order.descending,
                    )
                    for order in order_items
                )
                tagged.append((output, keys))
            return names, tagged
        item_fns = [
            self._row_fn(item.expression, relation.columns, outer_scopes)
            for item in items
        ]
        order_fns = [
            (self._row_fn(order.expression, relation.columns, outer_scopes),
             order.descending)
            for order in order_items
        ]
        for row in relation.rows:
            output = tuple(fn(row) for fn in item_fns)
            keys = tuple(
                _sort_key(fn(row), descending) for fn, descending in order_fns
            )
            tagged.append((output, keys))
        return names, tagged

    def _execute_grouped(
        self,
        statement: ast.SelectStatement,
        relation: _Relation,
        outer_scopes: list[Scope],
    ) -> tuple[list[str], list[tuple[tuple[SqlValue, ...], tuple]]]:
        if any(isinstance(i.expression, ast.Star) for i in statement.items):
            raise PlanError("'*' cannot appear in an aggregate select list")
        items = list(statement.items)
        order_items = _resolve_order_items(statement, items)
        groups = self._group_rows(statement, relation, outer_scopes)
        names = [_output_name(item) for item in items]
        tagged: list[tuple[tuple[SqlValue, ...], tuple]] = []
        if self.naive:
            for group_rows in groups:
                context = GroupContext(relation.columns, group_rows)
                representative = (
                    [Scope(relation.columns, group_rows[0])]
                    if group_rows else []
                )
                scopes = representative + outer_scopes
                if statement.having is not None:
                    value = self._evaluator.evaluate(
                        statement.having, scopes, context
                    )
                    if value is None or not _truthy(value):
                        continue
                output = tuple(
                    self._evaluator.evaluate(item.expression, scopes, context)
                    for item in items
                )
                keys = tuple(
                    _sort_key(
                        self._evaluator.evaluate(
                            order.expression, scopes, context
                        ),
                        order.descending,
                    )
                    for order in order_items
                )
                tagged.append((output, keys))
            return names, tagged
        item_fns = [
            self._grouped_fn(item.expression, relation.columns, outer_scopes)
            for item in items
        ]
        having_fn = (
            self._grouped_fn(statement.having, relation.columns, outer_scopes)
            if statement.having is not None else None
        )
        order_fns = [
            (self._grouped_fn(
                order.expression, relation.columns, outer_scopes
            ), order.descending)
            for order in order_items
        ]
        for group_rows in groups:
            representative = group_rows[0] if group_rows else None
            if having_fn is not None:
                value = having_fn(group_rows, representative)
                if value is None or not _truthy(value):
                    continue
            output = tuple(
                fn(group_rows, representative) for fn in item_fns
            )
            keys = tuple(
                _sort_key(fn(group_rows, representative), descending)
                for fn, descending in order_fns
            )
            tagged.append((output, keys))
        return names, tagged

    def _group_rows(
        self,
        statement: ast.SelectStatement,
        relation: _Relation,
        outer_scopes: list[Scope],
    ) -> list[list[tuple[SqlValue, ...]]]:
        if not statement.group_by:
            # A single group covering the whole relation (global aggregate).
            return [relation.rows]
        buckets: dict[tuple[SqlValue, ...], list[tuple[SqlValue, ...]]] = {}
        if self.naive:
            for row in relation.rows:
                scope = Scope(relation.columns, row)
                scopes = [scope] + outer_scopes
                key = tuple(
                    self._evaluator.evaluate(expr, scopes)
                    for expr in statement.group_by
                )
                buckets.setdefault(key, []).append(row)
            return list(buckets.values())
        key_fns = [
            self._row_fn(expr, relation.columns, outer_scopes)
            for expr in statement.group_by
        ]
        for row in relation.rows:
            key = tuple(fn(row) for fn in key_fns)
            buckets.setdefault(key, []).append(row)
        return list(buckets.values())


# -- per-database engine registry --------------------------------------------

_ENGINE_LOCK = threading.Lock()


def engine_for(
    database: Database,
    result_cache: "QueryResultCache | None | object" = _UNSET,
) -> Engine:
    """The shared optimized engine for a database (one per Database).

    The engine is cached as an attribute on the Database itself rather
    than in a weakref-keyed registry: the engine holds a strong reference
    back to its database, so a WeakKeyDictionary entry would never be
    collected, while an attribute forms a simple cycle the garbage
    collector already handles. Pass ``result_cache`` to rebind the
    engine's result cache (``None`` disables it); omit it to leave the
    current cache — a private per-database one by default — in place.
    """
    engine = getattr(database, "_cached_engine", None)
    if engine is None:
        with _ENGINE_LOCK:
            engine = getattr(database, "_cached_engine", None)
            if engine is None:
                engine = Engine(
                    database,
                    result_cache=QueryResultCache(DEFAULT_RESULT_CACHE_SIZE),
                )
                database._cached_engine = engine
    if result_cache is not _UNSET and engine.result_cache is not result_cache:
        engine.result_cache = result_cache  # type: ignore[assignment]
    return engine


# -- planning helpers --------------------------------------------------------


def _expand_select_items(
    statement: ast.SelectStatement, columns: list[ColumnInfo]
) -> list[ast.SelectItem]:
    """Expand ``*`` / ``table.*`` select items against resolved columns."""
    expanded: list[ast.SelectItem] = []
    for item in statement.items:
        if isinstance(item.expression, ast.Star):
            table = item.expression.table
            table_lower = table.lower() if table else None
            selected = [
                info
                for info in columns
                if table_lower is None or info.table == table_lower
            ]
            if table_lower is not None and not selected:
                raise PlanError(f"unknown table in {table}.*")
            for info in selected:
                expanded.append(
                    ast.SelectItem(
                        ast.ColumnRef(info.display, info.table), info.display
                    )
                )
        else:
            expanded.append(item)
    return expanded


def _resolve_order_items(
    statement: ast.SelectStatement, items: list[ast.SelectItem]
) -> list[ast.OrderItem]:
    """Resolve ORDER BY aliases and 1-based ordinals to expressions."""
    aliases = {
        item.alias.lower(): item.expression
        for item in items
        if item.alias
    }
    resolved: list[ast.OrderItem] = []
    for order in statement.order_by:
        expression = order.expression
        if ast.is_ordinal(expression):
            position = expression.value - 1
            if not 0 <= position < len(items):
                raise PlanError(
                    f"ORDER BY position {expression.value} out of range"
                )
            expression = items[position].expression
        elif (
            isinstance(expression, ast.ColumnRef)
            and expression.table is None
            and expression.name.lower() in aliases
        ):
            expression = aliases[expression.name.lower()]
        resolved.append(ast.OrderItem(expression, order.descending))
    return resolved


def _splittable(conj: ast.Expression, columns: list[ColumnInfo]) -> bool:
    """True when the planner may evaluate this conjunct out of tree order.

    Requires both totality (no node can raise — :func:`is_total`) and
    static resolution of every column reference: an ambiguous or unknown
    name raises *lazily* in the naive engine (only for rows it actually
    evaluates), which splitting could otherwise mask or surface early.
    """
    if not is_total(conj):
        return False
    for node in ast.walk_expressions(conj):
        if isinstance(node, ast.ColumnRef):
            try:
                resolve_column(columns, node.name, node.table)
            except CompileError:
                return False
    return True


def _scan_columns(ref: ast.TableRef, table: Table) -> list[ColumnInfo]:
    """The column metadata a scan of ``table`` under ``ref`` exposes."""
    alias = ref.effective_alias().lower()
    return [ColumnInfo(alias, name.lower(), name) for name in table.column_names]


def _index_probe(
    conj: ast.Expression,
) -> tuple[ast.ColumnRef, SqlValue] | None:
    """Match ``col = literal`` / ``literal = col`` for index lookups."""
    if isinstance(conj, ast.BinaryOp) and conj.op == "=":
        if isinstance(conj.left, ast.ColumnRef) and isinstance(
            conj.right, ast.Literal
        ):
            return conj.left, conj.right.value
        if isinstance(conj.right, ast.ColumnRef) and isinstance(
            conj.left, ast.Literal
        ):
            return conj.right, conj.left.value
    return None


def _output_name(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expression, ast.ColumnRef):
        return item.expression.name
    return item.expression.to_sql()


def _dedupe_tagged(
    tagged: list[tuple[tuple[SqlValue, ...], tuple]]
) -> list[tuple[tuple[SqlValue, ...], tuple]]:
    seen: set[tuple[SqlValue, ...]] = set()
    unique: list[tuple[tuple[SqlValue, ...], tuple]] = []
    for output, keys in tagged:
        if output not in seen:
            seen.add(output)
            unique.append((output, keys))
    return unique


_TYPE_RANK = {bool: 1, int: 2, float: 2, str: 3}


def _sort_key(value: SqlValue, descending: bool):
    """Build a totally-ordered sort key.

    NULLs sort after non-NULL values in ascending order and before them in
    descending order (both reduce to "NULLs are largest").
    """
    if value is None:
        return (0, 0, 0) if descending else (1, 0, 0)
    rank = _TYPE_RANK.get(type(value), 4)
    key: object = int(value) if isinstance(value, bool) else value
    if descending:
        if isinstance(key, (int, float)):
            return (0, rank, -key)
        return (0, rank, _Reversed(key))
    return (0, rank, key)


class _Reversed:
    """Wrapper inverting comparisons, for descending string sorts."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.value)
