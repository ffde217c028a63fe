"""Static checks that rule out a SELECT statement before it runs.

CEDAR's ``CorrectQuery``, the agent's querying tool and Algorithm 9's
reconstruction ask one question of an LLM-written query: is it certain
to fail, so that executing it can be skipped? The analyzer answers with
structured :class:`Diagnostic` records under three stable codes
(docs/analyzer.md):

* ``SQLA090`` — the text does not parse.
* ``SQLA001`` — a column reference resolves nowhere, in a context that
  is *guaranteed to be evaluated* when the query runs.
* ``SQLA030`` — the claim-shape check (:func:`shape_diagnostics`): the
  select list provably has more than one column, so the result can never
  be Definition 2.4's single cell.

The hard contract is differential: **any query the naive interpreter
executes successfully produces zero analyzer errors.** The naive engine
resolves names lazily, once per evaluated row, so ``SELECT nope FROM t``
*succeeds* when ``t`` is empty. ``SQLA001`` therefore fires only when
the reference is provably reached — tracked through relation
non-emptiness proofs and the evaluator's exact short-circuit rules
(WHERE, AND/OR, CASE, a NULL ``IN`` operand, group certainty).

This module also owns the totality facts (:func:`is_total`,
:func:`split_conjuncts`) consumed by the compiler/executor pushdown
gating — :mod:`repro.sqlengine.compiler` re-exports them — and the
:func:`subquery_is_cacheable` verdict that drives the engine's
result-cache bypass for correlated subqueries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import ast_nodes as ast
from .errors import ParseError, TokenizeError
from .parser import parse_select
from repro.cache import CacheStats, TieredCache

from .planner import normalize_sql, shared_plan_cache
from .table import Database
from .values import CASTABLE_TYPES

#: Stable diagnostic codes and their one-line meanings (see docs/analyzer.md).
DIAGNOSTIC_CODES = {
    "SQLA001": "unknown column",
    "SQLA030": "result is not a single cell",
    "SQLA090": "syntax error",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code and a rendered message."""

    code: str
    message: str

    def render(self) -> str:
        return f"{self.code} {self.message}"


@dataclass(frozen=True)
class QueryAnalysis:
    """The per-query verdict record produced by :func:`analyze_sql`."""

    sql: str
    statement: ast.SelectStatement | None
    #: Every diagnostic is an error: a guaranteed runtime failure.
    errors: tuple[Diagnostic, ...]
    #: Output column count, or None when unknowable (parse failure, an
    #: unknown table hiding what ``*`` expands to, ``*`` in an aggregate).
    result_width: int | None


def render_diagnostics(diagnostics) -> str:
    """Render diagnostics as one semicolon-joined line (for feedback)."""
    return "; ".join(d.render() for d in diagnostics)


def shape_diagnostics(analysis: QueryAnalysis) -> tuple[Diagnostic, ...]:
    """``SQLA030``: the query provably does not return a single cell.

    Claims map to single-cell queries (Definition 2.4), and the engine's
    ``first_cell()`` reads the top-left cell of any result, so a select
    list of several columns is ruled out here. Kept outside the memoized
    core because only claim verification asks for one cell.
    """
    width = analysis.result_width
    if analysis.statement is None or width is None or width == 1:
        return ()
    return (Diagnostic(
        "SQLA030",
        f"result is not a single cell: the query returns {width} columns",
    ),)


# -- process-wide counters ----------------------------------------------------


class AnalyzerCounters:
    """Thread-safe counters surfaced through ``engine_stats()``."""

    _FIELDS = ("queries_analyzed", "rejected_pre_execution", "memo_hits")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self._FIELDS, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(self._FIELDS, 0)


ANALYZER_COUNTERS = AnalyzerCounters()


def record_rejection() -> None:
    """Callers invoke this when an analysis verdict stops an execution."""
    ANALYZER_COUNTERS.bump("rejected_pre_execution")


# -- entry points -------------------------------------------------------------

#: Memoized analyses. L1-only: analyses hold live AST references and
#: re-deriving one is cheap, so persisting them buys nothing. The stats
#: surface as ``analyzer_memo`` in ``engine_stats()``.
_ANALYSIS_CACHE = TieredCache("sql_analysis", 512)


def analysis_memo_stats() -> CacheStats:
    """The memo's :class:`repro.cache.CacheStats`."""
    return _ANALYSIS_CACHE.stats()


def analyze_sql(sql: str, database: Database) -> QueryAnalysis:
    """Analyze SQL text against a database schema (memoized).

    Parsing goes through the shared plan cache, so an analyzed query that
    is subsequently executed reuses the same statement object. Analyses
    are memoized on ``(database content fingerprint, normalized SQL)`` —
    the fingerprint changes whenever the database gains a table, so
    schema-dependent verdicts never go stale.
    """
    key = (database.content_fingerprint(), normalize_sql(sql))
    cached = _ANALYSIS_CACHE.get(key)
    if cached is not None:
        ANALYZER_COUNTERS.bump("memo_hits")
        return cached
    analysis = _analyze_uncached(sql, database)
    ANALYZER_COUNTERS.bump("queries_analyzed")
    _ANALYSIS_CACHE.put(key, analysis)
    return analysis


def reset_analyzer() -> None:
    """Zero the counters and drop memoized analyses (test/bench hook)."""
    ANALYZER_COUNTERS.reset()
    _ANALYSIS_CACHE.clear()
    _ANALYSIS_CACHE.reset_stats()


def _analyze_uncached(sql: str, database: Database) -> QueryAnalysis:
    try:
        cache = shared_plan_cache()
        key = normalize_sql(sql)
        statement = cache.get(key)
        if statement is None:
            statement = parse_select(sql)
            cache.put(key, statement)
    except (TokenizeError, ParseError) as error:
        diagnostic = Diagnostic("SQLA090", f"syntax error: {error}")
        return QueryAnalysis(sql, None, (diagnostic,), None)
    walker = _Walker(database)
    width = walker.statement(statement, outer=(), certain=True)
    unique = tuple(dict.fromkeys(walker.diagnostics))
    return QueryAnalysis(sql, statement, unique, width)


def subquery_is_cacheable(
    statement: ast.SelectStatement, database: Database
) -> bool:
    """True when a subquery's result is a pure function of the database.

    The engine consults this before letting a subquery use the text-keyed
    result cache: a statement qualifies only when every column reference
    (at any nesting depth) resolves unambiguously *within the statement's
    own scope chain* against known tables. Anything that escapes outward
    (correlation), fails to resolve, or touches an unknown table is
    reported non-cacheable, which preserves the bypass convention the
    differential tests pin down.
    """
    walker = _Walker(database)
    walker.statement(statement, outer=(), certain=False)
    return walker.unresolved_count == 0 and not walker.correlated


# -- static scopes ------------------------------------------------------------


@dataclass(frozen=True)
class _Col:
    alias: str             # lower-cased table alias within the relation
    name: str              # lower-cased column name
    nullable: bool         # may hold NULL (or is NULL-padded by a LEFT JOIN)
    scan: int              # index of the scan that produced this column


class _StScope:
    """Static analogue of the evaluator's :class:`Scope` (metadata only)."""

    def __init__(self, cols: list[_Col], complete: bool) -> None:
        self.cols = cols
        self.complete = complete

    def matches(self, name: str, table: str | None) -> list[_Col]:
        name_lower = name.lower()
        table_lower = table.lower() if table else None
        return [
            col for col in self.cols
            if col.name == name_lower
            and (table_lower is None or col.alias == table_lower)
        ]


@dataclass(frozen=True)
class _Env:
    """Evaluation-context facts threaded through the expression walk."""

    scopes: tuple[_StScope, ...]   # innermost first; outer scopes follow
    certain: bool                  # guaranteed evaluated if the query runs
    group_certain: bool = False    # the current group provably has rows

    def uncertain(self) -> "_Env":
        if not self.certain:
            return self
        return _Env(self.scopes, False, self.group_certain)


class _Walker:
    """Walks statements and expressions, accumulating diagnostics.

    Expression visitors return whether the value may be NULL — the one
    value fact a guarantee depends on (a NULL ``IN`` operand skips the
    items).
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.diagnostics: list[Diagnostic] = []
        #: Set when a subquery resolved a reference in an enclosing scope.
        self.correlated = False
        #: Bumped whenever a reference failed to resolve (or resolution
        #: was suppressed by an unknown table) — poisons cacheability.
        self.unresolved_count = 0
        #: ids of the scope objects each successful resolution landed in,
        #: in walk order — the correlation detector for subqueries.
        self.resolution_log: list[int] = []

    # -- statements -------------------------------------------------------

    def statement(
        self,
        stmt: ast.SelectStatement,
        outer: tuple[_StScope, ...],
        certain: bool,
    ) -> int | None:
        """Walk one statement; its output width (see ``result_width``)."""
        cols, complete, relation_nonempty = \
            self._analyze_from(stmt, outer, certain)
        own = _StScope(cols, complete)
        chain = (own,) + outer
        if not complete:
            self.unresolved_count += 1
            # The FROM clause raises before anything below evaluates.
            relation_nonempty = False

        filtered_nonempty = relation_nonempty and stmt.where is None
        if stmt.where is not None:
            self._expr(stmt.where, _Env(
                chain, certain and relation_nonempty,
            ))
        if ast.is_aggregate_query(stmt):
            return self._grouped(stmt, chain, certain, filtered_nonempty)
        return self._plain(
            stmt, own, chain, certain, complete, filtered_nonempty
        )

    def _analyze_from(
        self,
        stmt: ast.SelectStatement,
        outer: tuple[_StScope, ...],
        certain: bool,
    ) -> tuple[list[_Col], bool, bool]:
        if stmt.from_table is None:
            # No FROM: the executor supplies one empty-tuple row, so the
            # select list is always evaluated exactly once.
            return [], True, True
        scans = [(stmt.from_table, "FROM")]
        scans.extend((join.table, join.kind) for join in stmt.joins)
        cols: list[_Col] = []
        complete = True
        scan_nonempty: list[bool] = []
        for index, (ref, kind) in enumerate(scans):
            if not self.database.has_table(ref.name):
                # The executor raises while building FROM; nothing after
                # it runs, so no reference below is guaranteed reached.
                complete = False
                scan_nonempty.append(False)
                continue
            table = self.database.table(ref.name)
            alias = ref.effective_alias().lower()
            padded = kind == "LEFT"
            for name in table.column_names:
                cols.append(_Col(
                    alias=alias, name=name.lower(),
                    nullable=padded or table.column_has_nulls(name),
                    scan=index,
                ))
            scan_nonempty.append(len(table.rows) > 0)
        # Non-emptiness proof, folded left to right over the join chain.
        prefix_nonempty = complete and bool(scan_nonempty) and scan_nonempty[0]
        prefix_cols: list[_Col] = [c for c in cols if c.scan == 0]
        for index, join in enumerate(stmt.joins, start=1):
            right_cols = [c for c in cols if c.scan == index]
            if join.condition is not None:
                # The ON condition sees the columns accumulated so far
                # plus the joined table's, once per candidate pair — it
                # is guaranteed to run only when both sides have rows.
                on_scope = _StScope(prefix_cols + right_cols, complete)
                on_certain = (
                    certain and complete and prefix_nonempty
                    and scan_nonempty[index]
                )
                self._expr(join.condition, _Env(
                    (on_scope,) + outer, on_certain,
                ))
            if join.kind == "LEFT":
                pass  # left rows survive (padded), proof unchanged
            elif join.kind == "CROSS" or join.condition is None:
                prefix_nonempty = prefix_nonempty and scan_nonempty[index]
            else:
                prefix_nonempty = False  # INNER matches are data-dependent
            prefix_cols.extend(right_cols)
        return cols, complete, complete and prefix_nonempty

    def _plain(
        self,
        stmt: ast.SelectStatement,
        own: _StScope,
        chain: tuple[_StScope, ...],
        certain: bool,
        complete: bool,
        filtered_nonempty: bool,
    ) -> int | None:
        items_certain = certain and filtered_nonempty
        width: int | None = 0 if complete else None
        for item in stmt.items:
            expression = item.expression
            if not isinstance(expression, ast.Star):
                self._expr(expression, _Env(chain, items_certain))
                width = None if width is None else width + 1
                continue
            lower = expression.table.lower() if expression.table else None
            selected = sum(
                1 for col in own.cols if lower is None or col.alias == lower
            )
            if lower is not None and not selected:
                # _expand_select_items raises on an unknown ``t.*``.
                width = None
            elif width is not None:
                width += selected
        self._order_by(stmt, chain, items_certain, group_certain=False)
        return width

    def _grouped(
        self,
        stmt: ast.SelectStatement,
        chain: tuple[_StScope, ...],
        certain: bool,
        filtered_nonempty: bool,
    ) -> int | None:
        # GROUP BY keys are evaluated per pre-group row.
        gb_certain = certain and filtered_nonempty
        for expression in stmt.group_by:
            self._expr(expression, _Env(chain, gb_certain))
        if stmt.group_by:
            groups_exist = filtered_nonempty
            group_certain = True       # every GROUP BY bucket has rows
        else:
            groups_exist = True        # global aggregate: always one group
            group_certain = filtered_nonempty
        if stmt.having is not None:
            self._expr(stmt.having, _Env(
                chain, certain and groups_exist, group_certain,
            ))
        # HAVING runs before the select list and can filter out every
        # group, so items are guaranteed-evaluated only without HAVING.
        items_certain = certain and groups_exist and stmt.having is None
        star_items = False
        for item in stmt.items:
            if isinstance(item.expression, ast.Star):
                # The executor raises eagerly, before grouping starts.
                star_items = True
                continue
            self._expr(item.expression, _Env(
                chain, items_certain, group_certain,
            ))
        self._order_by(stmt, chain, items_certain, group_certain)
        return None if star_items else len(stmt.items)

    def _order_by(
        self,
        stmt: ast.SelectStatement,
        chain: tuple[_StScope, ...],
        row_certain: bool,
        group_certain: bool,
    ) -> None:
        """Mirror ``_resolve_order_items``: ordinals and aliases name
        select items, which are walked as such."""
        aliases = {item.alias.lower() for item in stmt.items if item.alias}
        for order in stmt.order_by:
            expression = order.expression
            if ast.is_ordinal(expression):
                continue
            if isinstance(expression, ast.ColumnRef) \
                    and expression.table is None \
                    and expression.name.lower() in aliases:
                continue
            self._expr(expression, _Env(chain, row_certain, group_certain))

    # -- expressions ------------------------------------------------------

    def _expr(self, node: ast.Expression, env: _Env) -> bool:
        """Walk ``node``; True when its value may be NULL."""
        if isinstance(node, ast.Literal):
            return node.value is None
        if isinstance(node, ast.ColumnRef):
            return self._column(node, env)
        if isinstance(node, ast.UnaryOp):
            nullable = self._expr(node.operand, env)
            return nullable or node.op.upper() not in ("NOT", "-")
        if isinstance(node, ast.BinaryOp):
            if node.op.upper() in ("AND", "OR"):
                self._expr(node.left, env)
                # The right side is skipped when the left decides.
                self._expr(node.right, env.uncertain())
                return True
            left = self._expr(node.left, env)
            return self._expr(node.right, env) or left
        if isinstance(node, ast.AggregateCall):
            return self._aggregate(node, env)
        if isinstance(node, ast.InExpr):
            operand = self._expr(node.operand, env)
            # A NULL operand short-circuits before the items or subquery
            # are touched, so they are guaranteed-evaluated only when the
            # operand provably is not NULL.
            inner = env.uncertain() if operand else env
            if node.subquery is not None:
                self._substatement(node.subquery, env, inner.certain)
            for item in node.items or ():
                self._expr(item, inner)
            return True
        if isinstance(node, ast.CaseExpr):
            lazy = env.uncertain()
            for position, (condition, result) in enumerate(node.branches):
                # Only the first WHEN condition is unconditionally evaluated.
                self._expr(condition, env if position == 0 else lazy)
                self._expr(result, lazy)
            if node.default is not None:
                self._expr(node.default, lazy)
            return True
        if isinstance(node, ast.CastExpr):
            nullable = self._expr(node.operand, env)
            return nullable or node.type_name.upper() not in CASTABLE_TYPES
        if isinstance(node, ast.ScalarSubquery):
            self._substatement(node.query, env, env.certain)
            return True
        if isinstance(node, ast.ExistsExpr):
            self._substatement(node.query, env, env.certain)
            return False
        if isinstance(node, ast.IsNullExpr):
            self._expr(node.operand, env)
            return False
        if isinstance(node, ast.FunctionCall):
            children = node.args
        elif isinstance(node, ast.BetweenExpr):
            children = (node.operand, node.low, node.high)
        elif isinstance(node, ast.LikeExpr):
            children = (node.operand, node.pattern)
        else:
            children = ()
        for child in children:
            self._expr(child, env)
        return True

    def _substatement(
        self, query: ast.SelectStatement, env: _Env, certain: bool
    ) -> None:
        """Walk a subquery, noting whether it is correlated.

        A subquery is correlated iff any successful column resolution
        inside it (at any nesting depth) landed in one of the *enclosing*
        scopes — exactly the scope objects alive in ``env.scopes`` now.
        """
        outer_ids = {id(scope) for scope in env.scopes}  # cedarlint: disable=CDL013
        mark = len(self.resolution_log)
        self.statement(query, env.scopes, certain)
        if any(
            scope_id in outer_ids
            for scope_id in self.resolution_log[mark:]
        ):
            self.correlated = True

    def _column(self, node: ast.ColumnRef, env: _Env) -> bool:
        for scope in env.scopes:
            matches = scope.matches(node.name, node.table)
            if len(matches) > 1:
                # Scope.resolve raises on ambiguity before looking
                # further out; the runtime reports it.
                self.unresolved_count += 1
                return True
            if len(matches) == 1:
                self.resolution_log.append(id(scope))
                return matches[0].nullable
            if not scope.complete:
                # An unknown table hides this scope's true columns; the
                # query errors on the FROM clause anyway, so stay quiet.
                self.unresolved_count += 1
                return True
        if env.certain:
            qualifier = f"{node.table}." if node.table else ""
            self.diagnostics.append(Diagnostic(
                "SQLA001", f"unknown column {qualifier}{node.name!r}",
            ))
        self.unresolved_count += 1
        return True

    def _aggregate(self, node: ast.AggregateCall, env: _Env) -> bool:
        if isinstance(node.argument, ast.Star):
            return False
        # The argument is evaluated once per group row, so it is reached
        # only when the group provably has rows.
        self._expr(node.argument, _Env(
            env.scopes, env.certain and env.group_certain,
            env.group_certain,
        ))
        return node.name.upper() != "COUNT"


# -- totality facts (consumed by the compiler/executor pushdown gating) ------

_TOTAL_BINARY_OPS = frozenset(
    ("AND", "OR", "=", "<>", "<", "<=", ">", ">=", "||")
)


def is_total(node: ast.Expression) -> bool:
    """True when evaluating ``node`` can never raise, for any row.

    "Total" predicates are the only ones the planner may split out of an
    AND chain and apply during a scan: since they cannot raise,
    evaluating them in another order, or on fewer rows (an index probe),
    is observable only through the result set, which the strategies
    preserve. ``compare_values`` never raises on non-NULL inputs and
    NULLs short-circuit before every comparison, so comparison chains
    over columns and literals qualify.
    """
    if isinstance(node, (ast.Literal, ast.ColumnRef)):
        return True
    if isinstance(node, ast.BinaryOp):
        return (
            node.op in _TOTAL_BINARY_OPS
            and is_total(node.left)
            and is_total(node.right)
        )
    if isinstance(node, ast.UnaryOp):
        return node.op == "NOT" and is_total(node.operand)
    if isinstance(node, ast.InExpr):
        return (
            node.subquery is None
            and is_total(node.operand)
            and all(is_total(item) for item in node.items or ())
        )
    if isinstance(node, ast.BetweenExpr):
        return (
            is_total(node.operand)
            and is_total(node.low)
            and is_total(node.high)
        )
    if isinstance(node, ast.LikeExpr):
        return is_total(node.operand) and is_total(node.pattern)
    if isinstance(node, ast.IsNullExpr):
        return is_total(node.operand)
    if isinstance(node, ast.CaseExpr):
        return all(
            is_total(condition) and is_total(result)
            for condition, result in node.branches
        ) and (node.default is None or is_total(node.default))
    return False


def split_conjuncts(node: ast.Expression | None) -> list[ast.Expression]:
    """Flatten a WHERE/ON tree into its top-level AND conjuncts."""
    if node is None:
        return []
    if isinstance(node, ast.BinaryOp) and node.op == "AND":
        return split_conjuncts(node.left) + split_conjuncts(node.right)
    return [node]
