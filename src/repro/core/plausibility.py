"""Query plausibility and claim validation (paper Section 4).

Two functions from the paper live here:

* ``CorrectQuery`` (:func:`assess_query`) — is a candidate translation
  *plausibly* correct? Numeric: the query result falls in the same order
  of magnitude as the claimed value (wrong claims tend to be close to the
  truth [17], wrong translations tend to be far off). Textual: embedding
  cosine ≥ 0.7.
* ``CorrectClaim`` (:func:`validate_claim`, Algorithm 3) — given a
  plausible translation, is the claim itself correct? Numeric: round the
  query result to the claim's displayed precision and compare. Textual:
  embedding cosine ≥ 0.8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.embeddings import text_similarity
from repro.sqlengine import Database, Engine, SqlValue, engine_for, to_text
from repro.sqlengine.analyzer import (
    analyze_sql,
    record_rejection,
    render_diagnostics,
    shape_diagnostics,
)
from repro.sqlengine.errors import EmptyResultError, SqlError
from repro.sqlengine.values import coerce_numeric

from .claims import (
    Claim,
    numeric_values_match,
    same_order_of_magnitude,
)

#: Embedding-similarity threshold for plausibility ("moderate-to-strong
#: semantic alignment between short text spans", Section 4).
PLAUSIBILITY_SIMILARITY = 0.7

#: Embedding-similarity threshold for claim correctness (Algorithm 3).
CORRECTNESS_SIMILARITY = 0.8


@dataclass(frozen=True)
class QueryAssessment:
    """Outcome of running CorrectQuery on one candidate translation."""

    executable: bool
    plausible: bool
    result: SqlValue = None
    error: str | None = None


def execute_single_cell(
    sql: str, database: Database, engine: Engine | None = None
) -> SqlValue:
    """Run a query and return its top-left cell.

    Uses the database's shared compile-and-cache engine (see
    :func:`repro.sqlengine.engine_for`) unless an explicit ``engine`` is
    supplied. Raises :class:`~repro.sqlengine.errors.SqlError` subclasses
    on parse or runtime failures, including :class:`EmptyResultError` for
    empty results — claims map to single-cell queries (Definition 2.4),
    so anything else is a failed translation.
    """
    active = engine if engine is not None else engine_for(database)
    return active.execute(sql).first_cell()


def static_rejection(sql: str, database: Database) -> str | None:
    """Run the static analyzer over one candidate; rendered errors or None.

    Two verdicts rule the query out before any row is touched: an
    analyzer error (a guaranteed runtime failure — the text does not
    parse, or a column that is certainly evaluated does not exist), and
    the claim-shape check
    (:func:`~repro.sqlengine.analyzer.shape_diagnostics`: a multi-column
    result can never be the single cell of Definition 2.4).
    """
    analysis = analyze_sql(sql, database)
    diagnostics = analysis.errors or shape_diagnostics(analysis)
    if not diagnostics:
        return None
    record_rejection()
    return render_diagnostics(diagnostics)


def assess_query(
    sql: str | None,
    claim: Claim,
    database: Database,
    engine: Engine | None = None,
    *,
    analyze: bool = True,
) -> QueryAssessment:
    """CorrectQuery: execute a candidate query and judge its plausibility.

    With ``analyze`` on (the default), statically invalid queries are
    rejected without executing: an analyzer error means the naive engine
    was guaranteed to raise, so the assessment is the same
    ``executable=False`` the execution path would have produced, minus
    the execution. ``analyze=False`` restores the pure PR 3 behaviour
    (the determinism guard runs both ways).
    """
    if not sql:
        return QueryAssessment(False, False, error="no query produced")
    if analyze:
        rejection = static_rejection(sql, database)
        if rejection is not None:
            return QueryAssessment(False, False, error=rejection)
    try:
        result = execute_single_cell(sql, database, engine)
    except EmptyResultError as error:
        # The query parsed and ran but selected nothing: executable, yet
        # there is no value to compare, hence not plausible.
        return QueryAssessment(True, False, error=str(error))
    except SqlError as error:
        return QueryAssessment(False, False, error=str(error))
    return QueryAssessment(
        True, _plausible(result, claim), result=result
    )


def _plausible(result: SqlValue, claim: Claim) -> bool:
    claimed = claim.value
    claimed_number = coerce_numeric(claimed)
    if claimed_number is not None:
        result_number = coerce_numeric(result)
        if result_number is None:
            return False
        return same_order_of_magnitude(result_number, claimed_number)
    if result is None:
        return False
    similarity = text_similarity(to_text(result), str(claimed))
    return similarity >= PLAUSIBILITY_SIMILARITY


def claim_matches_result(result: SqlValue, claim: Claim) -> bool:
    """CorrectClaim's comparison, given an already-executed query result.

    Numeric claims: round the result to the claim's displayed precision
    and compare. Textual: embedding cosine ≥ 0.8. Factored out of
    :func:`validate_claim` so the pipeline can reuse the result that
    :func:`assess_query` just produced instead of executing the SQL a
    second time.
    """
    claimed = claim.value
    if isinstance(claimed, (int, float)):
        result_number = coerce_numeric(result)
        if result_number is None:
            return False
        return numeric_values_match(result_number, claim.value_text)
    if result is None:
        return False
    similarity = text_similarity(to_text(result), str(claimed))
    return similarity >= CORRECTNESS_SIMILARITY


def validate_claim(
    sql: str, claim: Claim, database: Database, engine: Engine | None = None
) -> bool:
    """CorrectClaim (Algorithm 3): decide correctness from a trusted query.

    Raises :class:`~repro.sqlengine.errors.SqlError` if the query cannot be
    executed; callers are expected to have run :func:`assess_query` first.
    """
    return claim_matches_result(
        execute_single_cell(sql, database, engine), claim
    )
