"""One-shot claim-to-SQL translation (paper Section 5.2, Algorithm 5).

A single LLM invocation with the Figure 3 prompt: masked claim, value
type, schema, query-format suggestions, optional few-shot sample, and the
claim's context paragraph. The SQL is extracted from the fenced block the
prompt requests.
"""

from __future__ import annotations

from repro.llm.base import extract_sql_block
from repro.obs.tracer import current_tracer
from repro.sqlengine import Database, SqlValue, analyze_sql, prompt_schema_text

from .masking import MaskedClaim
from .methods import Sample, TranslationResult, VerificationMethod, render_sample

#: The Figure 3 prompt template. Placeholders in curly braces.
ONE_SHOT_TEMPLATE = """Given the claim "{claim}" where "x" is a "{type}" value, you must think about a question that generates "x" as the answer and then generate a SQL query to answer that question. You must use the schema of the following table called "table".
{db_schema}
To query for percentages use the format "SELECT (SELECT COUNT(column_name) FROM table WHERE equality_predicates) * 100.0/ (SELECT COUNT(column_name) FROM table WHERE equality_predicates)". Other queries are of format "SELECT aggregate_function(column_name) FROM table WHERE equality_predicates". Wrap the SQL in ```sql ```.
{sample}
The following context information might help to form the SQL query.
{context}"""


def one_shot_prompt(
    masked_claim: str,
    value_type: str,
    db_schema: str,
    sample: Sample | None,
    context: str,
) -> str:
    """Instantiate the Figure 3 template for one claim."""
    return ONE_SHOT_TEMPLATE.format(
        claim=masked_claim,
        type=value_type,
        db_schema=db_schema,
        sample=render_sample(sample),
        context=context,
    )


class OneShotMethod(VerificationMethod):
    """Algorithm 5: prompt once, extract the SQL from the reply."""

    retry_temperature = 0.25

    @property
    def kind(self) -> str:
        return "one_shot"

    def translate(
        self,
        masked: MaskedClaim,
        value_type: str,
        claim_value: SqlValue,
        claim_value_text: str,
        database: Database,
        sample: Sample | None,
        temperature: float,
    ) -> TranslationResult:
        prompt = one_shot_prompt(
            masked.masked_sentence,
            value_type,
            prompt_schema_text(database),
            sample,
            masked.masked_context,
        )
        response = self.client.complete(prompt, temperature)
        query = extract_sql_block(response.text)
        # Analyses are memoized, so the verifier's own gate reuses this.
        analysis = (
            analyze_sql(query, database)
            if query and self.analyze_sql else None
        )
        # Stamp what happened onto the enclosing method span (a no-op
        # when tracing is off): did the reply contain SQL, and what did
        # the static analyzer think of it?
        tracer = current_tracer()
        if tracer.enabled:
            tracer.annotate(
                query_extracted=query is not None,
                analyzer=(
                    "skipped" if analysis is None
                    else ("error" if analysis.errors else "ok")
                ),
            )
        return TranslationResult(
            query=query,
            response_text=response.text,
            issued_queries=[query] if query else [],
        )
