"""Human-readable and machine-readable verification reports.

The demo paper's user-facing output is an annotated document: each claim
marked up with its verdict and the SQL evidence. This module renders a
:class:`~repro.core.pipeline.VerificationRun` as markdown (for people)
or as plain dictionaries (for JSON export / downstream tooling). The
single-claim renderer :func:`claim_record` is also what the service
layer serialises into its streaming ``claim_verdict`` events, so a
claim looks the same whether it arrived in a batch report or over the
wire.
"""

from __future__ import annotations

import json

from repro.llm.cache import CacheStats, LLMCache
from repro.llm.ledger import LedgerDelta
from repro.obs.tracer import Span, Tracer
from repro.sqlengine import engine_stats as _engine_stats

from .claims import Claim, Document
from .pipeline import ClaimReport, VerificationRun


def claim_record(claim: Claim, report: ClaimReport) -> dict:
    """One claim's verdict as a plain JSON-serialisable dictionary."""
    return {
        "claim_id": claim.claim_id,
        "sentence": claim.sentence,
        "claimed_value": claim.value_text,
        "verdict": "correct" if claim.correct else "incorrect",
        "query": claim.query,
        "verified_by": report.verified_by,
        "attempts": report.attempts,
        "fallback": report.fallback,
    }


def claim_records(
    document: Document, run: VerificationRun
) -> list[dict]:
    """One plain dictionary per claim, JSON-serialisable."""
    return [
        claim_record(claim, run.reports[claim.claim_id])
        for claim in document.claims
    ]


def _cache_stats(cache: LLMCache | CacheStats | None) -> CacheStats | None:
    """Accept either a live cache or a stats snapshot."""
    if cache is None:
        return None
    return cache.stats() if isinstance(cache, LLMCache) else cache


def document_spans(
    source: Tracer | list[Span], doc_id: str
) -> list[Span]:
    """The document root spans for ``doc_id`` from a tracer or span list."""
    roots = source.roots if isinstance(source, Tracer) else list(source)
    return [
        span for span in roots
        if span.kind == "document" and span.attributes.get("doc_id") == doc_id
    ]


def span_waterfall(roots: list[Span], width: int = 40) -> str:
    """Render a span forest as an indented text waterfall.

    One line per span: indentation shows nesting, the bar shows when the
    span ran relative to its root, and the right column shows the
    duration. Purely cosmetic — wall times feed the bars, so two runs
    render different bars but identical tree shapes.
    """
    lines: list[str] = []
    for root in roots:
        total = max(root.duration, 1e-9)

        def render(span: Span, depth: int) -> None:
            offset = int(width * (span.start - root.start) / total)
            offset = min(max(offset, 0), width - 1)
            length = max(1, int(width * span.duration / total))
            length = min(length, width - offset)
            bar = " " * offset + "#" * length + " " * (width - offset - length)
            label = ("  " * depth + f"{span.kind}:{span.name}")[:34]
            lines.append(
                f"{label:<34} |{bar}| {span.duration * 1e3:9.3f} ms"
            )
            for child in span.children:
                render(child, depth + 1)

        render(root, 0)
    return "\n".join(lines)


def document_report(
    document: Document,
    run: VerificationRun,
    spent: LedgerDelta | None = None,
    cache: LLMCache | CacheStats | None = None,
    engine: dict | bool | None = None,
    tracer: Tracer | list[Span] | None = None,
) -> dict:
    """Full report for one document, JSON-serialisable.

    ``spent`` is the ledger capture the document was verified in (see
    :meth:`~repro.llm.ledger.CostLedger.capture`); it adds the
    document's spend, and its retries when it had any.
    ``engine=True`` embeds the process-wide SQL engine stats (plan-cache
    traffic and execution-strategy counters); a dict embeds a caller's
    own snapshot (e.g. the service's, which includes its result cache).
    ``tracer`` (a :class:`~repro.obs.tracer.Tracer` or a list of root
    spans) opts into embedding the document's span tree — left out, the
    report is byte-identical with tracing on or off, which the
    determinism guard enforces.
    """
    records = claim_records(document, run)
    flagged = sum(1 for r in records if r["verdict"] == "incorrect")
    report: dict = {
        "document_id": document.doc_id,
        "title": document.title,
        "claims": records,
        "summary": {
            "total_claims": len(records),
            "flagged": flagged,
            "verified_without_fallback": sum(
                1 for r in records if not r["fallback"]
            ),
        },
    }
    if spent is not None:
        totals = spent.totals()
        report["spend"] = {
            "cost_usd": round(totals.cost, 6),
            "llm_calls": totals.calls,
            "tokens": totals.total_tokens,
        }
        if spent.events:
            # How many of this document's transient failures were
            # retried, and how long it slept in backoff because of them.
            report["spend"]["retries"] = len(spent.events)
            report["spend"]["retry_backoff_seconds"] = round(
                sum(event.delay_seconds for event in spent.events), 6
            )
    stats = _cache_stats(cache)
    if stats is not None:
        report["cache"] = stats.to_dict()
    if engine is True:
        report["engine"] = _engine_stats()
    elif isinstance(engine, dict):
        report["engine"] = engine
    if tracer is not None:
        report["trace"] = [
            span.to_dict(str(index))
            for index, span in enumerate(
                document_spans(tracer, document.doc_id), start=1
            )
        ]
    return report


def to_json(
    document: Document,
    run: VerificationRun,
    spent: LedgerDelta | None = None,
    indent: int = 2,
    cache: LLMCache | CacheStats | None = None,
    engine: dict | bool | None = None,
    tracer: Tracer | list[Span] | None = None,
) -> str:
    """Serialise the document report as JSON text."""
    return json.dumps(
        document_report(document, run, spent, cache=cache, engine=engine,
                        tracer=tracer),
        indent=indent,
    )


def to_markdown(
    document: Document,
    run: VerificationRun,
    spent: LedgerDelta | None = None,
    cache: LLMCache | CacheStats | None = None,
    engine: dict | bool | None = None,
    tracer: Tracer | list[Span] | None = None,
) -> str:
    """Render the annotated document as markdown.

    Flagged claims carry a warning marker and their SQL evidence in a
    details block, mirroring the demo front-end's presentation. A
    ``cache`` (live :class:`~repro.llm.cache.LLMCache` or a
    :class:`~repro.llm.cache.CacheStats` snapshot) adds a response-cache
    line to the spend summary. A ``tracer`` (or span list) opts into a
    trailing per-document trace-waterfall section; without it the output
    is byte-identical with tracing on or off.
    """
    report = document_report(document, run, spent, cache=cache,
                             engine=engine)
    waterfall = (
        span_waterfall(document_spans(tracer, document.doc_id))
        if tracer is not None else ""
    )
    lines = [f"# Verification report — {document.title or document.doc_id}",
             ""]
    summary = report["summary"]
    lines.append(
        f"**{summary['total_claims']} claims checked, "
        f"{summary['flagged']} flagged.**"
    )
    if "spend" in report:
        spend = report["spend"]
        lines.append(
            f"Verification spend: ${spend['cost_usd']:.4f} across "
            f"{spend['llm_calls']} LLM calls."
        )
        if "retries" in spend:
            lines.append(
                f"Transient failures: {spend['retries']} retried, "
                f"{spend['retry_backoff_seconds']:.3f}s of backoff."
            )
    if "cache" in report:
        stats = report["cache"]
        lookups = stats["hits"] + stats["misses"]
        lines.append(
            f"Response cache: {stats['hits']} hits / {lookups} lookups "
            f"({100.0 * stats['hit_rate']:.0f}% hit rate), "
            f"{stats['bypasses']} retry bypasses, "
            f"{stats['evictions']} evictions."
        )
    if "engine" in report:
        lines.append(_engine_line(report["engine"]))
    lines.append("")
    for record in report["claims"]:
        marker = "⚠️" if record["verdict"] == "incorrect" else "✅"
        lines.append(f"- {marker} {record['sentence']}")
        stage = record["verified_by"] or "fallback verdict"
        lines.append(
            f"  - verdict: **{record['verdict']}** "
            f"({stage}, {record['attempts']} attempt(s))"
        )
        if record["query"]:
            lines.append(f"  - evidence: `{record['query']}`")
    if waterfall:
        lines.extend(["", "## Trace waterfall", "", "```text",
                      waterfall, "```"])
    return "\n".join(lines)


def _engine_line(stats: dict) -> str:
    """One-line summary of the SQL engine's cache/strategy counters."""
    plan = stats.get("plan_cache", {})
    strategies = stats.get("strategies", {})
    result = stats.get("result_cache")
    plan_lookups = plan.get("hits", 0) + plan.get("misses", 0)
    parts = [
        f"plan cache {plan.get('hits', 0)}/{plan_lookups} hits",
        f"{strategies.get('indexed_scans', 0)} indexed scans",
    ]
    if result is not None:
        result_lookups = result.get("hits", 0) + result.get("misses", 0)
        parts.insert(
            1, f"result cache {result.get('hits', 0)}/{result_lookups} hits"
        )
    else:
        hits = strategies.get("result_cache_hits", 0)
        lookups = hits + strategies.get("result_cache_misses", 0)
        parts.insert(1, f"result cache {hits}/{lookups} hits")
    analyzer = stats.get("analyzer")
    if analyzer is not None:
        parts.append(
            f"analyzer {analyzer.get('queries_analyzed', 0)} analyzed"
            f"/{analyzer.get('rejected_pre_execution', 0)} rejected"
        )
    return "SQL engine: " + ", ".join(parts) + "."
