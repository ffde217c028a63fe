"""Tests for verification report rendering."""

import json

import pytest

from repro.core import (
    MultiStageVerifier,
    OneShotMethod,
    ScheduleEntry,
    VerifierConfig,
)
from repro.core.claims import Claim, Document, Span
from repro.core.reports import (
    claim_record,
    claim_records,
    document_report,
    to_json,
    to_markdown,
)
from repro.llm import CacheStats, CostLedger, LLMCache, ScriptedLLM
from repro.sqlengine import Database, Table


@pytest.fixture()
def verified():
    database = Database("r")
    database.add(Table("t", ["name", "v"], [("a", 5), ("b", 9)]))
    claims = [
        Claim("Row a stores 5 units.", Span(3, 3), "ctx",
              metadata={"label_correct": True}),
        Claim("Row b stores 7 units.", Span(3, 3), "ctx",
              metadata={"label_correct": False}),
    ]
    document = Document("rdoc", claims, database, title="Report demo")
    ledger = CostLedger()
    client = ScriptedLLM(
        ["```sql\nSELECT v FROM t WHERE name = 'a'\n```",
         "```sql\nSELECT v FROM t WHERE name = 'b'\n```"],
        ledger=ledger,
    )
    verifier = MultiStageVerifier(config=VerifierConfig(ledger=ledger))
    with ledger.capture() as spent:
        run = verifier.verify_documents(
            [document], [ScheduleEntry(OneShotMethod(client), 1)]
        )
    ledger.absorb(spent)
    return document, run, spent


class TestRecords:
    def test_one_record_per_claim(self, verified):
        document, run, _ = verified
        records = claim_records(document, run)
        assert len(records) == 2
        assert records[0]["verdict"] == "correct"
        assert records[1]["verdict"] == "incorrect"
        assert records[1]["query"].endswith("'b'")

    def test_summary_counts(self, verified):
        document, run, spent = verified
        report = document_report(document, run, spent)
        assert report["summary"] == {
            "total_claims": 2,
            "flagged": 1,
            "verified_without_fallback": 2,
        }
        assert report["spend"]["llm_calls"] == 2
        assert report["spend"]["cost_usd"] > 0

    def test_spend_optional(self, verified):
        document, run, _ = verified
        assert "spend" not in document_report(document, run)

    def test_retry_backoff_totals_surface_in_spend(self, verified):
        document, run, spent = verified
        assert "retries" not in document_report(document, run,
                                                spent)["spend"]
        ledger = CostLedger()
        with ledger.capture() as retried:
            ledger.absorb(spent)
            ledger.record_retry("gpt-4o", attempt=1, delay_seconds=0.5,
                                error="RateLimitError()")
            ledger.record_retry("gpt-4o", attempt=2, delay_seconds=1.25,
                                error="RateLimitError()")
        # Retries outside the document's capture are not its own.
        ledger.record_retry("gpt-4o", attempt=1, delay_seconds=9.0,
                            error="RateLimitError()")
        spend = document_report(document, run, retried)["spend"]
        assert spend["llm_calls"] == 2
        assert spend["retries"] == 2
        assert spend["retry_backoff_seconds"] == pytest.approx(1.75)
        markdown = to_markdown(document, run, retried)
        assert "2 retried, 1.750s of backoff" in markdown


class TestJson:
    def test_round_trips(self, verified):
        document, run, spent = verified
        parsed = json.loads(to_json(document, run, spent))
        assert parsed["document_id"] == "rdoc"
        assert len(parsed["claims"]) == 2


class TestMarkdown:
    def test_structure(self, verified):
        document, run, spent = verified
        text = to_markdown(document, run, spent)
        assert text.startswith("# Verification report — Report demo")
        assert "2 claims checked, 1 flagged." in text
        assert "⚠️" in text and "✅" in text
        assert "`SELECT v FROM t WHERE name = 'b'`" in text
        assert "Verification spend: $" in text

    def test_fallback_claims_labelled(self):
        database = Database("f")
        database.add(Table("t", ["v"], [(1,)]))
        claim = Claim("Value 9 here.", Span(1, 1), "ctx",
                      metadata={"label_correct": False})
        document = Document("fdoc", [claim], database)
        client = ScriptedLLM(["no sql at all"])
        verifier = MultiStageVerifier(
            config=VerifierConfig(ledger=client.ledger)
        )
        run = verifier.verify_documents(
            [document], [ScheduleEntry(OneShotMethod(client), 1)]
        )
        text = to_markdown(document, run)
        assert "fallback verdict" in text


class TestSingleClaimRecord:
    def test_claim_record_matches_claim_records(self, verified):
        document, run, _ = verified
        claim = document.claims[0]
        record = claim_record(claim, run.reports[claim.claim_id])
        assert record == claim_records(document, run)[0]
        assert record["claim_id"] == claim.claim_id


class TestCacheStatsRendering:
    def make_stats(self):
        return CacheStats(hits=3, misses=1, bypasses=2, evictions=1,
                          size=4, max_size=16)

    def test_report_includes_cache_section(self, verified):
        document, run, _ = verified
        report = document_report(document, run, cache=self.make_stats())
        assert report["cache"]["hits"] == 3
        assert report["cache"]["lookups"] == 4
        assert report["cache"]["hit_rate"] == 0.75

    def test_cache_section_optional(self, verified):
        document, run, _ = verified
        assert "cache" not in document_report(document, run)

    def test_live_cache_accepted(self, verified):
        document, run, _ = verified
        report = document_report(document, run, cache=LLMCache(8))
        assert report["cache"]["lookups"] == 0

    def test_markdown_cache_line(self, verified):
        document, run, spent = verified
        text = to_markdown(document, run, spent, cache=self.make_stats())
        assert ("Response cache: 3 hits / 4 lookups (75% hit rate), "
                "2 retry bypasses, 1 evictions.") in text

    def test_json_round_trips_cache(self, verified):
        document, run, spent = verified
        parsed = json.loads(
            to_json(document, run, spent, cache=self.make_stats())
        )
        assert parsed["cache"]["bypasses"] == 2
