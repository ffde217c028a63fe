"""Tests for multi-stage verification (Algorithms 1-2) using scripted LLMs."""

import pytest

from repro.core import (
    MultiStageVerifier,
    OneShotMethod,
    Sample,
    ScheduleEntry,
    VerifierConfig,
)
from repro.core.claims import Claim, Document, Span
from repro.llm import CostLedger, ScriptedLLM
from repro.sqlengine import Database, Table


def make_document(doc_id="doc"):
    database = Database(doc_id)
    database.add(Table(
        "drinks",
        ["country", "wine"],
        [("France", 370), ("USA", 84), ("Italy", 340)],
    ))
    claims = [
        Claim(
            "France consumes 370 glasses of wine per person.",
            Span(2, 2),
            "Wine statistics. France consumes 370 glasses of wine per "
            "person. More text.",
            metadata={"label_correct": True},
        ),
        Claim(
            "Americans consume 90 glasses of wine per person.",
            Span(2, 2),
            "Wine statistics. Americans consume 90 glasses of wine per "
            "person. More text.",
            metadata={"label_correct": False},
        ),
    ]
    return Document(doc_id, claims, database)


def wrap(sql):
    return f"Reasoning text.\n```sql\n{sql}\n```"


GOOD_FRANCE = "SELECT wine FROM drinks WHERE country = 'France'"
GOOD_USA = "SELECT wine FROM drinks WHERE country = 'USA'"
BAD = "SELECT wine FROM drinks WHERE country = 'Nowhere'"


class TestVerifyBatchSemantics:
    def test_both_claims_verified(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM(
            [wrap(GOOD_FRANCE), wrap(GOOD_USA)], ledger=ledger
        )
        method = OneShotMethod(client)
        verifier = MultiStageVerifier(config=VerifierConfig(ledger=ledger))
        run = verifier.verify_documents([document],
                                        [ScheduleEntry(method, 1)])
        first, second = document.claims
        assert first.correct is True          # 370 == 370
        assert second.correct is False        # claimed 90, actual 84
        assert run.reports[first.claim_id].verified_by == method.name

    def test_first_success_becomes_sample(self):
        document = make_document()
        client = ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)])
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        # Algorithm 1: after the first success, Verify is re-invoked with a
        # sample; the second prompt must contain the few-shot block.
        assert "For example, given the claim" in client.calls[1][0]
        assert "For example" not in client.calls[0][0]

    def test_first_attempt_runs_at_temperature_zero(self):
        document = make_document()
        client = ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)])
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        assert client.calls[0][1] == 0.0

    def test_retry_uses_retry_temperature(self):
        document = make_document()
        client = ScriptedLLM(
            [wrap(BAD), wrap(BAD), wrap(GOOD_FRANCE), wrap(GOOD_USA)]
        )
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 2)]
        )
        temperatures = [t for _, t in client.calls]
        assert temperatures[0] == 0.0
        assert method.retry_temperature in temperatures

    def test_masking_applied_to_prompts(self):
        document = make_document()
        client = ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)])
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        first_prompt = client.calls[0][0]
        assert "370" not in first_prompt.split("CREATE TABLE")[0]
        assert '"x"' in first_prompt


class TestEscalation:
    def test_second_method_used_after_first_fails(self):
        document = make_document()
        ledger = CostLedger()
        failing = OneShotMethod(
            ScriptedLLM([wrap(BAD)], ledger=ledger), name="failing"
        )
        succeeding = OneShotMethod(
            ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)], ledger=ledger),
            name="succeeding",
        )
        verifier = MultiStageVerifier(config=VerifierConfig(ledger=ledger))
        run = verifier.verify_documents(
            [document],
            [ScheduleEntry(failing, 1), ScheduleEntry(succeeding, 1)],
        )
        for claim in document.claims:
            assert run.reports[claim.claim_id].verified_by == "succeeding"

    def test_zero_tries_stage_skipped(self):
        document = make_document()
        ledger = CostLedger()
        skipped = OneShotMethod(
            ScriptedLLM([wrap(BAD)], ledger=ledger), name="skipped"
        )
        used = OneShotMethod(
            ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)], ledger=ledger),
            name="used",
        )
        MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document],
            [ScheduleEntry(skipped, 0), ScheduleEntry(used, 1)],
        )
        assert not skipped.client.calls

    def test_verified_claims_not_retried(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM(
            [wrap(GOOD_FRANCE), wrap(GOOD_USA), wrap(BAD)], ledger=ledger
        )
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document], [ScheduleEntry(method, 3)]
        )
        # Two claims, both verified on the first pass (plus the sample
        # retry): no further calls.
        assert len(client.calls) == 2


class TestFallbackVerdicts:
    def test_executable_but_never_plausible_means_incorrect(self):
        document = make_document()
        # BAD parses and runs but returns no rows: executable, implausible.
        client = ScriptedLLM([wrap(BAD)])
        method = OneShotMethod(client)
        run = MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        for claim in document.claims:
            assert claim.correct is False
            assert run.reports[claim.claim_id].fallback

    def test_no_executable_query_means_correct_by_default(self):
        document = make_document()
        client = ScriptedLLM(["I refuse to produce SQL."])
        method = OneShotMethod(client)
        run = MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        for claim in document.claims:
            assert claim.correct is True
            assert claim.query is None
            assert run.reports[claim.claim_id].fallback

    def test_malformed_sql_counts_as_non_executable(self):
        document = make_document()
        client = ScriptedLLM([wrap("SELECT FROM WHERE")])
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        assert all(c.correct is True for c in document.claims)


class TestLedgerAttribution:
    def test_calls_tagged_with_method_and_claim(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)],
                             ledger=ledger)
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        assert ledger.totals(f"method:{method.name}").calls == 2
        assert ledger.totals("doc:doc").calls == 2
        per_claim = ledger.totals_by_tag_prefix("claim:")
        assert len(per_claim) == 2


class TestSingleExecution:
    def test_validated_claims_execute_sql_once(self, monkeypatch):
        # assess_query already ran the translation; validation must reuse
        # its result instead of executing the SQL a second time.
        from repro.sqlengine import Engine

        executed = []
        original = Engine.execute

        def counting(self, sql):
            executed.append(sql)
            return original(self, sql)

        monkeypatch.setattr(Engine, "execute", counting)
        document = make_document()
        client = ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)])
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=client.ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        assert document.claims[0].correct is True
        assert document.claims[1].correct is False
        assert executed == [GOOD_FRANCE, GOOD_USA]

    def test_sql_latency_recorded_in_ledger(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM([wrap(GOOD_FRANCE), wrap(GOOD_USA)],
                             ledger=ledger)
        method = OneShotMethod(client)
        MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        assert ledger.sql_executions == 2
        assert ledger.sql_seconds >= 0.0


class TestSampleRendering:
    def test_sample_requires_query(self):
        claim = Claim("Some 3 things.", Span(1, 1), "ctx", "c")
        claim.query = "SELECT 3"
        from repro.core.pipeline import _make_sample

        sample = _make_sample(claim)
        assert isinstance(sample, Sample)
        assert sample.query_sql == "SELECT 3"
        assert "x" in sample.masked_sentence
