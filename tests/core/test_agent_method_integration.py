"""Agent-method edge cases through the pipeline."""

import pytest

from repro.core import (AgentMethod, MultiStageVerifier, ScheduleEntry,
                        VerifierConfig)
from repro.core.claims import Claim, Document, Span
from repro.llm import CostLedger, ScriptedLLM
from repro.sqlengine import Database, Table


def make_document():
    database = Database("am")
    database.add(Table("t", ["name", "v"], [("a", 5), ("b", 9)]))
    claim = Claim("Row a stores 5 units.", Span(3, 3), "ctx",
                  metadata={"label_correct": True})
    return Document("amdoc", [claim], database)


def action(tool, tool_input):
    return f"Thought: step.\nAction: {tool}\nAction Input: {tool_input}"


class TestAgentThroughPipeline:
    def test_agent_verifies_via_tools(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM([
            action("database_querying",
                   "SELECT v FROM t WHERE name = 'a'"),
            "Thought: done.\nFinal Answer: 5",
        ], ledger=ledger)
        method = AgentMethod(client)
        run = MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        claim = document.claims[0]
        assert claim.correct is True
        assert claim.query == "SELECT v FROM t WHERE name = 'a'"
        report = run.reports[claim.claim_id]
        assert report.verified_by == method.name

    def test_agent_cost_covers_every_iteration(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM([
            action("unique_column_values", "name"),
            action("database_querying",
                   "SELECT v FROM t WHERE name = 'a'"),
            "Thought: done.\nFinal Answer: 5",
        ], ledger=ledger)
        MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document], [ScheduleEntry(AgentMethod(client), 1)]
        )
        # Three LLM calls, each billed with a growing scratchpad.
        assert ledger.totals().calls == 3
        prompt_sizes = [e.prompt_tokens for e in ledger.entries]
        assert prompt_sizes == sorted(prompt_sizes)
        assert prompt_sizes[0] < prompt_sizes[-1]

    def test_agent_iteration_cap_bounds_cost(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM(
            [action("unique_column_values", "name")], ledger=ledger
        )
        method = AgentMethod(client, max_iterations=4)
        MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document], [ScheduleEntry(method, 1)]
        )
        assert ledger.totals().calls == 4

    def test_agent_with_broken_queries_falls_back(self):
        document = make_document()
        ledger = CostLedger()
        client = ScriptedLLM([
            action("database_querying", "SELECT nothing FROM nowhere"),
            "Thought: give up.\nFinal Answer: unknown",
        ], ledger=ledger)
        run = MultiStageVerifier(config=VerifierConfig(ledger=ledger)).verify_documents(
            [document], [ScheduleEntry(AgentMethod(client), 1)]
        )
        claim = document.claims[0]
        report = run.reports[claim.claim_id]
        assert report.fallback
        # The broken query never executed: no executable evidence, so the
        # claim passes by default.
        assert claim.correct is True
