"""Tests for pricing, token counting, and the cost ledger."""

import pytest

from repro.llm import (
    CostLedger,
    GPT_35_TURBO,
    GPT_4_TURBO,
    GPT_4O,
    ScriptedLLM,
    count_tokens,
    model_spec,
)


class TestTokenizer:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_monotone_in_length(self):
        assert count_tokens("word " * 100) > count_tokens("word " * 10)

    def test_prose_scale(self):
        text = "The quick brown fox jumps over the lazy dog. " * 10
        tokens = count_tokens(text)
        # ~4 chars/token heuristic: within a loose factor-2 band.
        assert len(text) / 8 < tokens < len(text) / 2


class TestPricing:
    def test_price_ordering(self):
        # GPT-4-turbo > GPT-4o > GPT-3.5 per token, both directions.
        assert (GPT_4_TURBO.input_price_per_million
                > GPT_4O.input_price_per_million
                > GPT_35_TURBO.input_price_per_million)
        assert (GPT_4_TURBO.output_price_per_million
                > GPT_4O.output_price_per_million
                > GPT_35_TURBO.output_price_per_million)

    def test_cost_formula(self):
        cost = GPT_35_TURBO.cost(1_000_000, 0)
        assert cost == pytest.approx(0.50)
        cost = GPT_35_TURBO.cost(0, 1_000_000)
        assert cost == pytest.approx(1.50)

    def test_latency_increases_with_tokens(self):
        assert GPT_4O.latency(100, 100) < GPT_4O.latency(100, 1000)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            model_spec("gpt-99")

    def test_lookup(self):
        assert model_spec("gpt-4o") is GPT_4O


class TestLedger:
    def test_records_through_client(self):
        ledger = CostLedger()
        client = ScriptedLLM(["hello"], ledger=ledger)
        client.complete("a prompt")
        assert ledger.totals().calls == 1
        assert ledger.total_cost > 0

    def test_nested_captures(self):
        ledger = CostLedger()
        with ledger.capture() as outer:
            with ledger.capture() as inner:
                ledger.record("m", 10, 5, 0.1, 1.0)
            ledger.absorb(inner)
            ledger.record("m", 10, 5, 0.2, 1.0)
        ledger.absorb(outer)
        assert outer.totals().calls == 2
        assert inner.totals().calls == 1
        assert inner.totals().cost == pytest.approx(0.1)
        assert ledger.totals() == outer.totals()

    def test_capture_restored_on_error(self):
        ledger = CostLedger()
        with pytest.raises(RuntimeError):
            with ledger.capture() as spent:
                raise RuntimeError("boom")
        ledger.record("m", 1, 1, 0.5, 0.0)
        assert spent.entries == []
        assert ledger.total_cost == 0.5

    def test_total_tokens(self):
        ledger = CostLedger()
        ledger.record("m", 10, 5, 0.0, 0.0)
        assert ledger.totals().total_tokens == 15


class TestScriptedLLM:
    def test_replays_in_order(self):
        client = ScriptedLLM(["one", "two"])
        assert client.complete("p").text == "one"
        assert client.complete("p").text == "two"

    def test_last_response_repeats(self):
        client = ScriptedLLM(["only"])
        client.complete("p")
        assert client.complete("p").text == "only"

    def test_requires_responses(self):
        with pytest.raises(ValueError):
            ScriptedLLM([])

    def test_temperature_validated(self):
        client = ScriptedLLM(["x"])
        with pytest.raises(ValueError):
            client.complete("p", temperature=3.0)

    def test_usage_reported(self):
        client = ScriptedLLM(["response text here"])
        response = client.complete("a reasonably long prompt for counting")
        assert response.usage.prompt_tokens > 0
        assert response.usage.completion_tokens > 0
        assert response.cost > 0
        assert response.latency_seconds > 0
