"""Tests for the OpenAI adapter using the recording transport double."""

import pytest

from repro.llm import (
    CostLedger,
    OpenAIChatClient,
    RecordingTransport,
    TransportError,
)


def make_client(responses, **kwargs):
    transport = RecordingTransport(responses)
    client = OpenAIChatClient("gpt-4o", transport, api_key="sk-test",
                              **kwargs)
    return client, transport


class TestOpenAIChatClient:
    def test_round_trip(self):
        client, transport = make_client(["SELECT 1"])
        response = client.complete("translate this claim", 0.0)
        assert response.text == "SELECT 1"
        payload = transport.payloads[0]
        assert payload["model"] == "gpt-4o"
        assert payload["temperature"] == 0.0
        assert payload["messages"][-1]["content"] == "translate this claim"

    def test_system_prompt_prepended(self):
        client, transport = make_client(
            ["ok"], system_prompt="You are a SQL assistant."
        )
        client.complete("hi")
        messages = transport.payloads[0]["messages"]
        assert messages[0] == {
            "role": "system", "content": "You are a SQL assistant."
        }

    def test_usage_billed_via_price_table(self):
        ledger = CostLedger()
        transport = RecordingTransport(["a short response"])
        client = OpenAIChatClient("gpt-4o", transport, ledger=ledger)
        with ledger.capture() as spent:
            client.complete("a prompt of several words")
        ledger.absorb(spent)
        assert ledger.total_cost > 0
        assert [entry.model for entry in spent.entries] == ["gpt-4o"]

    def test_transient_failures_retried(self):
        client, transport = make_client(
            [ConnectionError("boom"), "recovered"], max_retries=2
        )
        assert client.complete("p").text == "recovered"
        assert len(transport.payloads) == 2

    def test_retries_exhausted(self):
        client, _ = make_client(
            [ConnectionError("a"), ConnectionError("b")], max_retries=1
        )
        with pytest.raises(RuntimeError):
            client.complete("p")

    def test_malformed_response_not_retried(self):
        transport = RecordingTransport([])

        def bad_transport(payload, api_key):
            transport.payloads.append(payload)
            return {"unexpected": "shape"}

        client = OpenAIChatClient("gpt-4o", bad_transport, max_retries=3)
        with pytest.raises(TransportError):
            client.complete("p")
        assert len(transport.payloads) == 1  # structural errors fail fast

    def test_non_text_content_rejected(self):
        def weird_transport(payload, api_key):
            return {"choices": [{"message": {"content": ["not", "text"]}}]}

        client = OpenAIChatClient("gpt-4o", weird_transport)
        with pytest.raises(TransportError):
            client.complete("p")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            make_client(["x"], max_retries=-1)

    def test_usable_as_verification_client(self):
        """The adapter slots into a CEDAR method unchanged."""
        from repro.core import OneShotMethod, mask_claim
        from repro.core.claims import Claim, Span
        from repro.sqlengine import Database, Table

        database = Database("d")
        database.add(Table("t", ["a", "b"], [("x", 1)]))
        claim = Claim("The x row scores 1 point.", Span(4, 4),
                      "ctx", "c0")
        client, transport = make_client(
            ["```sql\nSELECT b FROM t WHERE a = 'x'\n```"]
        )
        method = OneShotMethod(client)
        result = method.translate(
            mask_claim(claim), "numeric", claim.value, claim.value_text,
            database, None, 0.0,
        )
        assert result.query == "SELECT b FROM t WHERE a = 'x'"
        # The masked claim, not the raw value, reached the API.
        assert "1 point" not in transport.payloads[0]["messages"][-1]["content"]
