"""Exhaustion and permanent-failure paths of the resilience layer.

The happy retry path is covered elsewhere; these tests pin down what
happens when retrying *doesn't* save the call: the full RetryEvent trail
(one event per failed attempt, the last flagged ``gave_up``), captured
with the call they shadow, deterministic backoff delays, and the
immediate propagation of permanent failures.
"""

import hashlib

import pytest

from repro.llm import (
    CostLedger,
    ResilientLLMClient,
    RetriesExhaustedError,
    RetryPolicy,
    TransportError,
)
from repro.llm.base import LLMClient
from repro.llm.resilience import PermanentLLMError, classify_failure


class FailingLLM(LLMClient):
    """Raises the scripted errors in order; succeeds once they run out."""

    def __init__(self, errors, ledger=None):
        super().__init__("gpt-3.5-turbo", ledger)
        self._errors = list(errors)
        self.calls = 0

    def _generate(self, prompt: str, temperature: float) -> str:
        self.calls += 1
        if self._errors:
            raise self._errors.pop(0)
        return "recovered"


def make_policy(max_attempts, sleeps):
    return RetryPolicy(
        max_attempts=max_attempts,
        base_delay=0.05,
        seed=7,
        sleep=sleeps.append,
    )


class TestExhaustion:
    def test_exhausted_raises_with_attempt_count_and_cause(self):
        ledger = CostLedger()
        errors = [TransportError(f"boom {i}") for i in range(5)]
        client = ResilientLLMClient(
            FailingLLM(errors, ledger), make_policy(3, [])
        )
        with pytest.raises(RetriesExhaustedError) as excinfo:
            client.complete("prompt")
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, TransportError)
        assert str(excinfo.value.last_error) == "boom 2"
        assert excinfo.value.__cause__ is excinfo.value.last_error
        assert client.unwrap().calls == 3

    def test_full_retry_event_trail(self):
        ledger = CostLedger()
        sleeps: list[float] = []
        policy = make_policy(4, sleeps)
        client = ResilientLLMClient(
            FailingLLM([TransportError("down")] * 9, ledger), policy
        )
        with ledger.capture() as spent, \
                pytest.raises(RetriesExhaustedError):
            client.complete("prompt")
        assert ledger.retry_count == 0   # captured, not yet absorbed
        ledger.absorb(spent)

        # One event per failed attempt, in order, all captured with the
        # call they shadow; only the final one gave up.
        assert [e.attempt for e in spent.events] == [1, 2, 3, 4]
        assert [e.gave_up for e in spent.events] == [
            False, False, False, True
        ]
        assert all(e.model == "gpt-3.5-turbo" for e in spent.events)
        assert all("down" in e.error for e in spent.events)

        # Backoff was actually applied for every non-final failure (and
        # never for the surrender), with the policy's deterministic
        # seeded delays.
        token = hashlib.blake2s(b"prompt", digest_size=8).hexdigest()
        expected = [policy.delay_for(a, token) for a in (1, 2, 3)]
        assert sleeps == expected
        assert [e.delay_seconds for e in spent.events] == expected + [0.0]
        assert ledger.retry_backoff_seconds == sum(expected)

        # Nothing completed, so nothing was billed.
        assert spent.entries == []
        assert ledger.totals().calls == 0
        assert ledger.retry_count == 4

    def test_exhaustion_event_trail_is_reproducible(self):
        def trail():
            ledger = CostLedger()
            client = ResilientLLMClient(
                FailingLLM([TransportError("x")] * 5, ledger),
                make_policy(3, []),
            )
            with ledger.capture() as spent, \
                    pytest.raises(RetriesExhaustedError):
                client.complete("same prompt")
            return [(e.attempt, e.delay_seconds, e.gave_up)
                    for e in spent.events]

        assert trail() == trail()

    def test_recovery_before_exhaustion_leaves_no_gave_up(self):
        ledger = CostLedger()
        client = ResilientLLMClient(
            FailingLLM([TransportError("a"), TransportError("b")], ledger),
            make_policy(4, []),
        )
        with ledger.capture() as spent:
            response = client.complete("prompt")
        assert response.text == "recovered"
        assert [e.attempt for e in spent.events] == [1, 2]
        assert not any(e.gave_up for e in spent.events)
        # The successful third attempt is the only billed call.
        assert len(spent.entries) == 1


class TestPermanentFailures:
    def test_permanent_error_propagates_without_retry(self):
        ledger = CostLedger()
        client = ResilientLLMClient(
            FailingLLM([PermanentLLMError("bad request")] * 3, ledger),
            make_policy(5, []),
        )
        with ledger.capture() as spent, pytest.raises(PermanentLLMError):
            client.complete("prompt")
        assert client.unwrap().calls == 1
        assert spent.events == []

    def test_value_error_is_permanent(self):
        client = ResilientLLMClient(
            FailingLLM([ValueError("schema mismatch")]), make_policy(3, [])
        )
        with pytest.raises(ValueError):
            client.complete("prompt")
        assert client.unwrap().calls == 1

    def test_exhaustion_error_itself_is_permanent(self):
        # A stacked resilience layer must not retry an inner layer's
        # surrender: that would multiply attempt budgets.
        error = RetriesExhaustedError(3, TransportError("inner"))
        assert classify_failure(error) is False
