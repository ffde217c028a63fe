"""``LLMClient.blocking`` through the wrapper stack.

The parallel executor fans a stage's claims out over threads only when
its client can wait on something other than this process's CPU; the
answer has to survive every wrapper the verifier and the service stack
on top of a concrete client.
"""

import pytest

from repro.datasets import build_aggchecker
from repro.llm import (
    CachingLLMClient,
    LatencySimulatingClient,
    LLMCache,
    OpenAIChatClient,
    RecordingTransport,
    ResilientLLMClient,
    ScriptedLLM,
    SimulatedLLM,
)

WORLD = build_aggchecker(document_count=1, total_claims=2).world


def simulated():
    return SimulatedLLM("gpt-4o", WORLD)


def scripted():
    return ScriptedLLM(["x"])


def hosted():
    return OpenAIChatClient("gpt-4o", RecordingTransport([]))


def cached(make):
    return lambda: CachingLLMClient(make(), LLMCache(8))


@pytest.mark.parametrize("make, blocking", [
    (simulated, False),
    (scripted, False),
    (hosted, True),
    (cached(simulated), False),
    (cached(scripted), False),
    (cached(hosted), True),
    (lambda: LatencySimulatingClient(simulated(), 0.0), True),
    (lambda: ResilientLLMClient(simulated()), True),
], ids=[
    "simulated", "scripted", "openai",
    "cache-over-simulated", "cache-over-scripted", "cache-over-openai",
    "latency-over-simulated", "resilient-over-simulated",
])
def test_blocking_through_the_wrapper_stack(make, blocking):
    assert make().blocking is blocking
