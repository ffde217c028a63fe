"""LLM client abstraction.

Everything above this layer (one-shot translation, agents, baselines) talks
to a :class:`LLMClient` and never knows whether the model behind it is a
hosted API or the offline simulation. Responses carry token usage, dollar
cost, and simulated latency so callers can account costs per claim.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.obs.tracer import current_tracer

from .ledger import CostLedger
from .pricing import ModelSpec, model_spec
from .tokenizer import count_tokens


@dataclass(frozen=True)
class ChatUsage:
    """Token counts of one call."""

    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ChatResponse:
    """One model reply with its accounting metadata."""

    text: str
    model: str
    usage: ChatUsage
    cost: float
    latency_seconds: float


class LLMClient(ABC):
    """A chat-completion client bound to one model.

    Subclasses implement :meth:`_generate`; this base class handles token
    accounting, pricing, latency simulation, and ledger recording so every
    implementation bills identically.
    """

    def __init__(self, model_name: str, ledger: CostLedger | None = None):
        self.spec: ModelSpec = model_spec(model_name)
        self.ledger = ledger if ledger is not None else CostLedger()

    @property
    def model_name(self) -> str:
        return self.spec.name

    def complete(self, prompt: str, temperature: float = 0.0) -> ChatResponse:
        """Send a prompt and return the model's reply, recording costs.

        When a tracer is active the call is wrapped in an ``llm_call``
        span carrying model, temperature, token counts, cost, and the
        model's (simulated or real) latency; a raising ``_generate``
        marks the span ``error``. Tracing never alters the response or
        the ledger entry — reports stay byte-identical with it on.
        """
        if not 0.0 <= temperature <= 2.0:
            raise ValueError(f"temperature {temperature} out of range [0, 2]")
        tracer = current_tracer()
        if not tracer.enabled:
            return self._complete(prompt, temperature)
        with tracer.span(
            self.model_name, "llm_call",
            model=self.model_name, temperature=temperature,
        ) as span:
            response = self._complete(prompt, temperature)
            span.set(
                prompt_tokens=response.usage.prompt_tokens,
                completion_tokens=response.usage.completion_tokens,
                cost_usd=response.cost,
                model_latency_seconds=response.latency_seconds,
            )
            return response

    def _complete(self, prompt: str, temperature: float) -> ChatResponse:
        text = self._generate(prompt, temperature)
        usage = ChatUsage(count_tokens(prompt), count_tokens(text))
        cost = self.spec.cost(usage.prompt_tokens, usage.completion_tokens)
        latency = self.spec.latency(
            usage.prompt_tokens, usage.completion_tokens
        )
        response = ChatResponse(text, self.model_name, usage, cost, latency)
        self.ledger.record(
            model=self.model_name,
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
            cost=cost,
            latency_seconds=latency,
        )
        return response

    @abstractmethod
    def _generate(self, prompt: str, temperature: float) -> str:
        """Produce the raw completion text for a prompt."""


class DelegatingLLMClient(LLMClient):
    """Base class for clients that wrap another client.

    The cache and resilience layers stack on top of any concrete client
    (simulated or hosted) without re-billing: they override
    :meth:`complete` and forward to the inner client, whose own
    ``complete`` performs the single ledger recording. Unknown attributes
    (``seed``, ``world``, ``agent_policy``, ``calls``…) resolve against
    the innermost client so wrapped clients stay drop-in.
    """

    def __init__(self, inner: LLMClient) -> None:
        # Deliberately skip LLMClient.__init__: spec and ledger are shared
        # with (not duplicated from) the wrapped client.
        self.inner = inner
        self.spec = inner.spec
        self.ledger = inner.ledger

    def complete(self, prompt: str, temperature: float = 0.0) -> ChatResponse:
        return self.inner.complete(prompt, temperature)

    def _generate(self, prompt: str, temperature: float) -> str:
        return self.inner._generate(prompt, temperature)

    def unwrap(self) -> LLMClient:
        """The innermost concrete client under any stack of wrappers."""
        client: LLMClient = self.inner
        while isinstance(client, DelegatingLLMClient):
            client = client.inner
        return client

    def __getattr__(self, name: str):
        # Only reached for attributes not set on the wrapper itself.
        if name == "inner":  # guard against recursion before __init__ ran
            raise AttributeError(name)
        return getattr(self.inner, name)


class LatencySimulatingClient(DelegatingLLMClient):
    """Sleeps a scaled fraction of each response's simulated latency.

    The inner client computes realistic per-call latency from its model's
    token throughput (:meth:`~repro.llm.pricing.ModelSpec.latency`); this
    wrapper turns that bookkeeping into actual elapsed time. Stacked
    *under* the response cache, so cache hits skip the sleep exactly as
    they skip the network.
    """

    def __init__(self, inner: LLMClient, scale: float) -> None:
        super().__init__(inner)
        self.scale = scale

    def complete(self, prompt: str, temperature: float = 0.0) -> ChatResponse:
        response = self.inner.complete(prompt, temperature)
        time.sleep(response.latency_seconds * self.scale)
        return response


class ScriptedLLM(LLMClient):
    """A client replaying canned responses, for tests.

    Responses are served in order; the last one repeats once the script is
    exhausted (so retry loops in code under test terminate deterministically).
    """

    def __init__(
        self,
        responses: list[str],
        model_name: str = "gpt-3.5-turbo",
        ledger: CostLedger | None = None,
    ) -> None:
        super().__init__(model_name, ledger)
        if not responses:
            raise ValueError("ScriptedLLM needs at least one response")
        self._responses = list(responses)
        self.calls: list[tuple[str, float]] = []

    def _generate(self, prompt: str, temperature: float) -> str:
        self.calls.append((prompt, temperature))
        index = min(len(self.calls) - 1, len(self._responses) - 1)
        return self._responses[index]


def extract_sql_block(text: str) -> str | None:
    """Extract the first SQL statement from a model reply.

    Primary format is a fenced block (```sql … ``` or ``` … ```), as the
    Figure 3 prompt instructs. Falls back to scanning for a line starting
    with SELECT, since weaker models sometimes ignore the fencing
    instruction. Returns None when no candidate is found.
    """
    lowered = text.lower()
    for fence in ("```sql", "```"):
        start = lowered.find(fence)
        if start < 0:
            continue
        body_start = start + len(fence)
        end = text.find("```", body_start)
        if end < 0:
            continue
        candidate = text[body_start:end].strip()
        if candidate:
            return candidate
    index = lowered.find("select ")
    if index >= 0:
        candidate = text[index:].split("\n\n", 1)[0].strip()
        return candidate or None
    return None
