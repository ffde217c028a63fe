"""Thread-safe LLM response cache with LRU eviction.

Identical temperature-0 calls are deterministic — for the offline
simulation by construction (the RNG seed is a pure function of model,
claim, and prompt) and for hosted APIs by convention — so re-issuing them
buys nothing but latency and spend. The cache memoises those calls keyed
on ``(model, prompt, temperature, seed)``.

Calls at temperature > 0 **bypass** the cache entirely. The paper's cost
model rests on Assumption 1: retries of a method are *independent* trials.
Serving a cached completion for a retry would collapse those trials into
one draw, silently breaking Theorems 6.1-6.2 (and the repro's simulated
retries, which must advance the per-claim RNG). Bypasses are counted so
the stats stay honest about how much traffic was cacheable at all.

:class:`LLMCache` is a :class:`repro.cache.TieredCache` under the
``"llm"`` namespace: pure in-memory by default, and backed by the
persistent L2 file when constructed with ``l2=`` — responses then
survive restarts, serialised through :data:`CHAT_RESPONSE_CODEC` (an
exact JSON round trip, so warm runs stay byte-identical to cold ones).
"""

from __future__ import annotations

import json

from repro.cache import CacheStats, SqliteCacheBackend, TieredCache
from repro.obs.tracer import current_tracer

from .base import ChatResponse, ChatUsage, DelegatingLLMClient, LLMClient

__all__ = [
    "CacheKey",
    "CacheStats",
    "CachingLLMClient",
    "CHAT_RESPONSE_CODEC",
    "DEFAULT_CACHE_SIZE",
    "LLMCache",
]

#: Default number of responses an :class:`LLMCache` retains.
DEFAULT_CACHE_SIZE = 1024

#: Cache key: (model, prompt, temperature, repr of the client seed).
CacheKey = tuple[str, str, float, str]


class _ChatResponseCodec:
    """Exact JSON round trip for :class:`ChatResponse` (the L2 codec).

    Every field is a str/int/float, and Python's JSON float rendering
    round-trips exactly, so ``decode(encode(r)) == r`` — the property the
    warm-start determinism contract rests on.
    """

    def encode(self, response: ChatResponse) -> str:
        return json.dumps({
            "text": response.text,
            "model": response.model,
            "prompt_tokens": response.usage.prompt_tokens,
            "completion_tokens": response.usage.completion_tokens,
            "cost": response.cost,
            "latency_seconds": response.latency_seconds,
        }, sort_keys=True)

    def decode(self, text: str) -> ChatResponse:
        data = json.loads(text)
        return ChatResponse(
            text=data["text"],
            model=data["model"],
            usage=ChatUsage(
                prompt_tokens=data["prompt_tokens"],
                completion_tokens=data["completion_tokens"],
            ),
            cost=data["cost"],
            latency_seconds=data["latency_seconds"],
        )


CHAT_RESPONSE_CODEC = _ChatResponseCodec()


class LLMCache(TieredCache):
    """An LRU map from prompts to :class:`ChatResponse` objects.

    Safe for concurrent use. Intended to be shared — across the methods
    of one verifier, and across repeated runs over the same documents
    (where the hit rate is highest). Pass ``l2`` (an opened
    :class:`~repro.cache.SqliteCacheBackend`) to add a restart-surviving
    tier behind the in-memory one.
    """

    def __init__(
        self,
        max_size: int = DEFAULT_CACHE_SIZE,
        *,
        l2: SqliteCacheBackend | None = None,
    ) -> None:
        super().__init__("llm", max_size, l2=l2, codec=CHAT_RESPONSE_CODEC)


class CachingLLMClient(DelegatingLLMClient):
    """Wrap a client so temperature-0 completions are served from a cache.

    A hit returns the stored response without touching the inner client —
    and therefore without recording a ledger entry: the whole point is
    that no tokens were spent. Calls at temperature > 0 pass straight
    through (see the module docstring for why).
    """

    def __init__(self, inner: LLMClient, cache: LLMCache) -> None:
        super().__init__(inner)
        self.cache = cache

    def complete(self, prompt: str, temperature: float = 0.0) -> ChatResponse:
        tracer = current_tracer()
        if temperature > 0.0:
            self.cache.note_bypass()
            response = self.inner.complete(prompt, temperature)
            # The inner client just closed the llm_call span; stamp how
            # the cache treated the call onto it.
            tracer.annotate_latest(cache="bypass")
            return response
        key = self._key(prompt, temperature)
        cached = self.cache.get(key)
        if cached is not None:
            if tracer.enabled:
                now = tracer.clock()
                tracer.record(
                    cached.model, "llm_call", now, now,
                    model=cached.model, temperature=temperature,
                    cache="hit",
                    prompt_tokens=cached.usage.prompt_tokens,
                    completion_tokens=cached.usage.completion_tokens,
                    cost_usd=0.0,
                )
            return cached
        response = self.inner.complete(prompt, temperature)
        tracer.annotate_latest(cache="miss")
        self.cache.put(key, response)
        return response

    def _key(self, prompt: str, temperature: float) -> CacheKey:
        # The simulated client's seed is part of its identity: two clients
        # with different seeds answer the same prompt differently. Hosted
        # clients have no seed. The seed is config-derived (stable across
        # restarts) and repr() renders int and None alike as one
        # deterministic string, so the key also names the L2 entry.
        return (
            self.model_name,
            prompt,
            temperature,
            repr(getattr(self.inner, "seed", None)),
        )
