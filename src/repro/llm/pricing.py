"""Model price/latency table.

Prices are USD per one million tokens and match OpenAI's published list
prices for the models the paper evaluates (GPT-3.5-turbo, GPT-4o, and
"GPT-4.0" = GPT-4-turbo). Latency figures are representative generation
speeds used to compute simulated throughput (paper Figure 5b); only their
relative ordering matters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """Pricing and latency description of one hosted model."""

    name: str
    input_price_per_million: float
    output_price_per_million: float
    tokens_per_second: float
    request_overhead_seconds: float
    context_window: int

    def cost(self, prompt_tokens: int, completion_tokens: int) -> float:
        """Dollar cost of one call."""
        return (
            prompt_tokens * self.input_price_per_million
            + completion_tokens * self.output_price_per_million
        ) / 1_000_000.0

    def latency(self, prompt_tokens: int, completion_tokens: int) -> float:
        """Simulated wall-clock seconds for one call.

        Prompt ingestion is an order of magnitude faster than generation,
        so it contributes at 10x the generation speed.
        """
        ingest = prompt_tokens / (self.tokens_per_second * 10.0)
        generate = completion_tokens / self.tokens_per_second
        return self.request_overhead_seconds + ingest + generate


GPT_35_TURBO = ModelSpec(
    name="gpt-3.5-turbo",
    input_price_per_million=0.50,
    output_price_per_million=1.50,
    tokens_per_second=110.0,
    request_overhead_seconds=0.4,
    context_window=16_385,
)

GPT_4O = ModelSpec(
    name="gpt-4o",
    input_price_per_million=2.50,
    output_price_per_million=10.00,
    tokens_per_second=85.0,
    request_overhead_seconds=0.5,
    context_window=128_000,
)

GPT_4_TURBO = ModelSpec(
    name="gpt-4-turbo",
    input_price_per_million=10.00,
    output_price_per_million=30.00,
    tokens_per_second=30.0,
    request_overhead_seconds=0.7,
    context_window=128_000,
)

GPT_4O_MINI = ModelSpec(
    name="gpt-4o-mini",
    input_price_per_million=0.15,
    output_price_per_million=0.60,
    tokens_per_second=140.0,
    request_overhead_seconds=0.3,
    context_window=128_000,
)

MODEL_SPECS = {
    spec.name: spec
    for spec in (GPT_35_TURBO, GPT_4O, GPT_4_TURBO, GPT_4O_MINI)
}


def model_spec(name: str) -> ModelSpec:
    """Look up a model spec by name, raising KeyError with the known names."""
    try:
        return MODEL_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; known models: "
            f"{', '.join(sorted(MODEL_SPECS))}"
        ) from None
