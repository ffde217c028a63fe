"""LLM service layer: client abstraction, pricing, cost ledger, simulation."""

from .base import (
    ChatResponse,
    ChatUsage,
    DelegatingLLMClient,
    LatencySimulatingClient,
    LLMClient,
    ScriptedLLM,
    claim_draws,
    extract_sql_block,
)
from .cache import CacheStats, CachingLLMClient, LLMCache
from .corruption import cheat_query, corrupt_query, trap_query
from .ledger import (
    CostLedger,
    LedgerDelta,
    LedgerEntry,
    LedgerTotals,
    RetryEvent,
)
from .openai_client import OpenAIChatClient, RecordingTransport, TransportError
from .resilience import (
    PermanentLLMError,
    ResilientLLMClient,
    RetriesExhaustedError,
    RetryPolicy,
    TransientLLMError,
    classify_failure,
)
from .pricing import (
    GPT_35_TURBO,
    GPT_4_TURBO,
    GPT_4O,
    GPT_4O_MINI,
    MODEL_SPECS,
    ModelSpec,
    model_spec,
)
from .simulated import (
    AGENT_PROMPT_MARKER,
    BEHAVIOURS,
    QUESTION_MARKER,
    SAMPLE_MARKER,
    ModelBehaviour,
    SimulatedLLM,
)
from .tokenizer import count_tokens
from .world import ClaimKnowledge, ClaimWorld, LookupTrap

__all__ = [
    "AGENT_PROMPT_MARKER",
    "BEHAVIOURS",
    "CacheStats",
    "CachingLLMClient",
    "ChatResponse",
    "ChatUsage",
    "ClaimKnowledge",
    "ClaimWorld",
    "CostLedger",
    "DelegatingLLMClient",
    "GPT_35_TURBO",
    "GPT_4O",
    "GPT_4O_MINI",
    "GPT_4_TURBO",
    "LLMCache",
    "LLMClient",
    "LatencySimulatingClient",
    "LedgerDelta",
    "LedgerEntry",
    "LedgerTotals",
    "LookupTrap",
    "MODEL_SPECS",
    "OpenAIChatClient",
    "PermanentLLMError",
    "RecordingTransport",
    "ResilientLLMClient",
    "RetriesExhaustedError",
    "RetryEvent",
    "RetryPolicy",
    "ModelBehaviour",
    "ModelSpec",
    "QUESTION_MARKER",
    "SAMPLE_MARKER",
    "ScriptedLLM",
    "SimulatedLLM",
    "TransientLLMError",
    "TransportError",
    "cheat_query",
    "claim_draws",
    "classify_failure",
    "corrupt_query",
    "count_tokens",
    "extract_sql_block",
    "model_spec",
    "trap_query",
]
