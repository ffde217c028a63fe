"""CEDAR reproduction: cost-efficient data-driven claim verification.

The package mirrors the paper's architecture (see README.md):

* :mod:`repro.core` — CEDAR itself: the claim model, masking,
  verification methods, the multi-stage pipeline, and the cost-based
  scheduler;
* :mod:`repro.sqlengine` — the relational engine claims are verified
  against;
* :mod:`repro.cache` — the one cache class (an in-memory LRU with an
  optional persistent sqlite tier);
* :mod:`repro.llm` — the LLM client layer (pricing, cost ledger, offline
  simulation, OpenAI adapter);
* :mod:`repro.agents` — the ReAct agent framework and its tools;
* :mod:`repro.embeddings` — short-string embeddings for textual claims;
* :mod:`repro.datasets` — generators for the paper's benchmarks;
* :mod:`repro.baselines` — the prior systems of Table 2;
* :mod:`repro.metrics` — detection quality, economics, query complexity;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure.

The most common entry points are re-exported here::

    from repro import Claim, Document, Database, Table, verify, VerifierConfig

and one call verifies a batch of documents::

    run = repro.verify(documents, schedule=schedule,
                       config=repro.VerifierConfig(workers=4))
"""

import logging

from repro.cache import CacheStats
from repro.core import (
    AgentMethod,
    Claim,
    ClaimReport,
    Document,
    MultiStageVerifier,
    OneShotMethod,
    ParallelVerifier,
    ScheduleEntry,
    Span,
    VerificationRun,
    VerifierConfig,
    optimal_schedule,
    profile_methods,
    verify,
)
from repro.llm import (
    CostLedger,
    LLMCache,
    LLMClient,
    OpenAIChatClient,
    RetryPolicy,
    SimulatedLLM,
)
from repro.sqlengine import Database, Engine, Table, load_csv

__version__ = "1.2.0"

# A library logs into the void until its application configures
# logging: without this, stdlib's last-resort handler would print every
# ``llm_retry`` warning to stderr (docs/observability.md).
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AgentMethod",
    "CacheStats",
    "Claim",
    "ClaimReport",
    "CostLedger",
    "Database",
    "Document",
    "Engine",
    "LLMCache",
    "LLMClient",
    "MultiStageVerifier",
    "OneShotMethod",
    "OpenAIChatClient",
    "ParallelVerifier",
    "RetryPolicy",
    "ScheduleEntry",
    "SimulatedLLM",
    "Span",
    "Table",
    "VerificationRun",
    "VerifierConfig",
    "__version__",
    "load_csv",
    "optimal_schedule",
    "profile_methods",
    "verify",
]
