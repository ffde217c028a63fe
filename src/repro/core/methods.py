"""Verification method abstraction (paper Section 5).

A verification method translates one masked claim into an SQL query using
an LLM. CEDAR instantiates several methods (one-shot and agent-based, each
with several model tiers) and schedules them by cost and accuracy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.llm.base import LLMClient
from repro.sqlengine import Database, SqlValue

from .masking import MaskedClaim


@dataclass(frozen=True)
class Sample:
    """A successfully translated claim, used for few-shot prompting.

    CEDAR harvests these at verification time (Algorithm 1): the first
    claim a method verifies in a document becomes the sample for the
    remaining claims of that document.
    """

    masked_sentence: str
    query_sql: str


@dataclass
class TranslationResult:
    """Outcome of one translation attempt."""

    query: str | None
    response_text: str = ""
    issued_queries: list[str] = field(default_factory=list)
    trace_text: str = ""


class VerificationMethod(ABC):
    """One claim-to-SQL translation strategy bound to one LLM."""

    #: Temperature used on retries (the first attempt always runs at 0;
    #: Section 7.1: 0.25 for one-shot retries, 0.5 for agent retries).
    retry_temperature: float = 0.25

    #: Static SQL analyzer gate for the surfaces the method itself owns
    #: (the agent's querying tool, Algorithm 9 reconstruction). The
    #: verifier copies :attr:`VerifierConfig.analyze_sql` onto method
    #: copies when instrumenting a schedule.
    analyze_sql: bool = True

    def __init__(self, client: LLMClient, name: str | None = None) -> None:
        self.client = client
        self.name = name or f"{self.kind}[{client.model_name}]"

    @property
    @abstractmethod
    def kind(self) -> str:
        """Either ``"one_shot"`` or ``"agent"``."""

    @abstractmethod
    def translate(
        self,
        masked: MaskedClaim,
        value_type: str,
        claim_value: SqlValue,
        claim_value_text: str,
        database: Database,
        sample: Sample | None,
        temperature: float,
    ) -> TranslationResult:
        """Translate a masked claim into SQL.

        ``claim_value`` is available to the *method* (it drives the agent's
        feedback tool) but must never be placed in any prompt — that is the
        Figure 2 cheat the masking stage exists to prevent.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def render_sample(sample: Sample | None) -> str:
    """Render the few-shot sample block of the Figure 3 prompt (Table 1)."""
    if sample is None:
        return ""
    return (
        f'For example, given the claim "{sample.masked_sentence}", to find '
        f'the value for "x", generated SQL query would be '
        f'"{sample.query_sql}".'
    )
