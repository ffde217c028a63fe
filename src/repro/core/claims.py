"""Claim and document model (paper Definitions 2.1-2.6).

A claim is a sentence plus the position of a claimed value inside it; the
value is either numeric (possibly written out, "two") or textual. Claims
live inside documents, each of which carries the relational database its
claims refer to.

This module also owns the numeric-precision semantics of Example 4.1: a
query result *matches* a claimed value when rounding the result to the
claim's displayed precision reproduces the claim exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from repro.sqlengine import Database, SqlValue

#: Number words accepted in claim sentences (Example 1.1 claims "two").
_NUMBER_WORDS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
    "twelve": 12, "thirteen": 13, "fourteen": 14, "fifteen": 15,
    "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
    "seventy": 70, "eighty": 80, "ninety": 90, "hundred": 100,
    "thousand": 1000,
}

_NUMERIC_TOKEN = re.compile(r"^[-+]?\$?[\d,]*\.?\d+%?$")

#: Distinct value texts whose parse is remembered.
PARSE_MEMO_SIZE = 4096


@dataclass(frozen=True)
class Span:
    """Word-index range of the claim value within the claim sentence.

    ``start`` and ``end`` are inclusive indices into the whitespace
    tokenisation of the sentence (paper Example 2.3 uses index 1 for the
    word "two" in "The two fatal accidents …").
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end}]")


@dataclass
class Claim:
    """One verifiable claim (Definition 2.2).

    Attributes set by the verification pipeline (initially None):

    * ``query`` — the SQL text CEDAR settled on for this claim.
    * ``correct`` — the verification verdict.

    ``metadata`` carries dataset-internal bookkeeping (ground-truth query,
    difficulty features, label). Verification methods never read it; only
    the simulated-LLM world does, standing in for a real model's language
    understanding, and the experiment harness does for scoring.
    """

    sentence: str
    span: Span
    context: str
    claim_id: str = ""
    query: str | None = None
    correct: bool | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def tokens(self) -> list[str]:
        """Whitespace tokens of the claim sentence."""
        return self.sentence.split()

    @property
    def value_text(self) -> str:
        """The claim value exactly as written in the sentence."""
        tokens = self.tokens
        if self.span.end >= len(tokens):
            raise ValueError(
                f"span {self.span} out of range for sentence {self.sentence!r}"
            )
        raw = " ".join(tokens[self.span.start:self.span.end + 1])
        return raw.strip(".,;:!?()")

    @property
    def value(self) -> SqlValue:
        """The parsed claim value (number where possible, else text)."""
        return parse_claim_value(self.value_text)

    @property
    def is_numeric(self) -> bool:
        """True when the claim value is a number (Definition 2.4 dichotomy)."""
        return isinstance(self.value, (int, float))


@dataclass
class Document:
    """A text document with claims and the database they refer to
    (Definition 2.1)."""

    doc_id: str
    claims: list[Claim]
    data: Database
    domain: str = "generic"
    title: str = ""

    def __post_init__(self) -> None:
        for index, claim in enumerate(self.claims):
            if not claim.claim_id:
                claim.claim_id = f"{self.doc_id}/c{index}"


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_claim_value(text: str) -> SqlValue:
    """Parse the value written in a claim into a number or a string.

    Handles digits with thousands separators ("1,234"), decimals, leading
    currency/percent decoration ("$5", "12%"), and small number words
    ("two", "twenty five"). Anything else stays a string (textual claim).
    Pure, and read several times per attempt through ``Claim.value`` and
    ``is_numeric``, so memoized (LRU, thread-safe; the parser itself is
    ``parse_claim_value.__wrapped__``).
    """
    stripped = text.strip().strip(".,;:!?()")
    if not stripped:
        return text
    word_value = _parse_number_words(stripped.lower())
    if word_value is not None:
        return word_value
    if _NUMERIC_TOKEN.match(stripped):
        cleaned = stripped.replace(",", "").lstrip("$+").rstrip("%")
        if cleaned.startswith("-$"):
            cleaned = "-" + cleaned[2:]
        try:
            if "." in cleaned:
                return float(cleaned)
            return int(cleaned)
        except ValueError:
            return text
    return stripped


def _parse_number_words(text: str) -> int | None:
    """Parse simple number-word phrases ("two", "twenty five", "two hundred")."""
    words = text.replace("-", " ").split()
    if not words or any(w not in _NUMBER_WORDS for w in words):
        return None
    total = 0
    current = 0
    for word in words:
        value = _NUMBER_WORDS[word]
        if value in (100, 1000):
            current = max(current, 1) * value
            total += current
            current = 0
        else:
            current += value
    return total + current


def value_precision(text: str) -> int:
    """Return the number of decimal digits displayed in a numeric claim.

    Per Example 4.1, "3.1" has precision 1, "3" precision 0, "3.14"
    precision 2. Number words have precision 0.
    """
    stripped = text.strip().strip(".,;:!?()").replace(",", "")
    stripped = stripped.lstrip("$+-").rstrip("%")
    if "." not in stripped:
        return 0
    return len(stripped.split(".", 1)[1])


def round_to_precision(value: float | int, precision: int) -> float | int:
    """Round a query result to the claim's displayed precision."""
    rounded = round(float(value), precision)
    return int(rounded) if precision == 0 else rounded


def numeric_values_match(query_result: float | int, claim_text: str) -> bool:
    """Check a numeric query result against the claim as written.

    Implements Algorithm 3's numeric branch: round the query result to the
    claim's precision and compare. Example 4.1: a result of 3.140 matches
    "3.1" and "3" but not "3.143"; 3.143 matches "3.14".
    """
    claimed = parse_claim_value(claim_text)
    if not isinstance(claimed, (int, float)):
        return False
    precision = value_precision(claim_text)
    return round_to_precision(query_result, precision) == claimed


def same_order_of_magnitude(query_result: float | int,
                            claimed: float | int) -> bool:
    """Plausibility test for numeric claims (Function CorrectQuery).

    Prior work [17] shows wrong numeric claims tend to be *close* to the
    true value, so a candidate query whose result is in the same order of
    magnitude as the claimed value is plausibly the right translation.
    Zero is special-cased: it is plausible against small magnitudes only.
    """
    query = float(query_result)
    claim = float(claimed)
    if query == 0.0 and claim == 0.0:
        return True
    if claim == 0.0:
        # A claimed zero is plausibly produced by any result that would
        # round towards it.
        return abs(query) <= 1.5
    if query == 0.0:
        # An empty aggregate (zero) against a non-zero claim is the classic
        # signature of a wrong filter constant, not of a wrong claim.
        return False
    if (query < 0) != (claim < 0):
        return False
    ratio = abs(query) / abs(claim)
    return 0.1 < ratio < 10.0
