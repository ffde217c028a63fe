"""Profiling verification methods on labeled data (paper Sections 3, 6).

CEDAR's scheduler needs, for every verification method, an estimate of its
per-try success probability ``A`` and expected dollar cost ``C``. Both are
measured by running the method once over a labeled sample of claims:

* a try *succeeds* when the method produces a plausible query
  (CorrectQuery passes) whose verdict agrees with the ground-truth label;
* cost and latency are read from the method's ledger capture, averaged
  per claim.

Profiling is the one place CEDAR requires labels (Section 8); Section
7.3.3 (our Figure 7 reproduction) studies how schedules built from one
domain's profile transfer to others.
"""

from __future__ import annotations

from repro.llm.ledger import CostLedger

from .claims import Claim, Document
from .cost_model import MethodProfile
from .masking import mask_claim
from .methods import VerificationMethod
from .plausibility import assess_query, validate_claim

#: Metadata key under which datasets store the ground-truth label.
LABEL_KEY = "label_correct"


def profile_method(
    method: VerificationMethod,
    documents: list[Document],
    ledger: CostLedger,
) -> MethodProfile:
    """Measure one method's accuracy and per-claim cost on labeled docs."""
    claims = [(claim, document) for document in documents
              for claim in document.claims]
    for claim, _ in claims:
        if LABEL_KEY not in claim.metadata:
            raise ValueError(
                f"claim {claim.claim_id} has no ground-truth label; "
                "profiling requires labeled data"
            )
    if not claims:
        raise ValueError("profiling requires at least one claim")
    successes = 0
    with ledger.capture() as spent:
        for claim, document in claims:
            if _try_once(method, claim, document):
                successes += 1
    ledger.absorb(spent)
    total = len(claims)
    totals = spent.totals()
    return MethodProfile(
        name=method.name,
        accuracy=successes / total,
        cost=totals.cost / total,
        latency_seconds=totals.latency_seconds / total,
    )


def profile_methods(
    methods: list[VerificationMethod],
    documents: list[Document],
    ledger: CostLedger,
) -> dict[str, MethodProfile]:
    """Profile several methods over the same labeled documents."""
    return {
        method.name: profile_method(method, documents, ledger)
        for method in methods
    }


def _try_once(
    method: VerificationMethod, claim: Claim, document: Document
) -> bool:
    masked = mask_claim(claim)
    value_type = "numeric" if claim.is_numeric else ""
    translation = method.translate(
        masked,
        value_type,
        claim.value,
        claim.value_text,
        document.data,
        None,
        0.0,
    )
    assessment = assess_query(translation.query, claim, document.data)
    if not assessment.plausible or translation.query is None:
        return False
    verdict = validate_claim(translation.query, claim, document.data)
    return verdict == bool(claim.metadata[LABEL_KEY])
