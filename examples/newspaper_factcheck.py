"""Fact-check a generated newspaper data summary (the paper's motivating
scenario: a spell-checker for numbers).

Generates one AggChecker-style document (a 538-like article over an
airline-safety table), runs the full CEDAR stack — profiling, cost-based
scheduling at a 99 % accuracy target, multi-stage verification — and
prints an annotated article with per-claim verdicts and the money spent.

Run with::

    python examples/newspaper_factcheck.py
"""

from repro.core import describe_schedule, optimal_schedule
from repro.datasets import build_aggchecker
from repro.experiments import build_cedar, profile_system, reset_claims
from repro.metrics import score_claims


def main() -> None:
    # A small AggChecker-style corpus: the first documents profile the
    # methods, the last one plays the article under review.
    bundle = build_aggchecker(document_count=6, total_claims=42, seed=21)
    *profiling_docs, article = bundle.documents

    system = build_cedar(bundle, seed=2)
    print(f"Profiling {len(profiling_docs)} documents "
          f"({sum(len(d.claims) for d in profiling_docs)} labeled claims)…")
    profiles = profile_system(system, profiling_docs)
    for name, profile in profiles.items():
        print(f"  {name:28} accuracy={profile.accuracy:5.2f} "
              f"cost/claim=${profile.cost:.5f}")

    planned = optimal_schedule(profiles, min_accuracy=0.99)
    print(f"\nOptimal schedule @99%: {describe_schedule(planned)}")

    reset_claims([article])
    with system.ledger.capture() as captured:
        run = system.verifier.verify_documents(
            [article], system.entries_for(planned)
        )
    system.ledger.absorb(captured)

    print(f"\n=== {article.title} ===")
    for claim in article.claims:
        report = run.report_for(claim)
        flag = "OK " if claim.correct else "FLAGGED"
        stage = report.verified_by or "fallback"
        print(f"[{flag}] {claim.sentence}")
        print(f"        via {stage}, {report.attempts} attempt(s)")
        if not claim.correct and claim.query:
            print(f"        evidence query: {claim.query}")

    counts = score_claims(article.claims)
    spent = captured.totals()
    print(f"\nDetection quality on this article: precision "
          f"{counts.precision:.0%}, recall {counts.recall:.0%}")
    print(f"Verification spend: ${spent.cost:.4f} across {spent.calls} "
          f"LLM calls ({spent.total_tokens} tokens)")


if __name__ == "__main__":
    main()
