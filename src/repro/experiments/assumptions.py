"""Extended-report experiment — the cost of the independence assumptions.

Section 6.1 makes two simplifying assumptions: retries of one method are
independent draws (Assumption 1) and different methods succeed
independently (Assumption 2). The extended technical report the paper
cites ([11]) assesses what those assumptions cost. This experiment
reproduces that assessment: for a range of schedules, the closed-form
estimates of Theorems 6.1/6.2 are compared with the *realized* success
rate and cost measured by actually running the schedule.

The expected picture (and the paper's conclusion): estimated accuracy is
*optimistic* — correlated failures (a claim whose phrasing defeats every
model, a misreading every retry repeats) mean real schedules plateau
below the independence prediction — while the cost estimates stay close,
and the optimistic bias does not change which schedule the optimizer
prefers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import (
    PlannedSchedule,
    PlannedStage,
    describe_schedule,
    schedule_accuracy,
    schedule_cost,
)
from repro.core import MultiStageVerifier, VerifierConfig
from repro.datasets import build_aggchecker

from .common import build_cedar, format_table, profile_system, reset_claims


@dataclass
class AssumptionPoint:
    """Estimated vs realized metrics for one schedule."""

    schedule: str
    estimated_accuracy: float
    realized_accuracy: float
    estimated_cost_per_claim: float
    realized_cost_per_claim: float

    @property
    def accuracy_gap(self) -> float:
        """Positive when the independence model is optimistic."""
        return self.estimated_accuracy - self.realized_accuracy


@dataclass
class AssumptionsResult:
    points: list[AssumptionPoint]

    @property
    def mean_accuracy_gap(self) -> float:
        return sum(p.accuracy_gap for p in self.points) / len(self.points)


#: Schedules probed: deeper and deeper retry ladders — exactly where
#: Assumption 1 bites (retrying a correlated failure buys nothing).
_PROBE_SCHEDULES: tuple[PlannedSchedule, ...] = (
    (PlannedStage("one_shot[gpt-3.5-turbo]", 1),),
    (PlannedStage("one_shot[gpt-3.5-turbo]", 3),),
    (PlannedStage("one_shot[gpt-3.5-turbo]", 3),
     PlannedStage("one_shot[gpt-4o]", 3)),
    (PlannedStage("one_shot[gpt-3.5-turbo]", 3),
     PlannedStage("one_shot[gpt-4o]", 3),
     PlannedStage("agent[gpt-4o]", 2)),
)


def run_assumptions(fast: bool = False, seed: int = 0) -> AssumptionsResult:
    """Compare Theorem 6.1/6.2 estimates with realized measurements."""
    if fast:
        bundle = build_aggchecker(document_count=10, total_claims=60)
    else:
        bundle = build_aggchecker(document_count=28, total_claims=190)
    points = []
    for planned in _PROBE_SCHEDULES:
        system = build_cedar(bundle, seed=seed)
        profiles = profile_system(system, bundle.documents[:3])
        estimated_accuracy = schedule_accuracy(planned, profiles)
        estimated_cost = schedule_cost(planned, profiles)
        entries = system.entries_for(planned)
        reset_claims(bundle.documents)
        # Same success definition as profiling (a plausible query whose
        # verdict matches the label), and no few-shot samples — profiling
        # measures sample-free tries, so the comparison must too.
        verifier = MultiStageVerifier(config=VerifierConfig(
            ledger=system.ledger, use_samples=False
        ))
        with system.ledger.capture() as spent:
            run = verifier.verify_documents(bundle.documents, entries)
        system.ledger.absorb(spent)
        claims = bundle.claims
        verified = sum(
            1 for claim in claims
            if run.reports[claim.claim_id].verified_by is not None
            and claim.correct == bool(claim.metadata["label_correct"])
        )
        realized_accuracy = verified / len(claims)
        realized_cost = spent.totals().cost / len(claims)
        points.append(AssumptionPoint(
            schedule=describe_schedule(planned),
            estimated_accuracy=estimated_accuracy,
            realized_accuracy=realized_accuracy,
            estimated_cost_per_claim=estimated_cost,
            realized_cost_per_claim=realized_cost,
        ))
    return AssumptionsResult(points)


def format_assumptions(result: AssumptionsResult) -> str:
    lines = [
        "Extended report — cost of the independence assumptions "
        "(Section 6.1)",
        "",
        "Per-claim verification success and cost: the Theorem 6.1/6.2",
        "closed forms (computed from profiles) vs the realized values.",
        "",
    ]
    rows = [
        [
            point.schedule,
            f"{point.estimated_accuracy:.3f}",
            f"{point.realized_accuracy:.3f}",
            f"{point.accuracy_gap:+.3f}",
            f"${point.estimated_cost_per_claim:.5f}",
            f"${point.realized_cost_per_claim:.5f}",
        ]
        for point in result.points
    ]
    lines.append(format_table(
        ["schedule", "est. A", "real A", "gap", "est. $/claim",
         "real $/claim"],
        rows,
    ))
    lines.append("")
    lines.append(
        f"mean optimism of the independence model: "
        f"{result.mean_accuracy_gap:+.3f} "
        "(positive = estimates too optimistic, as expected: retries of "
        "correlated failures buy less than independence predicts)"
    )
    return "\n".join(lines)


def main(fast: bool = False) -> str:
    report = format_assumptions(run_assumptions(fast=fast))
    print(report)
    return report


if __name__ == "__main__":
    main()
