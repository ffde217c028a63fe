"""Ablation studies for CEDAR's design choices (DESIGN.md, A1-A4).

These go beyond the paper's own tables: each ablation switches off one
design decision the paper motivates qualitatively and measures the damage.

* **A1 masking** — skip Algorithm 4: prompts carry the raw claim value;
  the model takes the Figure 2 shortcut and recall collapses.
* **A2 few-shot samples** — disable Algorithm 1's sample harvesting.
* **A3 reconstruction** — skip Algorithm 9 and trust the agent's last
  query, which is often a trivial constant comparison.
* **A4 scheduler** — replace the DP schedule with fixed orders
  (cheapest-only, expensive-first).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import (
    AgentMethod,
    MultiStageVerifier,
    ScheduleEntry,
    VerifierConfig,
    assess_query,
    one_shot_prompt,
    optimal_schedule,
    validate_claim,
)
from repro.core.masking import mask_claim
from repro.datasets import DatasetBundle, build_aggchecker
from repro.llm import CostLedger, SimulatedLLM, extract_sql_block
from repro.metrics import ConfusionCounts, score_claims
from repro.sqlengine import prompt_schema_text

from .common import build_cedar, profile_system, reset_claims, run_cedar


@dataclass
class AblationOutcome:
    """Quality/cost of one configuration of an ablation."""

    label: str
    counts: ConfusionCounts
    cost: float
    note: str = ""

    @property
    def f1(self) -> float:
        return 100.0 * self.counts.f1

    @property
    def recall(self) -> float:
        return 100.0 * self.counts.recall


def _default_bundle(fast: bool) -> DatasetBundle:
    if fast:
        return build_aggchecker(document_count=10, total_claims=60)
    return build_aggchecker(document_count=24, total_claims=160)


# -- A1: masking ---------------------------------------------------------------


def ablate_masking(fast: bool = True, seed: int = 0) -> list[AblationOutcome]:
    """One-shot verification with and without claim-value masking."""
    bundle = _default_bundle(fast)
    outcomes = []
    for masked, label in ((True, "masked (Algorithm 4)"),
                          (False, "unmasked (Figure 2 cheat)")):
        ledger = CostLedger()
        client = SimulatedLLM("gpt-4o", bundle.world, ledger, seed=seed)
        docmap = {d.doc_id: d for d in bundle.documents}
        reset_claims(bundle.documents)
        for claim in bundle.claims:
            database = docmap[claim.claim_id.rsplit("/", 1)[0]].data
            if masked:
                text = mask_claim(claim)
                sentence, context = text.masked_sentence, text.masked_context
            else:
                sentence, context = claim.sentence, claim.context
            prompt = one_shot_prompt(
                sentence, "numeric" if claim.is_numeric else "",
                prompt_schema_text(database), None, context,
            )
            sql = extract_sql_block(client.complete(prompt, 0.0).text)
            assessment = assess_query(sql, claim, database)
            if assessment.plausible and sql:
                claim.correct = validate_claim(sql, claim, database)
                claim.query = sql
            else:
                claim.correct = not assessment.executable
        outcomes.append(
            AblationOutcome(label, score_claims(bundle.claims),
                            ledger.total_cost)
        )
    return outcomes


# -- A2: few-shot samples --------------------------------------------------------


def ablate_samples(fast: bool = True, seed: int = 0) -> list[AblationOutcome]:
    """Multi-stage verification with and without sample harvesting."""
    bundle = _default_bundle(fast)
    outcomes = []
    for use_samples, label in ((True, "with samples"),
                               (False, "without samples")):
        system = build_cedar(bundle, seed=seed)
        system.verifier = MultiStageVerifier(config=VerifierConfig(
            ledger=system.ledger, use_samples=use_samples
        ))
        profiles = profile_system(system, bundle.documents[:3])
        planned = optimal_schedule(profiles, 0.99)
        entries = system.entries_for(planned)
        reset_claims(bundle.documents)
        with system.ledger.capture() as spent:
            system.verifier.verify_documents(bundle.documents, entries)
        system.ledger.absorb(spent)
        outcomes.append(
            AblationOutcome(
                label,
                score_claims(bundle.claims),
                spent.totals().cost,
            )
        )
    return outcomes


# -- A3: query reconstruction ------------------------------------------------------


def ablate_reconstruction(
    fast: bool = True, seed: int = 0
) -> list[AblationOutcome]:
    """Agent verification with Algorithm 9 on and off."""
    bundle = _default_bundle(fast)
    outcomes = []
    for reconstruct_queries, label in (
        (True, "with reconstruction (Algorithm 9)"),
        (False, "last agent query verbatim"),
    ):
        from repro.agents import install_agent_policy

        ledger = CostLedger()
        client = install_agent_policy(
            SimulatedLLM("gpt-4-turbo", bundle.world, ledger, seed=seed)
        )
        method = AgentMethod(client,
                             reconstruct_queries=reconstruct_queries)
        verifier = MultiStageVerifier(config=VerifierConfig(ledger=ledger))
        reset_claims(bundle.documents)
        verifier.verify_documents(bundle.documents,
                                  [ScheduleEntry(method, 1)])
        # Reconstruction rarely changes the *verdict* (the trivial last
        # query returns the same value), but it changes whether the query
        # CEDAR reports to the user represents the claim's semantics: a
        # self-contained query embeds the derivation as a sub-query
        # instead of a constant copied from an earlier step.
        stepwise = [
            c for c in bundle.claims
            if c.query and bundle.world.by_id(c.claim_id).decomposition
        ]
        self_contained = sum(1 for c in stepwise if "(SELECT" in c.query)
        note = (
            f"{self_contained}/{len(stepwise)} stepwise claims yield a "
            "self-contained query"
        )
        outcomes.append(
            AblationOutcome(label, score_claims(bundle.claims),
                            ledger.total_cost, note=note)
        )
    return outcomes


# -- A4: scheduler -----------------------------------------------------------------


def ablate_scheduler(
    fast: bool = True, seed: int = 0
) -> list[AblationOutcome]:
    """DP-optimised schedule vs fixed orders."""
    bundle = _default_bundle(fast)
    outcomes = []

    dp_run = run_cedar(bundle, seed=seed)
    outcomes.append(
        AblationOutcome("DP schedule (Algorithm 10)", dp_run.counts,
                        dp_run.economics.cost)
    )

    fixed_orders = {
        "cheapest method only x3": [(0, 3)],
        "expensive-first": [(3, 1), (2, 1), (1, 1), (0, 1)],
        "one try of everything": [(0, 1), (1, 1), (2, 1), (3, 1)],
    }
    for label, plan in fixed_orders.items():
        system = build_cedar(bundle, seed=seed)
        entries = [
            ScheduleEntry(system.methods[index], tries)
            for index, tries in plan
        ]
        reset_claims(bundle.documents)
        with system.ledger.capture() as spent:
            system.verifier.verify_documents(bundle.documents, entries)
        system.ledger.absorb(spent)
        outcomes.append(
            AblationOutcome(
                label,
                score_claims(bundle.claims),
                spent.totals().cost,
            )
        )
    return outcomes


def format_outcomes(title: str, outcomes: list[AblationOutcome]) -> str:
    from .common import format_table

    rows = [
        [o.label, f"{o.f1:.1f}", f"{o.recall:.1f}", f"${o.cost:.4f}", o.note]
        for o in outcomes
    ]
    return title + "\n" + format_table(
        ["configuration", "F1", "recall", "cost", "notes"], rows
    )
