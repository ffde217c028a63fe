"""Shared wiring for the experiment harness.

Builds a complete CEDAR system (simulated model clients for the paper's
four verification approaches, one shared cost ledger, the multi-stage
verifier) over a dataset bundle, profiles the methods, derives the optimal
schedule, runs verification, and scores the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.agents import install_agent_policy
from repro.core import (
    AgentMethod,
    MethodProfile,
    MultiStageVerifier,
    OneShotMethod,
    ParallelVerifier,
    PlannedSchedule,
    ScheduleEntry,
    VerificationMethod,
    VerificationRun,
    VerifierConfig,
    describe_schedule,
    optimal_schedule,
    profile_methods,
)
from repro.core.claims import Document
from repro.datasets import DatasetBundle
from repro.llm import CostLedger, SimulatedLLM
from repro.metrics import (
    ConfusionCounts,
    RunEconomics,
    economics_from_totals,
    score_claims,
)

#: Accuracy threshold the paper uses unless stated otherwise.
DEFAULT_ACCURACY_THRESHOLD = 0.99

#: Number of leading documents used for profiling.
DEFAULT_PROFILE_DOCS = 3


@dataclass
class CedarSystem:
    """A wired CEDAR instance: methods sharing one ledger."""

    ledger: CostLedger
    methods: list[VerificationMethod]
    verifier: MultiStageVerifier

    def method_by_name(self, name: str) -> VerificationMethod:
        for method in self.methods:
            if method.name == name:
                return method
        raise KeyError(f"no method named {name!r}")

    def entries_for(self, planned: PlannedSchedule) -> list[ScheduleEntry]:
        """Materialise a planned schedule into executable entries."""
        return [
            ScheduleEntry(self.method_by_name(stage.method_name), stage.tries)
            for stage in planned
            if stage.tries > 0
        ]


@dataclass
class CedarRunResult:
    """Everything an experiment needs from one verification run."""

    name: str
    counts: ConfusionCounts
    economics: RunEconomics
    schedule_description: str = ""
    profiles: dict[str, MethodProfile] = field(default_factory=dict)
    run: VerificationRun | None = None


def build_cedar(
    bundle: DatasetBundle,
    seed: int = 0,
    config: VerifierConfig | None = None,
) -> CedarSystem:
    """Wire the paper's four verification approaches over a bundle.

    Section 7.1: one-shot with GPT-3.5 and GPT-4o, agents with GPT-4o and
    GPT-4 ("GPT-4.0", i.e. GPT-4-turbo). A ``config`` selects the
    executor; its ``ledger``, if any, bills the four clients. The
    clients are in-process simulations that never block, so every run
    is the paper's sequential Algorithm 1 whatever ``workers`` says
    (the executor overlaps only model calls that wait).
    """
    base = config if config is not None else VerifierConfig()
    ledger = base.ledger if base.ledger is not None else CostLedger()
    world = bundle.world
    oneshot_35 = OneShotMethod(
        SimulatedLLM("gpt-3.5-turbo", world, ledger, seed=seed)
    )
    oneshot_4o = OneShotMethod(
        SimulatedLLM("gpt-4o", world, ledger, seed=seed + 1)
    )
    agent_4o = AgentMethod(
        install_agent_policy(SimulatedLLM("gpt-4o", world, ledger,
                                          seed=seed + 2))
    )
    agent_4t = AgentMethod(
        install_agent_policy(SimulatedLLM("gpt-4-turbo", world, ledger,
                                          seed=seed + 3))
    )
    methods = [oneshot_35, oneshot_4o, agent_4o, agent_4t]
    verifier = ParallelVerifier(config=replace(base, ledger=ledger))
    return CedarSystem(ledger, methods, verifier)


def reset_claims(documents: list[Document]) -> None:
    """Clear verification state so a bundle can be re-verified."""
    for document in documents:
        for claim in document.claims:
            claim.correct = None
            claim.query = None


def profile_system(
    system: CedarSystem, documents: list[Document]
) -> dict[str, MethodProfile]:
    """Profile all methods on a labeled document sample."""
    return profile_methods(system.methods, documents, system.ledger)


def run_cedar(
    bundle: DatasetBundle,
    accuracy_threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    seed: int = 0,
    profile_docs: int = DEFAULT_PROFILE_DOCS,
    profiles: dict[str, MethodProfile] | None = None,
    planned: PlannedSchedule | None = None,
    documents: list[Document] | None = None,
    config: VerifierConfig | None = None,
) -> CedarRunResult:
    """Full CEDAR run: profile -> schedule -> verify -> score.

    ``profiles`` and ``planned`` can be injected (e.g. by the Figure 7
    cross-domain study); otherwise profiling runs on the bundle's leading
    documents and Algorithm 10 derives the schedule. ``config`` tunes the
    executor (worker count, response cache, retry policy).
    """
    system = build_cedar(bundle, seed=seed, config=config)
    target_documents = documents if documents is not None else bundle.documents
    if profiles is None:
        sample = bundle.documents[:profile_docs]
        profiles = profile_system(system, sample)
    if planned is None:
        planned = optimal_schedule(profiles, accuracy_threshold)
    entries = system.entries_for(planned)
    reset_claims(target_documents)
    with system.ledger.capture() as spent:
        run = system.verifier.verify_documents(target_documents, entries)
    system.ledger.absorb(spent)
    claims = [c for d in target_documents for c in d.claims]
    counts = score_claims(claims)
    economics = economics_from_totals(spent.totals(), len(claims))
    return CedarRunResult(
        name=f"cedar@{accuracy_threshold:.2f}",
        counts=counts,
        economics=economics,
        schedule_description=describe_schedule(planned),
        profiles=profiles,
        run=run,
    )


def run_single_stage(
    bundle: DatasetBundle,
    method_index: int,
    tries: int = 1,
    seed: int = 0,
    documents: list[Document] | None = None,
) -> CedarRunResult:
    """Run one verification method alone (Figure 5's single-stage points)."""
    system = build_cedar(bundle, seed=seed)
    method = system.methods[method_index]
    entries = [ScheduleEntry(method, tries)]
    target_documents = documents if documents is not None else bundle.documents
    reset_claims(target_documents)
    with system.ledger.capture() as spent:
        run = system.verifier.verify_documents(target_documents, entries)
    system.ledger.absorb(spent)
    claims = [c for d in target_documents for c in d.claims]
    counts = score_claims(claims)
    economics = economics_from_totals(spent.totals(), len(claims))
    return CedarRunResult(
        name=f"single:{method.name}x{tries}",
        counts=counts,
        economics=economics,
        schedule_description=f"{method.name}x{tries}",
        run=run,
    )


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render an aligned text table for experiment reports."""
    table = [headers] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
