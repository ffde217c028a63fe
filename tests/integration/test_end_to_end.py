"""End-to-end integration tests: full CEDAR runs over small bundles."""

import pytest

from repro.core import ScheduleEntry, optimal_schedule, profile_methods
from repro.datasets import build_tabfact, build_wikitext
from repro.experiments import (
    build_cedar,
    profile_system,
    reset_claims,
    run_cedar,
    run_single_stage,
)
from repro.llm import CostLedger
from repro.obs.tracer import Tracer
from repro.metrics import score_claims


@pytest.fixture(scope="module")
def bundle():
    return build_tabfact(table_count=8, total_claims=32)


class TestFullPipeline:
    def test_run_cedar_produces_verdicts(self, bundle):
        result = run_cedar(bundle, seed=1)
        assert all(c.correct is not None for c in bundle.claims)
        assert result.counts.total == bundle.claim_count
        assert result.economics.cost > 0
        assert result.schedule_description

    def test_quality_beats_chance(self, bundle):
        result = run_cedar(bundle, seed=1)
        assert result.counts.f1 > 0.5

    def test_determinism(self, bundle):
        first = run_cedar(bundle, seed=2)
        verdicts_first = [c.correct for c in bundle.claims]
        second = run_cedar(bundle, seed=2)
        verdicts_second = [c.correct for c in bundle.claims]
        assert verdicts_first == verdicts_second
        assert first.economics.cost == pytest.approx(second.economics.cost)

    def test_seed_sensitivity(self, bundle):
        run_cedar(bundle, seed=3)
        first = [c.correct for c in bundle.claims]
        run_cedar(bundle, seed=4)
        second = [c.correct for c in bundle.claims]
        assert first != second

    def test_threshold_monotone_in_cost(self, bundle):
        cheap = run_cedar(bundle, accuracy_threshold=0.5, seed=1)
        strict = run_cedar(bundle, accuracy_threshold=0.99, seed=1)
        assert cheap.economics.cost <= strict.economics.cost

    def test_single_stage(self, bundle):
        result = run_single_stage(bundle, method_index=0, tries=1, seed=1)
        assert result.counts.total == bundle.claim_count

    def test_agent_single_stage_costs_more_than_oneshot(self, bundle):
        oneshot = run_single_stage(bundle, 0, seed=1)
        agent = run_single_stage(bundle, 3, seed=1)
        assert agent.economics.cost > 3 * oneshot.economics.cost

    def test_textual_bundle(self):
        wikitext = build_wikitext(document_count=3, total_claims=9)
        result = run_cedar(wikitext, seed=1)
        assert result.counts.total == 9


class TestProfilingAndScheduling:
    def test_profiles_have_sane_ranges(self, bundle):
        system = build_cedar(bundle, seed=5)
        profiles = profile_system(system, bundle.documents[:3])
        assert set(profiles) == {m.name for m in system.methods}
        for profile in profiles.values():
            assert 0.0 <= profile.accuracy <= 1.0
            assert profile.cost > 0

    def test_agents_cost_more_than_oneshot(self, bundle):
        system = build_cedar(bundle, seed=5)
        profiles = profile_system(system, bundle.documents[:3])
        oneshot_costs = [
            p.cost for name, p in profiles.items() if "one_shot" in name
        ]
        agent_costs = [
            p.cost for name, p in profiles.items() if "agent" in name
        ]
        assert min(agent_costs) > max(oneshot_costs)

    def test_profiling_requires_labels(self, bundle):
        system = build_cedar(bundle, seed=5)
        document = bundle.documents[0]
        stripped = document.claims[0].metadata.pop("label_correct")
        try:
            with pytest.raises(ValueError):
                profile_methods(system.methods, [document], CostLedger())
        finally:
            document.claims[0].metadata["label_correct"] = stripped

    def test_schedule_orders_cheap_first(self, bundle):
        system = build_cedar(bundle, seed=5)
        profiles = profile_system(system, bundle.documents[:3])
        planned = optimal_schedule(profiles, 0.99)
        costs = [profiles[stage.method_name].cost for stage in planned]
        assert costs == sorted(costs)


class TestCostConservation:
    def test_ledger_totals_equal_sum_of_captures(self, bundle,
                                                 attributed_spend):
        system = build_cedar(bundle, seed=6)
        entries = [ScheduleEntry(m, 1) for m in system.methods[:2]]
        reset_claims(bundle.documents)
        ledger = system.ledger
        per_doc = []
        for document in bundle.documents[:3]:
            tracer = Tracer(trace_id=document.doc_id)
            with ledger.capture() as spent:
                system.verifier.verify_documents([document], entries,
                                                 tracer=tracer)
            ledger.absorb(spent)
            per_doc.append(spent.totals().cost)
            # Every billed call sits under this document and under a
            # method span of the schedule, which names its claim.
            calls = attributed_spend(tracer)
            assert len(calls) == len(spent.entries) > 0
            assert {doc_id for _, doc_id, _, _ in calls} == {document.doc_id}
            assert {method for _, _, method, _ in calls} \
                <= {entry.method.name for entry in entries}
            assert {claim_id for _, _, _, claim_id in calls} \
                <= {claim.claim_id for claim in document.claims}
        assert sum(per_doc) == pytest.approx(ledger.total_cost)

    def test_reset_claims(self, bundle):
        run_cedar(bundle, seed=1)
        reset_claims(bundle.documents)
        assert all(c.correct is None and c.query is None
                   for c in bundle.claims)


class TestFailureInjection:
    def test_unrecognised_world_degrades_gracefully(self):
        """A bundle verified against the WRONG world: the model recognises
        nothing, produces no SQL, and every claim falls back to
        correct-by-default — the pipeline must not crash."""
        target = build_tabfact(table_count=3, total_claims=9)
        other = build_wikitext(document_count=2, total_claims=6)
        from repro.core import (MultiStageVerifier, OneShotMethod,
                                VerifierConfig)
        from repro.llm import SimulatedLLM

        ledger = CostLedger()
        client = SimulatedLLM("gpt-4o", other.world, ledger)
        method = OneShotMethod(client)
        verifier = MultiStageVerifier(config=VerifierConfig(ledger=ledger))
        run = verifier.verify_documents(
            target.documents, [ScheduleEntry(method, 1)]
        )
        assert all(c.correct is True for c in target.claims)
        assert all(r.fallback for r in run.reports.values())
        counts = score_claims(target.claims)
        assert counts.recall == 0.0
