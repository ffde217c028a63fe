"""Tests for the simulated LLM: recognition, determinism, failure modes."""

import random

import pytest

from repro.core import one_shot_prompt
from repro.llm import (
    ClaimKnowledge,
    ClaimWorld,
    CostLedger,
    LookupTrap,
    SimulatedLLM,
    cheat_query,
    claim_draws,
    corrupt_query,
    extract_sql_block,
    trap_query,
)
from repro.llm.simulated import BEHAVIOURS, hard_claim_factor


def make_knowledge(**overrides):
    defaults = dict(
        claim_id="d/c0",
        masked_sentence="France consumes x glasses of wine per person.",
        unmasked_sentence="France consumes 370 glasses of wine per person.",
        reference_sql='SELECT "wine" FROM "drinks" WHERE "country" = \'France\'',
        claim_value_text="370",
        claim_type="numeric",
        difficulty=0.2,
        table_name="drinks",
        columns=("country", "wine", "beer"),
    )
    defaults.update(overrides)
    return ClaimKnowledge(**defaults)


def make_world(knowledge=None):
    world = ClaimWorld()
    world.register(knowledge or make_knowledge())
    return world


def prompt_for(knowledge, masked=True, sample=None):
    claim = (knowledge.masked_sentence if masked
             else knowledge.unmasked_sentence)
    return one_shot_prompt(claim, "numeric", "CREATE TABLE ...", sample,
                           claim)


class TestWorld:
    def test_register_and_lookup(self):
        knowledge = make_knowledge()
        world = make_world(knowledge)
        assert world.by_id("d/c0") is knowledge
        assert len(world) == 1

    def test_duplicate_id_rejected(self):
        world = make_world()
        with pytest.raises(ValueError):
            world.register(make_knowledge())

    def test_recognise_masked(self):
        knowledge = make_knowledge()
        world = make_world(knowledge)
        found, visible = world.recognise(prompt_for(knowledge))
        assert found is knowledge
        assert not visible

    def test_recognise_unmasked_flags_visibility(self):
        knowledge = make_knowledge()
        world = make_world(knowledge)
        found, visible = world.recognise(prompt_for(knowledge, masked=False))
        assert found is knowledge
        assert visible

    def test_unknown_prompt(self):
        assert make_world().recognise("Tell me a joke.") is None

    def test_substring_fallback(self):
        knowledge = make_knowledge()
        world = make_world(knowledge)
        prompt = f"Random preamble. {knowledge.masked_sentence} Random coda."
        found, _ = world.recognise(prompt)
        assert found is knowledge

    def test_validation(self):
        with pytest.raises(ValueError):
            make_knowledge(difficulty=1.5)
        with pytest.raises(ValueError):
            make_knowledge(claim_type="verse")


class TestDeterminism:
    def test_temperature_zero_is_deterministic(self):
        knowledge = make_knowledge(difficulty=0.5)
        world = make_world(knowledge)
        client = SimulatedLLM("gpt-3.5-turbo", world, CostLedger(), seed=3)
        prompt = prompt_for(knowledge)
        first = client.complete(prompt, 0.0).text
        assert all(
            client.complete(prompt, 0.0).text == first for _ in range(5)
        )

    def test_positive_temperature_varies(self):
        knowledge = make_knowledge(difficulty=0.55)
        world = make_world(knowledge)
        client = SimulatedLLM("gpt-3.5-turbo", world, CostLedger(), seed=3)
        prompt = prompt_for(knowledge)
        with claim_draws({}):
            outputs = {client.complete(prompt, 0.5).text for _ in range(12)}
        assert len(outputs) > 1

    def test_positive_temperature_outside_a_scope_raises(self):
        knowledge = make_knowledge()
        client = SimulatedLLM("gpt-4o", make_world(knowledge), CostLedger())
        with pytest.raises(RuntimeError, match="claim_draws"):
            client.complete(prompt_for(knowledge), 0.5)
        # Temperature 0 needs no scope: it draws nothing.
        client.complete(prompt_for(knowledge), 0.0)

    def test_a_fresh_scope_replays_the_draws(self):
        knowledge = make_knowledge(difficulty=0.55)
        client = SimulatedLLM("gpt-3.5-turbo", make_world(knowledge),
                              CostLedger(), seed=3)
        prompt = prompt_for(knowledge)

        def draws():
            with claim_draws({}) as counts:
                texts = [client.complete(prompt, 0.5).text
                         for _ in range(6)]
            assert counts == {(id(client), knowledge.claim_id): 6}
            return texts

        assert draws() == draws()

    def test_clients_count_their_draws_apart(self):
        knowledge = make_knowledge(difficulty=0.55)
        world = make_world(knowledge)
        prompt = prompt_for(knowledge)
        first, second = (SimulatedLLM("gpt-3.5-turbo", world, CostLedger(),
                                      seed=3) for _ in range(2))
        with claim_draws({}):
            alone = [first.complete(prompt, 0.5).text for _ in range(4)]
        with claim_draws({}):
            interleaved = []
            for _ in range(4):
                interleaved.append(first.complete(prompt, 0.5).text)
                second.complete(prompt, 0.5)
        assert interleaved == alone

    def test_seed_changes_behaviour(self):
        knowledge = make_knowledge(difficulty=0.5)
        world = make_world(knowledge)
        prompt = prompt_for(knowledge)
        outputs = {
            SimulatedLLM("gpt-3.5-turbo", world, CostLedger(),
                         seed=s).complete(prompt, 0.0).text
            for s in range(12)
        }
        assert len(outputs) > 1


class TestBehaviourModel:
    def test_success_probability_ordering(self):
        easy = make_knowledge(difficulty=0.1)
        hard = make_knowledge(claim_id="d/c1",
                              masked_sentence="other x.",
                              unmasked_sentence="other 5.",
                              difficulty=0.6)
        world = ClaimWorld()
        world.register(easy)
        world.register(hard)
        client = SimulatedLLM("gpt-4o", world, CostLedger())
        assert client.success_probability(easy, False) > \
            client.success_probability(hard, False)

    def test_sample_bonus(self):
        knowledge = make_knowledge(difficulty=0.4)
        client = SimulatedLLM("gpt-4o", make_world(knowledge), CostLedger())
        assert client.success_probability(knowledge, True) > \
            client.success_probability(knowledge, False)

    def test_model_tier_ordering(self):
        knowledge = make_knowledge(difficulty=0.4)
        world = make_world(knowledge)
        weak = SimulatedLLM("gpt-3.5-turbo", world, CostLedger())
        strong = SimulatedLLM("gpt-4-turbo", world, CostLedger())
        assert strong.success_probability(knowledge, False) > \
            weak.success_probability(knowledge, False)

    def test_hard_claim_factor(self):
        benign = make_knowledge(difficulty=0.9)
        assert hard_claim_factor(benign) == 1.0
        ambiguous = make_knowledge(difficulty=0.9, ambiguous=True)
        assert hard_claim_factor(ambiguous) < 0.3

    def test_unknown_model_rejected(self):
        # Unknown names fail at the pricing table (KeyError); known-priced
        # models without a behaviour profile fail with ValueError.
        with pytest.raises((ValueError, KeyError)):
            SimulatedLLM("gpt-99", make_world(), CostLedger())

    def test_explicit_behaviour_accepted(self):
        behaviour = BEHAVIOURS["gpt-4o"]
        client = SimulatedLLM("gpt-4o-mini", make_world(), CostLedger(),
                              behaviour=behaviour)
        assert client.behaviour is behaviour


class TestOutputs:
    def test_success_emits_reference_sql(self):
        knowledge = make_knowledge(difficulty=0.05)
        world = make_world(knowledge)
        client = SimulatedLLM("gpt-4-turbo", world, CostLedger(), seed=0)
        hits = 0
        with claim_draws({}):
            for temperature in (0.7,) * 20:
                text = client.complete(prompt_for(knowledge),
                                       temperature).text
                if extract_sql_block(text) == knowledge.reference_sql:
                    hits += 1
        assert hits >= 14  # easy claim, strong model

    def test_unmasked_prompt_triggers_cheat(self):
        knowledge = make_knowledge()
        world = make_world(knowledge)
        client = SimulatedLLM("gpt-4o", world, CostLedger(), seed=1)
        cheats = 0
        with claim_draws({}):
            for _ in range(20):
                text = client.complete(
                    prompt_for(knowledge, masked=False), 0.9
                ).text
                if extract_sql_block(text) == cheat_query(knowledge):
                    cheats += 1
        assert cheats >= 12  # cheat_prob is 0.85

    def test_unrecognised_prompt_has_no_sql(self):
        client = SimulatedLLM("gpt-4o", make_world(), CostLedger())
        text = client.complete("What is the capital of France?", 0.0).text
        assert extract_sql_block(text) is None

    def test_misread_dominates_when_present(self):
        knowledge = make_knowledge(
            misread_sql='SELECT "beer" FROM "drinks" WHERE "country" = \'France\''
        )
        world = make_world(knowledge)
        client = SimulatedLLM("gpt-3.5-turbo", world, CostLedger(), seed=2)
        misreads = 0
        with claim_draws({}):
            for _ in range(30):
                sql = extract_sql_block(
                    client.complete(prompt_for(knowledge), 0.8).text
                )
                if sql == knowledge.misread_sql:
                    misreads += 1
        assert misreads >= 12  # misread_prob 0.75 for gpt-3.5


class TestCorruptions:
    def test_corrupt_query_differs_from_reference(self):
        knowledge = make_knowledge(difficulty=0.9)
        rng = random.Random(0)
        seen_different = 0
        for _ in range(20):
            corrupted = corrupt_query(knowledge, rng)
            if " ".join(corrupted.split()) != " ".join(
                knowledge.reference_sql.split()
            ):
                seen_different += 1
        assert seen_different >= 18

    def test_trap_query_swaps_constant(self):
        knowledge = make_knowledge(
            lookup_trap=LookupTrap("country", "The French Republic", "France")
        )
        trapped = trap_query(knowledge)
        assert "The French Republic" in trapped
        assert "'France'" not in trapped

    def test_trap_requires_trap(self):
        with pytest.raises(ValueError):
            trap_query(make_knowledge())

    def test_cheat_query_numeric(self):
        assert cheat_query(make_knowledge()) == "SELECT 370"

    def test_cheat_query_text(self):
        knowledge = make_knowledge(claim_type="text",
                                   claim_value_text="France")
        assert cheat_query(knowledge) == "SELECT 'France'"


class TestExtractSqlBlock:
    def test_fenced_sql(self):
        assert extract_sql_block("x\n```sql\nSELECT 1\n```\ny") == "SELECT 1"

    def test_plain_fence(self):
        assert extract_sql_block("```\nSELECT 2\n```") == "SELECT 2"

    def test_unfenced_select(self):
        assert extract_sql_block(
            "The query is SELECT a FROM t"
        ) == "SELECT a FROM t"

    def test_no_sql(self):
        assert extract_sql_block("no query here") is None

    def test_empty_fence_ignored(self):
        assert extract_sql_block("``````") is None
