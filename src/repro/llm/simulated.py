"""The simulated GPT: an offline generative model of claim-to-SQL behaviour.

This is the repo's substitute for the paid OpenAI APIs the paper calls
(see DESIGN.md, Substitutions). The model:

* recognises which claim a prompt is about via the :class:`ClaimWorld`;
* draws success/failure from a seeded RNG whose distribution depends on
  the model tier (GPT-3.5 < GPT-4o < GPT-4-turbo), the claim difficulty,
  the presence of a few-shot sample, unit-conversion needs, and joins;
* on success emits the reference SQL, on failure a realistic corruption
  (:mod:`repro.llm.corruption`);
* cheats (emits the claim value as a constant, Figure 2) when the prompt
  leaked the unmasked sentence;
* is deterministic at temperature 0 for identical prompts and randomised
  across retries at temperature > 0 — matching the paper's Assumption 1
  that retries are independent draws.

Agent-style ReAct prompts are delegated to a pluggable policy installed by
:mod:`repro.agents`; this module only handles single-shot completions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from .base import LLMClient, current_claim_draws
from .corruption import cheat_query, corrupt_query, trap_query
from .ledger import CostLedger
from .world import ClaimKnowledge, ClaimWorld

#: Marker the agent prompt template includes; prompts containing it are
#: routed to the installed agent policy.
AGENT_PROMPT_MARKER = "You have access to the following tools"

#: Marker present when the Figure 3 prompt carries a few-shot sample.
SAMPLE_MARKER = "For example, given the claim"

#: Marker of the question-generation step used by the P1/P2 baselines.
QUESTION_MARKER = "Rephrase the claim as a question"

#: Marker of the text-to-SQL step used by the P1/P2 baselines. Generic
#: text-to-SQL prompting lacks CEDAR's claim-specific structure (type
#: hints, query-format suggestions, claim context), which costs accuracy —
#: the penalty models that gap.
TEXT2SQL_MARKER = "Translate the question into a SQL query"
TEXT2SQL_PENALTY = 0.32


@dataclass(frozen=True)
class ModelBehaviour:
    """Skill parameters of one simulated model tier.

    Probabilities are calibrated so the reproduced experiments land in the
    paper's reported ranges; see EXPERIMENTS.md for the resulting numbers.
    """

    oneshot_skill: float        # success prob on a difficulty-0 claim
    difficulty_slope: float     # linear difficulty penalty
    sample_bonus: float         # few-shot sample uplift (Section 4)
    lookup_known_prob: float    # chance of guessing exact data constants
    unit_conversion_skill: float  # multiplier when units must convert
    join_penalty: float         # additive penalty for join queries
    agent_initial_skill: float  # agent's first-query success prob
    agent_repair_skill: float   # per-iteration repair prob after feedback
    cheat_prob: float = 0.85    # Figure 2 cheat rate on unmasked prompts
    #: Probability that, on a failed translation, the model instead emits a
    #: constant equal to the claimed value. Masking hides the value from
    #: the *prompt*, but a web-pretrained model sometimes simply knows the
    #: published figure and echoes it — the residual cheat the paper's
    #: masking cannot eliminate (and a reason its recall is below 100%).
    value_guess_prob: float = 0.0
    #: Probability of emitting the claim's ``misread_sql`` (when one
    #: exists) instead of translating correctly. Misreads persist across
    #: retries of the same model family — the correlated-failure mode that
    #: limits how much retrying can buy (Section 6.4).
    misread_prob: float = 0.0
    #: Agent-only: probability (per stuck iteration) of *fitting the
    #: feedback* instead of fixing the query — bisecting a constant via
    #: the greater/smaller signal until the tool reports a match. The
    #: resulting query returns the claimed value without representing the
    #: claim, exactly the residual cheat Section 5.3 warns the coarse
    #: feedback cannot fully prevent.
    feedback_fit_prob: float = 0.0


BEHAVIOURS: dict[str, ModelBehaviour] = {
    "gpt-3.5-turbo": ModelBehaviour(
        oneshot_skill=0.86,
        difficulty_slope=0.95,
        sample_bonus=0.12,
        lookup_known_prob=0.15,
        unit_conversion_skill=0.80,
        join_penalty=0.35,
        agent_initial_skill=0.84,
        agent_repair_skill=0.30,
        value_guess_prob=0.10,
        misread_prob=0.75,
        feedback_fit_prob=0.52,
    ),
    "gpt-4o-mini": ModelBehaviour(
        oneshot_skill=0.88,
        difficulty_slope=0.90,
        sample_bonus=0.12,
        lookup_known_prob=0.18,
        unit_conversion_skill=0.92,
        join_penalty=0.30,
        agent_initial_skill=0.89,
        agent_repair_skill=0.35,
        value_guess_prob=0.09,
        misread_prob=0.65,
        feedback_fit_prob=0.49,
    ),
    "gpt-4o": ModelBehaviour(
        oneshot_skill=0.94,
        difficulty_slope=0.72,
        sample_bonus=0.08,
        lookup_known_prob=0.25,
        unit_conversion_skill=0.92,
        join_penalty=0.18,
        agent_initial_skill=0.89,
        agent_repair_skill=0.48,
        value_guess_prob=0.07,
        misread_prob=0.50,
        feedback_fit_prob=0.45,
    ),
    "gpt-4-turbo": ModelBehaviour(
        oneshot_skill=0.95,
        difficulty_slope=0.62,
        sample_bonus=0.06,
        lookup_known_prob=0.28,
        unit_conversion_skill=0.95,
        join_penalty=0.14,
        agent_initial_skill=0.91,
        agent_repair_skill=0.58,
        value_guess_prob=0.06,
        misread_prob=0.48,
        feedback_fit_prob=0.40,
    ),
}

#: Signature of the agent policy installed by repro.agents: it receives
#: (knowledge, value_visible, behaviour, full_prompt, rng) and returns the
#: next ReAct-format completion text.
AgentPolicy = Callable[
    [ClaimKnowledge, bool, ModelBehaviour, str, random.Random], str
]


class SimulatedLLM(LLMClient):
    """An :class:`LLMClient` backed by the claim world instead of an API."""

    blocking = False  # pure computation: every call is CPU under the GIL

    def __init__(
        self,
        model_name: str,
        world: ClaimWorld,
        ledger: CostLedger | None = None,
        seed: int = 0,
        behaviour: ModelBehaviour | None = None,
    ) -> None:
        super().__init__(model_name, ledger)
        if behaviour is None and model_name not in BEHAVIOURS:
            raise ValueError(
                f"no behaviour profile for {model_name!r}; pass one explicitly"
            )
        self.world = world
        self.seed = seed
        self.behaviour = behaviour or BEHAVIOURS[model_name]
        self.agent_policy: AgentPolicy | None = None

    # -- generation ---------------------------------------------------------

    def _generate(self, prompt: str, temperature: float) -> str:
        recognised = self.world.recognise(prompt)
        if recognised is None:
            return (
                "I could not identify a verifiable claim in the provided "
                "text, so I cannot produce a SQL query."
            )
        knowledge, value_visible = recognised
        rng = self._rng(knowledge, temperature, prompt)
        if AGENT_PROMPT_MARKER in prompt:
            if self.agent_policy is None:
                raise RuntimeError(
                    "agent prompt received but no agent policy installed"
                )
            return self.agent_policy(
                knowledge, value_visible, self.behaviour, prompt, rng
            )
        if QUESTION_MARKER in prompt:
            return self._question_for(knowledge)
        return self._oneshot_completion(
            knowledge, value_visible, prompt, rng
        )

    def _oneshot_completion(
        self,
        knowledge: ClaimKnowledge,
        value_visible: bool,
        prompt: str,
        rng: random.Random,
    ) -> str:
        if value_visible and rng.random() < self.behaviour.cheat_prob:
            sql = cheat_query(knowledge)
            return self._render(knowledge, sql, cheated=True)
        has_sample = SAMPLE_MARKER in prompt
        penalty = TEXT2SQL_PENALTY if TEXT2SQL_MARKER in prompt else 0.0
        sql = self.draw_translation(knowledge, has_sample, rng, penalty)
        return self._render(knowledge, sql)

    def draw_translation(
        self,
        knowledge: ClaimKnowledge,
        has_sample: bool,
        rng: random.Random,
        penalty: float = 0.0,
    ) -> str:
        """Draw one-shot translation output: reference, trap, or corruption.

        Exposed for the agent policy, which reuses the same distribution
        for the agent's *initial* query proposal (with its own skill).
        """
        if (
            knowledge.misread_sql is not None
            and rng.random() < self.behaviour.misread_prob
        ):
            return knowledge.misread_sql
        probability = self.success_probability(knowledge, has_sample, penalty)
        if rng.random() >= probability:
            if (
                knowledge.claim_type == "numeric"
                and rng.random() < self.behaviour.value_guess_prob
            ):
                # The model "remembers" the published figure and selects it
                # as a constant — undetectable agreement with the claim.
                # (Echoing an exact entity string is far rarer, so textual
                # claims do not take this path.)
                return cheat_query(knowledge)
            if knowledge.needs_unit_conversion and knowledge.naive_unit_sql:
                # The most common unit failure: the right query without the
                # conversion — plausible-looking, subtly wrong.
                if rng.random() < 0.45:
                    return knowledge.naive_unit_sql
            return corrupt_query(knowledge, rng)
        if (
            knowledge.lookup_trap is not None
            and rng.random() >= self.behaviour.lookup_known_prob
        ):
            return trap_query(knowledge)
        return knowledge.reference_sql

    def success_probability(
        self,
        knowledge: ClaimKnowledge,
        has_sample: bool,
        penalty: float = 0.0,
    ) -> float:
        """The model's one-shot translation success probability."""
        behaviour = self.behaviour
        probability = (
            behaviour.oneshot_skill
            - penalty
            - behaviour.difficulty_slope * knowledge.difficulty
        )
        if has_sample:
            probability += behaviour.sample_bonus
        if knowledge.needs_unit_conversion:
            probability -= 1.0 - behaviour.unit_conversion_skill
        if knowledge.join_required:
            probability -= behaviour.join_penalty
        probability *= hard_claim_factor(knowledge)
        return min(0.98, max(0.02, probability))

    # -- helpers --------------------------------------------------------------

    def _rng(
        self, knowledge: ClaimKnowledge, temperature: float, prompt: str
    ) -> random.Random:
        """Seeded RNG: deterministic at temperature 0, fresh per retry above.

        At temperature 0 the seed depends only on (model, claim, prompt), so
        identical calls reproduce identical output — re-trying at zero
        temperature is pointless, exactly as with a real API. At positive
        temperatures the draw's number enters the seed, making retries
        independent draws (paper Assumption 1). Draws are numbered per
        client and per claim within one claim's verification in one run:
        the :func:`~repro.llm.base.claim_draws` scope the verifier opens
        around each attempt. So a claim's draws depend neither on other
        claims' calls (the parallel executor reproduces a sequential run
        exactly) nor on what this process verified before (a resubmitted
        document draws what it drew the first time). A temperature > 0
        call outside any scope raises.
        """
        parts = [str(self.seed), self.model_name, knowledge.claim_id]
        if temperature <= 0.0:
            parts += ["det", _digest(prompt)]
        else:
            draws = current_claim_draws()
            if draws is None:
                raise RuntimeError(
                    f"temperature {temperature} call outside a claim "
                    "verification: open repro.llm.claim_draws() around it"
                )
            key = (id(self), knowledge.claim_id)
            count = draws.get(key, 0) + 1
            draws[key] = count
            parts += [f"t{temperature}", str(count)]
        return random.Random(int(_digest("|".join(parts)), 16))

    def _render(
        self, knowledge: ClaimKnowledge, sql: str, cheated: bool = False
    ) -> str:
        """Wrap SQL in a Figure 3-compliant completion with short reasoning."""
        if cheated:
            reasoning = (
                "The claim states the value directly, so the query can "
                "select it for verification."
            )
        else:
            reasoning = (
                f'To find the value of "x" in the claim, we need to query '
                f'the {knowledge.table_name} data. The question to answer '
                f"is which value appears at the masked position; the schema "
                f"suggests the following translation."
            )
        return f"{reasoning}\n\n```sql\n{sql}\n```"

    def _question_for(self, knowledge: ClaimKnowledge) -> str:
        """Question-generation step of the P1/P2 baselines.

        The emitted question embeds the masked sentence verbatim so that
        the follow-up text-to-SQL prompt remains recognisable to the world.
        """
        return (
            f'What value should replace "x" in the claim '
            f'"{knowledge.masked_sentence}"?'
        )


def hard_claim_factor(knowledge: ClaimKnowledge) -> float:
    """Skill collapse on genuinely ambiguous claims.

    For an ambiguous claim the failure is not a coin flip the next retry
    can fix — the phrasing itself under-specifies the query. Success
    probability collapses towards zero instead of degrading linearly.
    Difficult-but-well-posed claims (joins, unit conversions) are NOT
    collapsed: enough skill or tooling solves them reliably.
    """
    if not knowledge.ambiguous:
        return 1.0
    return max(0.05, (0.95 - knowledge.difficulty) / 0.25)


def _digest(text: str) -> str:
    return hashlib.blake2s(text.encode("utf-8"), digest_size=8).hexdigest()
