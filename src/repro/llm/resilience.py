"""Retry/backoff around ``LLMClient.complete``.

The paper's cost model already treats each model invocation as an
independent trial (Assumption 1), so the orchestration layer is free to
re-issue a *failed* call without changing the statistics — a failed call
produced no completion at all, unlike a retry-at-temperature which is a
fresh draw the schedule accounts for. This module adds that resilience:

* failures are classified **transient** (network hiccups, rate limits,
  malformed transport responses) or **permanent** (programming errors,
  invalid requests) — only transient failures are retried;
* backoff is capped exponential with *deterministic seeded jitter*, so a
  run's retry timing is reproducible under a fixed seed;
* every retry decision is recorded in the :class:`~repro.llm.ledger.
  CostLedger` as a :class:`~repro.llm.ledger.RetryEvent`, tagged like the
  call it shadows, so flakiness is auditable per claim and method.
"""

from __future__ import annotations

import hashlib
import logging
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.tracer import current_tracer

from .base import ChatResponse, DelegatingLLMClient, LLMClient
from .openai_client import TransportError

_log = logging.getLogger(__name__)


class TransientLLMError(RuntimeError):
    """A failure worth retrying: the next attempt may well succeed."""


class PermanentLLMError(RuntimeError):
    """A failure retrying cannot fix (bad request, contract violation)."""


#: Exception types treated as transient besides :class:`TransientLLMError`.
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TransportError,
    ConnectionError,
    TimeoutError,
    OSError,
)


def classify_failure(error: BaseException) -> bool:
    """True when ``error`` is transient (retryable), False when permanent.

    ``ValueError``/``TypeError`` and :class:`PermanentLLMError` mean the
    *request* is wrong and will be wrong again; transport-level trouble
    (:class:`TransportError`, socket errors, timeouts) is worth another
    attempt.
    """
    if isinstance(error, PermanentLLMError):
        return False
    if isinstance(error, TransientLLMError):
        return True
    return isinstance(error, TRANSIENT_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter."""

    max_attempts: int = 3
    base_delay: float = 0.05       # delay before the second attempt
    max_delay: float = 2.0         # cap on any single backoff
    multiplier: float = 2.0        # exponential growth factor
    jitter: float = 0.25           # +/- fraction of the nominal delay
    seed: int = 0                  # jitter RNG seed (reproducible runs)
    classify: Callable[[BaseException], bool] = classify_failure
    #: Injectable for tests and benchmarks; ``time.sleep`` in production.
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_for(self, attempt: int, token: str) -> float:
        """Backoff after the ``attempt``-th failure (1-based).

        Jitter is drawn from an RNG seeded on (policy seed, token,
        attempt) — with the prompt digest as the token, two runs with the
        same seed back off identically, while concurrent claims spread out
        instead of thundering in lockstep.
        """
        nominal = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (attempt - 1),
        )
        if self.jitter == 0.0 or nominal == 0.0:
            return nominal
        digest = hashlib.blake2s(
            f"{self.seed}|{token}|{attempt}".encode("utf-8"), digest_size=8
        ).hexdigest()
        rng = random.Random(int(digest, 16))
        spread = self.jitter * nominal
        return max(0.0, nominal + rng.uniform(-spread, spread))


class RetriesExhaustedError(RuntimeError):
    """Raised when every attempt allowed by the policy failed."""

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"LLM call failed after {attempts} attempts: {last_error!r}"
        )
        self.attempts = attempts
        self.last_error = last_error


class ResilientLLMClient(DelegatingLLMClient):
    """Wrap a client so transient ``complete`` failures are retried.

    Permanent failures propagate immediately. Transient failures are
    retried up to ``policy.max_attempts`` total attempts with backoff;
    each retry (and the final surrender, if any) is recorded in the
    ledger as a :class:`~repro.llm.ledger.RetryEvent`.
    """

    blocking = True  # its backoff sleeps

    def __init__(self, inner: LLMClient, policy: RetryPolicy | None = None):
        super().__init__(inner)
        self.policy = policy if policy is not None else RetryPolicy()

    def complete(self, prompt: str, temperature: float = 0.0) -> ChatResponse:
        policy = self.policy
        token = hashlib.blake2s(
            prompt.encode("utf-8"), digest_size=8
        ).hexdigest()
        last_error: BaseException | None = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self.inner.complete(prompt, temperature)
            except BaseException as error:
                if not policy.classify(error):
                    raise
                last_error = error
                tracer = current_tracer()
                if attempt == policy.max_attempts:
                    self.ledger.record_retry(
                        model=self.model_name,
                        attempt=attempt,
                        delay_seconds=0.0,
                        error=repr(error),
                        gave_up=True,
                    )
                    _log.error("llm_retries_exhausted", extra={"fields": {
                        "model": self.model_name, "attempts": attempt,
                        "error": repr(error),
                    }})
                    if tracer.enabled:
                        now = tracer.clock()
                        tracer.record(
                            f"retry:{self.model_name}", "retry", now, now,
                            status="error", attempt=attempt,
                            error=repr(error), gave_up=True,
                        )
                    raise RetriesExhaustedError(attempt, error) from error
                delay = policy.delay_for(attempt, token)
                self.ledger.record_retry(
                    model=self.model_name,
                    attempt=attempt,
                    delay_seconds=delay,
                    error=repr(error),
                )
                _log.warning("llm_retry", extra={"fields": {
                    "model": self.model_name, "attempt": attempt,
                    "delay_seconds": round(delay, 6), "error": repr(error),
                }})
                # The retry span covers the backoff sleep, so waterfalls
                # show waiting-out-a-failure as its own bar next to the
                # model-call latency it shadows.
                with tracer.span(
                    f"retry:{self.model_name}", "retry",
                    attempt=attempt, delay_seconds=delay, error=repr(error),
                ):
                    if delay > 0:
                        policy.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover
